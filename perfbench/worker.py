"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD DATASET_CSV OUT_DIR [--trace]

Times the set-up, ``Emulation.execute`` and ``report_from_blocks`` on the
given dataset, checks the outputs, fingerprints the run directory and
prints one JSON object. The set-up is everything a fresh process does
before the run starts: importing the emulator, parsing the config and
``Emulation.setup``. Imports are part of it so that work moved to import
time shows. With ``--trace`` the layer wrappers are installed first and
the per-layer metrics are added.

The times are wall seconds as measured. The reference workload
(``reference.py``) is timed before the set-up and after each phase, and
its times are printed under ``references`` so ``run.py`` can scale the
phase times to the nominal host speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import failed_originals, fingerprint, outcome_problems, run_outcome  # noqa: E402
from reference import reference_s  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402


def main(argv: list[str]) -> int:
    name, dataset_path, out_dir = argv[:3]
    reference_s()  # warm-up: the first call also pays for fresh heap pages
    refs = [reference_s()]
    t0 = time.perf_counter()
    tracer = None
    if argv[3:] == ["--trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    from shardemu.config import parse_config
    from shardemu.harness import Emulation, report_from_blocks

    cfg = parse_config(run_config(WORKLOADS[name], dataset_path, out_dir))
    emu = Emulation(cfg)
    emu.setup()
    setup_s = time.perf_counter() - t0
    refs.append(reference_s())

    loop = emu.net.run
    steps = []

    def counting_run(until=None):
        steps.append(loop(until=until))
        return steps[-1]

    emu.net.run = counting_run
    t0 = time.perf_counter()
    result = emu.execute()
    run_s = time.perf_counter() - t0
    refs.append(reference_s())

    t0 = time.perf_counter()
    recomputed = report_from_blocks(out_dir)
    report_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs.append(reference_s())

    summary = result.summary
    outcome = run_outcome(result, recomputed)
    problems = outcome_problems(outcome)
    events = sum(steps)
    layers = None
    if tracer is not None:
        layers, codec_problems = layertrace.layer_metrics(tracer, emu, summary, events)
        problems += codec_problems
    out = {
        "attempted": summary["counters"]["X"],
        "failed": failed_originals(outcome, problems),
        "problems": problems,
        "fingerprint": fingerprint(out_dir),
        "layers": layers,
        "metrics": {
            "setup_s": setup_s,
            "run_s": run_s,
            "report_s": report_s,
            "peak_rss_mb": peak_rss_mb,
            "rows": summary["counters"]["W"],
            "events": events,
        },
        "references": refs,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Resident memory after each phase of one benchmark repetition.

Follows ``perfbench/worker.py``'s phases on one workload in this process:
set-up (importing the emulator, parsing the config and
``Emulation.setup``), the reference workload, ``Emulation.execute``, the
reference, ``report_from_blocks``, the reference. Like the worker, it
runs the reference twice before set-up. After that and after each phase
it prints one JSON line: the phase, and the process's resident size
(``VmRSS``) and peak (``VmHWM``) in MiB from ``/proc/self/status``. Where
that file cannot be read, the peak is ``ru_maxrss`` and the resident size
is null. The first line whose peak reaches the last line's names the
phase that sets the benchmark's ``peak_rss_mb``.

The dataset is written first, by ``shardemu gen-dataset`` in a child
process, from the workload's recipe and the seed, as ``perfbench/run.py``
writes it, so that writing it leaves nothing in this process. The script
reads perfbench's ``workloads`` and ``reference`` modules and changes
nothing under ``perfbench/``. It exits with the run's exit code.

Usage:
    python scripts/rss_phases.py broker_zipf_crash_4 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path[:0] = [SRC, str(ROOT / "perfbench")]

from reference import reference_s  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402


def memory_mib() -> dict:
    """This process's resident size and peak in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if line.startswith("Vm"))
        return {"rss_mb": int(fields["VmRSS"].split()[0]) / 1024,
                "hwm_mb": int(fields["VmHWM"].split()[0]) / 1024}
    except (OSError, KeyError, ValueError):
        return {"rss_mb": None,
                "hwm_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def phase(name: str) -> None:
    print(json.dumps({"phase": name, **memory_mib()}), flush=True)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="dataset seed (default 1)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        dataset, out_dir = os.path.join(tmp, "dataset.csv"), os.path.join(tmp, "run")
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "shardemu.cli", "gen-dataset",
             "--accounts", str(workload.accounts), "--txs", str(workload.txs),
             "--skew", workload.skew, "--seed", str(args.seed), "--out", dataset],
            env={**os.environ, "PYTHONPATH": path}, check=True, stdout=subprocess.DEVNULL)

        reference_s()
        reference_s()
        phase("start")
        from shardemu.config import parse_config
        from shardemu.harness import Emulation, report_from_blocks

        emu = Emulation(parse_config(run_config(workload, dataset, out_dir)))
        emu.setup()
        phase("setup")
        reference_s()
        phase("reference")
        result = emu.execute()
        phase("run")
        reference_s()
        phase("reference")
        report_from_blocks(out_dir)
        phase("report")
        reference_s()
        phase("reference")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""shardemu benchmark: each workload repeated in fresh processes.

Usage, from the repository root:

    python3 perfbench/run.py --workload relay_uniform_8 --seed 1 --seconds 55 --trace 0

``--workload all`` runs every workload in turn, each printing its own block
of results.

The seed only shapes the generated dataset, which is written once per
invocation, outside every timed region. Each repetition then runs
``perfbench/worker.py`` in a new process (so peak RSS, imports and lazy
set-up are never shared), and must pass the correctness gate. Repetitions
continue while another one fits in ``--seconds``.

With ``--trace 0`` the end-to-end times are the means over the repetitions
of each phase's wall time, scaled to a nominal host speed: multiplied by
``NOMINAL_S`` over the mean time of a reference workload timed next to
every phase (see ``reference.py``). The host's own speed drifts by more
than the bounds, and it jumps within seconds between a fast and a slow
state, which moves a median of a few repetitions more than a mean. The
rates divide the run's rows and events by the scaled ``run_s``;
``peak_rss_mb`` is the median as measured. The mean wall times and the
mean reference time are printed on the ``measured`` line. With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics (wall seconds, not scaled) come from the traced repetition with
the median ``run_s``, and ``trace.overhead_s`` is its ``run_s`` minus the
untraced mean.

Human-readable lines go first; each workload's block ends in one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only if every repetition of every workload passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

# Whatever --seconds says, one invocation stays well inside three minutes.
MIN_REPS = 3
HARD_DEADLINE_S = 150.0

sys.path.insert(0, HERE)
from checks import fingerprint_problems  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_dataset(name: str, seed: int, path: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from shardemu.dataset import gen_dataset

    w = WORKLOADS[name]
    return gen_dataset(path, w.accounts, w.txs, w.skew, seed)["txs"]


def run_rep(name: str, dataset: str, out_dir: str, traced: bool, timeout: float,
            n_txs: int) -> dict:
    """One repetition in a fresh process. A crash, a timeout or unreadable
    output counts as a failed check with every original failed."""
    cmd = [sys.executable, WORKER, name, dataset, out_dir] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        why = f"repetition exceeded {timeout:.0f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        why = f"worker exited {proc.returncode}: {tail[0]}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"attempted": n_txs, "failed": n_txs, "problems": [why],
            "fingerprint": None, "metrics": None, "layers": None}


def end_to_end(reps: list[dict]) -> dict:
    """The end-to-end metrics from the untraced repetitions' measurements."""
    factor = NOMINAL_S / statistics.mean(x for r in reps for x in r["references"])

    def mean(key: str) -> float:
        return statistics.mean(r["metrics"][key] for r in reps)

    run_s = mean("run_s") * factor
    return {
        "setup_s": mean("setup_s") * factor,
        "run_s": run_s,
        "rows_per_s": mean("rows") / run_s,
        "events_per_s": mean("events") / run_s,
        "report_s": mean("report_s") * factor,
        "peak_rss_mb": statistics.median(r["metrics"]["peak_rss_mb"] for r in reps),
    }


def repeat(name: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """(traced, result) per repetition, started while another one fits in
    ``seconds``; with ``trace`` every second repetition is traced."""
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = os.path.join(WORK_DIR, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        dataset = os.path.join(tmp, "dataset.csv")
        n_txs = make_dataset(name, seed, dataset)
        start = time.monotonic()
        reps: list[tuple[bool, dict]] = []
        durations: list[float] = []
        while True:
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS or elapsed >= HARD_DEADLINE_S / 2:
                typical = statistics.median(durations)
                if elapsed + typical > min(seconds, HARD_DEADLINE_S):
                    return reps
            traced = trace and len(reps) % 2 == 1
            t0 = time.monotonic()
            rep = run_rep(name, dataset, os.path.join(tmp, f"rep{len(reps)}"),
                          traced, max(10.0, 170.0 - elapsed), n_txs)
            durations.append(time.monotonic() - t0)
            reps.append((traced, rep))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> bool:
    """Run, check and report one workload; True when every check passed."""
    reps = repeat(name, seed, seconds, trace)

    problems = [f"rep {i}: {p}" for i, (_, r) in enumerate(reps) for p in r["problems"]]
    attempted = sum(r["attempted"] for _, r in reps)
    failed = sum(r["failed"] for _, r in reps)
    mismatch = fingerprint_problems(r["fingerprint"] for _, r in reps if r["fingerprint"])
    if mismatch:
        # No repetition's outputs can be trusted when they disagree.
        problems += mismatch
        failed = attempted
    correct = not problems

    plain = [r for traced, r in reps if not traced and r["metrics"]]
    traced_reps = [r for traced, r in reps if traced and r["layers"]]
    values: dict = {}
    stress_lines = []
    if plain:
        values = end_to_end(plain)
    if trace and plain and traced_reps:
        traced_reps.sort(key=lambda r: r["metrics"]["run_s"])
        mid = traced_reps[(len(traced_reps) - 1) // 2]
        layers = dict(mid["layers"])
        layers["trace.overhead_s"] = mid["metrics"]["run_s"] - statistics.mean(
            r["metrics"]["run_s"] for r in plain)
        values = layers
        for st in WORKLOADS[name].stresses:
            share = sum(layers[f"{span}.self_s"] for span in st.spans) / mid["metrics"]["run_s"]
            met = st.at_least <= share < st.below
            stress_lines.append(
                f"  stress {st.label}: {share:.3f} of traced run_s "
                f"(meant to be in [{st.at_least}, {st.below})): {'met' if met else 'NOT MET'}"
            )
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    if correct and set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        problems.append(f"metrics missing from the result: {missing}")
        correct = False

    print(f"workload {name} seed {seed}: {len(reps)} repetitions "
          f"({len(plain)} untraced, {len(traced_reps)} traced)")
    fingerprints = sorted({r["fingerprint"] for _, r in reps if r["fingerprint"]})
    print(f"  output fingerprint {', '.join(fingerprints) or 'none'}")
    print(f"  tx_failed_share {failed / attempted if attempted else 1.0:.6f} ratio "
          f"({failed} of {attempted} originals)")
    for key, m in metrics.items():
        print(f"  {key} {m['value']} {m['unit']}")
    if plain:
        walls = ", ".join(f"{k} {statistics.mean(r['metrics'][k] for r in plain):.4f} s"
                          for k in ("setup_s", "run_s", "report_s"))
        ref = statistics.mean(x for r in plain for x in r["references"])
        print(f"  measured: mean wall {walls}; mean reference {ref:.4f} s "
              f"(nominal {NOMINAL_S} s)")
    for line in stress_lines:
        print(line)
    for p in problems:
        print(f"  FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shardemu", "harness.py")):
        print(f"error: no emulator sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_spec()[section]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passed = [bench_workload(n, args.seed, args.seconds, bool(args.trace), units) for n in names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

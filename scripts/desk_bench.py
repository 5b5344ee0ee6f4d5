"""Time the desk-scale protocol, one fresh process per run.

For each shard count n the script writes a uniform dataset with
``shardemu gen-dataset`` (2000n accounts, the given transactions per shard
times n, seed 11). It then runs n shards x 4 nodes, block size 200, block
interval 1000 ms, relay over the static map, prefilled pools, drain, over
the simulated transport at its default latency: once with an
``output_dir`` and once without. Each run is a new Python process that
times ``harness.run``, setup and reports included, and reads its own peak
RSS. The child also times ``perfbench/reference.py``'s fixed workload just
before and just after the run; the host's speed drifts from run to run, so
``scaled_wall_s`` restates the wall time on a host where that reference
takes ``NOMINAL_S`` (wall seconds x ``NOMINAL_S`` / mean reference
seconds), as ``perfbench/run.py`` does. One JSON row per run goes to
stdout: wall seconds, mean reference seconds, scaled wall seconds,
committed rows, rows per wall-second, peak RSS and exit code.

A single run per configuration cannot back a claim on a host whose speed
drifts, so ``--repeat N`` runs each shard count N times, alternating the
runs with and without ``output_dir``. After them, one summary row per
configuration gives the number of good runs and the first quartile,
median and third quartile of ``wall_s`` and ``scaled_wall_s``. The script
exits 1 if any run failed or did not drain.

Usage:
    python scripts/desk_bench.py --out /tmp/desk
    python scripts/desk_bench.py --shards 8 --txs-per-shard 10000 --repeat 5 --out /tmp/desk
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from correctness_sweep import desk_config

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
PERFBENCH = str(ROOT / "perfbench")

# The timed child: reads one config from argv, prints one JSON object.
CHILD = """
import json, resource, sys, time
from reference import NOMINAL_S, reference_s
from shardemu.config import parse_config
from shardemu.harness import run
cfg = parse_config(json.loads(sys.argv[1]))
reference_s()  # warm-up: the first call also pays for fresh heap pages
before = reference_s()
t0 = time.perf_counter()
result = run(cfg)
wall = time.perf_counter() - t0
ref = (before + reference_s()) / 2
print(json.dumps({
    "wall_s": wall,
    "ref_s": ref,
    "scaled_wall_s": wall * NOMINAL_S / ref,
    "rows": result.summary["counters"]["W"],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "exit": result.exit_code,
}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, PERFBENCH, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=False)


def run_one(n_shards: int, txs_per_shard: int, dataset: Path, out_base: Path,
            with_output: bool) -> dict:
    cfg = desk_config(n_shards, dataset, out_base / f"run_{n_shards}",
                      theta=200, delta_ms=1000, epoch_ms=5000)
    if not with_output:
        del cfg["output_dir"]
    proc = _python("-c", CHILD, json.dumps(cfg))
    row = {"shards": n_shards, "txs": txs_per_shard * n_shards, "output_dir": with_output}
    if proc.returncode != 0:
        row.update(exit=None, error=proc.stderr.strip().splitlines()[-1:])
    else:
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        row.update(wall_s=round(got["wall_s"], 3), ref_s=round(got["ref_s"], 4),
                   scaled_wall_s=round(got["scaled_wall_s"], 3), rows=got["rows"],
                   rows_per_s=round(got["rows"] / got["wall_s"], 1),
                   peak_rss_mb=round(got["peak_rss_mb"], 1), exit=got["exit"])
    return row


def quartiles(xs: list[float]) -> dict:
    """First quartile, median and third quartile, interpolated between the
    runs themselves."""
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1
                      else xs * 3)
    return {"q1": round(q1, 3), "median": round(median, 3), "q3": round(q3, 3)}


def bench_one(n_shards: int, txs_per_shard: int, out_base: Path, repeat: int) -> list[dict]:
    dataset = out_base / f"uniform_{n_shards}.csv"
    gen = _python("-m", "shardemu.cli", "gen-dataset",
                  "--accounts", str(2000 * n_shards),
                  "--txs", str(txs_per_shard * n_shards),
                  "--skew", "uniform", "--seed", "11", "--out", str(dataset))
    if gen.returncode != 0:
        raise SystemExit(f"gen-dataset failed: {gen.stderr.strip()}")
    rows = []
    for _ in range(repeat):
        for with_output in (True, False):
            row = run_one(n_shards, txs_per_shard, dataset, out_base, with_output)
            print(json.dumps(row), flush=True)
            rows.append(row)
    for with_output in (True, False):
        good = [r for r in rows if r["output_dir"] is with_output and r["exit"] == 0]
        summary = {"shards": n_shards, "txs": txs_per_shard * n_shards,
                   "output_dir": with_output, "runs": len(good)}
        if good:
            for key in ("wall_s", "scaled_wall_s"):
                summary[key] = quartiles([r[key] for r in good])
        print(json.dumps(summary), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="directory for datasets and run outputs")
    parser.add_argument("--shards", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--txs-per-shard", type=int, default=10_000)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per configuration, alternating with and without output_dir")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    out_base = Path(args.out)
    out_base.mkdir(parents=True, exist_ok=True)
    rows = [row for n in args.shards
            for row in bench_one(n, args.txs_per_shard, out_base, args.repeat)]
    return 0 if all(row["exit"] == 0 for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())

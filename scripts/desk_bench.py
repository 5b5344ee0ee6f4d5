"""Time the desk-scale protocol, one fresh process per run.

For each shard count n the script writes a uniform dataset with
``shardemu gen-dataset`` (2000n accounts, the given transactions per shard
times n, seed 11). It then runs n shards x 4 nodes, block size 200, block
interval 1000 ms, relay over the static map, prefilled pools, drain, over
the simulated transport at its default latency: once with an
``output_dir`` and once without. Each run is a new Python process that
times ``Emulation.setup`` (wiring and the prefill) and ``execute`` (the
run and its reports), and reads its own peak RSS. A run with an
``output_dir`` then rebuilds its reports from its block files
(``report_from_blocks``), timed on its own, after the peak RSS is read.
One JSON row per run goes to stdout: raw wall seconds (set-up plus
execute), set-up seconds, committed rows, rows per wall-second, peak RSS,
exit code and, with ``output_dir``, the rebuild's seconds (``report_s``).

A single run per configuration cannot back a claim on a host whose speed
drifts, so ``--repeat N`` runs each shard count N times, alternating the
runs with and without ``output_dir``. After them, one summary row per
configuration gives the number of good runs and the first quartile,
median and third quartile of ``wall_s``, ``setup_s`` and ``peak_rss_mb``,
and of ``report_s`` with ``output_dir``.
The script exits 1 if any run failed or did not drain.

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

# The timed child: reads one config from argv, prints one JSON object.
CHILD = """
import json, resource, sys, time
from shardemu.config import parse_config
from shardemu.harness import Emulation, report_from_blocks
cfg = parse_config(json.loads(sys.argv[1]))
t0 = time.perf_counter()
emu = Emulation(cfg)
emu.setup()
t1 = time.perf_counter()
result = emu.execute()
wall = time.perf_counter() - t0
got = {
    "wall_s": wall,
    "setup_s": t1 - t0,
    "rows": result.summary["counters"]["W"],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "exit": result.exit_code,
}
if cfg.output_dir:
    t2 = time.perf_counter()
    report_from_blocks(cfg.output_dir)
    got["report_s"] = time.perf_counter() - t2
print(json.dumps(got))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
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
        row.update(wall_s=round(got["wall_s"], 3), setup_s=round(got["setup_s"], 3),
                   rows=got["rows"],
                   rows_per_s=round(got["rows"] / got["wall_s"], 1),
                   peak_rss_mb=round(got["peak_rss_mb"], 1), exit=got["exit"])
        if "report_s" in got:
            row["report_s"] = round(got["report_s"], 3)
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
            for key in ("wall_s", "setup_s", "peak_rss_mb", "report_s"):
                if key in good[0]:
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

"""Run relay and brokered settlement over one skewed workload and compare.

Both runs share the dataset, shard grid, transport seed, and stop rule;
only the cross-shard mechanism differs (the brokered run additionally
nominates the top-K most active accounts as brokers). The comparison shows
how much cross-shard traffic the brokers absorb and what that does to the
total committed row count: every transaction that stays whole commits one
row instead of two.

Usage:
    python scripts/compare_mechanisms.py --out /tmp/compare
    python scripts/compare_mechanisms.py --skew zipf:1.0 --brokers 20
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shardemu.config import parse_config
from shardemu.dataset import gen_dataset, involvement_coverage, load_dataset, top_active_accounts
from shardemu.harness import run


def base_config(args, dataset: Path, out_dir: Path) -> dict:
    return {
        "n_shards": args.shards,
        "nodes_per_shard": 4,
        "block_size": args.block_size,
        "block_interval_ms": args.block_interval_ms,
        "epoch_ms": 5000,
        "partition": "static",
        "injection": {"prefill": True},
        "transport": {"sim": {"latency_ms": 5, "seed": 0}},
        "stop": {"drain": True},
        "dataset_path": str(dataset),
        "output_dir": str(out_dir),
        "mechanism": "relay",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="/tmp/shardemu_compare")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--accounts", type=int, default=1000)
    parser.add_argument("--txs", type=int, default=40_000)
    parser.add_argument("--skew", default="zipf:1.2")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--brokers", type=int, default=10,
                        help="how many top accounts the brokered run nominates")
    parser.add_argument("--block-size", type=int, default=200)
    parser.add_argument("--block-interval-ms", type=int, default=1000)
    args = parser.parse_args(argv)

    out_base = Path(args.out)
    out_base.mkdir(parents=True, exist_ok=True)
    dataset = out_base / "workload.csv"
    gen_dataset(str(dataset), accounts=args.accounts, txs=args.txs,
                skew=args.skew, seed=args.seed)
    top = top_active_accounts(load_dataset(str(dataset)), args.brokers)
    coverage = involvement_coverage(load_dataset(str(dataset)), set(top))
    print(f"workload: {args.txs} txs over {args.accounts} accounts "
          f"({args.skew}, seed {args.seed})")
    print(f"top-{args.brokers} accounts touch {coverage:.1%} of all rows\n")

    rows = []
    exit_code = 0
    for label, overrides in (
        ("relay", {}),
        ("broker", {"mechanism": "broker", "brokers": f"top:{args.brokers}"}),
    ):
        cfg_raw = base_config(args, dataset, out_base / label)
        cfg_raw.update(overrides)
        t0 = time.perf_counter()
        result = run(parse_config(cfg_raw))
        wall = time.perf_counter() - t0
        s = result.summary
        rows.append((label, s["ctx_ratio"], s["counters"]["Y"],
                     s["counters"]["W"], s["blocks_committed"],
                     s["last_commit_ms"], wall, result.exit_code))
        exit_code = max(exit_code, result.exit_code)

    print(f"{'mechanism':<10} {'ctx_ratio':>9} {'split':>7} {'rows':>7} "
          f"{'blocks':>7} {'drain_ms':>9} {'wall_s':>7} {'exit':>5}")
    for label, ctx, split, rows_w, blocks, drain, wall, code in rows:
        print(f"{label:<10} {ctx:>9.4f} {split:>7} {rows_w:>7} "
              f"{blocks:>7} {drain:>9} {wall:>7.1f} {code:>5}")

    relay_rows, broker_rows = rows[0][3], rows[1][3]
    if relay_rows:
        saved = (relay_rows - broker_rows) / relay_rows
        print(f"\nbrokered settlement committed {saved:.1%} fewer rows "
              f"for the same {args.txs} originals")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())

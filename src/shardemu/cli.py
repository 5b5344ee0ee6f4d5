"""Command-line entry points.

Exit codes: 0 success, 2 configuration or input problem (including a bad
dataset row, a damaged block file or a damaged ``summary.json``), 3
degraded run (stall or stop before drain).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .config import ConfigError, RunConfig, load_config
from .dataset import BadRow, DatasetReader, gen_dataset, parse_skew
from .harness import BadBlockFile, BadSummary, report_from_blocks, run
from .oracle import AnalyticInput, expected_metrics


def _load(path: str) -> RunConfig:
    """The config at ``path``, with its dataset, if it names one, checked to
    open: a run reads it only once it starts injecting."""
    cfg = load_config(path)
    if cfg.dataset_path is not None:
        try:
            open(cfg.dataset_path, "rb").close()
        except OSError as exc:
            raise ConfigError(f"cannot read dataset: {exc}") from exc
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    if cfg.output_dir is None:
        raise ConfigError("run needs output_dir in the config")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir: {exc}") from exc
    result = run(cfg)
    print(f"exit={result.exit_code} out_dir={result.out_dir}")
    for key, val in result.summary["counters"].items():
        print(f"  {key}={val}")
    return result.exit_code


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _load(args.config)
    if cfg.dataset_path is None:
        raise ConfigError("oracle needs dataset_path to size the workload")
    n_txs = len(DatasetReader(cfg.dataset_path, cfg.dataset_limit).read())
    if n_txs == 0:
        raise ConfigError("dataset is empty")
    exp = expected_metrics(
        AnalyticInput(
            theta=cfg.block_size,
            delta_s=cfg.block_interval_ms / 1000.0,
            n_shards=cfg.n_shards,
            n_txs=n_txs,
        )
    )
    print(json.dumps(exp.as_json(), indent=2, sort_keys=True))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        summary = report_from_blocks(args.run_dir)
    except OSError as exc:
        raise ConfigError(f"cannot rebuild reports in {args.run_dir}: {exc}") from exc
    print(json.dumps(summary["counters"], indent=2, sort_keys=True))
    print(f"recomputed reports in {args.run_dir}/recomputed")
    return 0


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    try:
        parse_skew(args.skew)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.accounts < 2 or args.txs < 1:
        raise ConfigError("need accounts >= 2 and txs >= 1")
    stats = gen_dataset(args.out, args.accounts, args.txs, args.skew, args.seed)
    print(
        f"wrote {stats['txs']} rows over {stats['accounts']} accounts to {args.out}"
    )
    print(f"top-10 coverage: {stats['top10_coverage']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardemu",
        description="Sharded-ledger consensus emulator with an analytic oracle.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="execute a configured emulation")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="print analytic expectations for a config")
    p_oracle.add_argument("--config", required=True)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_report = sub.add_parser("report", help="recompute metrics from stored blocks")
    p_report.add_argument("--run-dir", required=True)
    p_report.set_defaults(fn=_cmd_report)

    p_gen = sub.add_parser("gen-dataset", help="write a synthetic transfer dataset")
    p_gen.add_argument("--accounts", type=int, required=True)
    p_gen.add_argument("--txs", type=int, required=True)
    p_gen.add_argument("--skew", default="uniform", help="uniform or zipf:S")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen_dataset)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, BadRow, BadBlockFile, BadSummary) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Run a fixed set of schedule-sensitive configs and digest what they write.

A change that claims the same bytes out should print the same lines as its
parent. The configs are small runs whose message schedules exercise view
changes, forks, wall stops and CLPA migrations, where a change in what a
replica checks or applies would show:

- relay: 2 shards, 200 accounts and 2000 uniform transactions at seed 3,
  block size 50, block interval 100 ms, prefilled pools, drain plus a
  60000 ms wall stop, sim latency and view-change timeout as named;
- CLPA: 200 accounts and 1500 zipf:1.0 transactions at seed 3, block size
  50, block interval 100 ms, epoch 200 ms, live injection at 600 tx/s in
  50 ms batches, the same stop rule; the last one settles through brokers
  ``top:3`` instead of relays.

Each config prints one JSON line: its name, its exit code and five
SHA-256 digests, each over files by file name (``summary.json`` is left
out, since it echoes the run's paths):

- ``sha256``: the block files and the report CSVs;
- ``reports``: the report CSVs alone;
- ``chain``: each block line's ``(shard_id, height, hash, commit_time)``,
  what the run committed and when, which a change to how lines encode
  their transactions or accounts cannot move;
- ``schedule``: each block line without its commitment fields
  (``state_root``, ``parent_hash`` and ``hash``), keys sorted: every
  block's content, height and times, which a change to how the state or
  a block is hashed cannot move;
- ``recomputed``: the CSVs ``report_from_blocks`` rebuilds from the block
  files.

A change of the block-file layout alone keeps every digest but
``sha256``; a change of the state-tree layout keeps every digest but
``sha256`` and ``chain``. Several of these runs cannot finish and exit 3;
that is part of what is compared.

Usage:
    python scripts/same_bytes.py --out /tmp/same_bytes
    python scripts/same_bytes.py --out /tmp/same_bytes --only relay_50_s4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shardemu.config import parse_config
from shardemu.dataset import gen_dataset
from shardemu.harness import report_from_blocks, run

# Dataset name -> gen_dataset arguments.
DATASETS = {
    "uniform": dict(accounts=200, txs=2000, skew="uniform", seed=3),
    "zipf": dict(accounts=200, txs=1500, skew="zipf:1.0", seed=3),
}

_RELAY = dict(n_shards=2, partition="static", injection={"prefill": True})
_CLPA = dict(epoch_ms=200, partition="clpa",
             injection={"base_rate": 600, "batch_interval_ms": 50})

# Name -> (dataset, shards, sim latency, sim seed, view-change timeout or
# None for the default, overrides).
CONFIGS = {
    "relay_400_s0": ("uniform", 2, [1, 400], 0, 150, _RELAY),
    "relay_300_s3": ("uniform", 2, [1, 300], 3, 300, _RELAY),
    "relay_50_s4": ("uniform", 2, [1, 50], 4, 60, _RELAY),
    "clpa3_20_s2": ("zipf", 3, [1, 20], 2, None, _CLPA),
    "clpa2_5_s0": ("zipf", 2, [1, 5], 0, None, _CLPA),
    "clpa4_60_s1": ("zipf", 4, [1, 60], 1, None, _CLPA),
    "broker_clpa2_20_s5": ("zipf", 2, [1, 20], 5, None,
                           dict(_CLPA, mechanism="broker", brokers="top:3")),
}


def config(name: str, dataset: Path, out_dir: Path) -> dict:
    _, shards, latency, seed, timeout, over = CONFIGS[name]
    raw = {
        "n_shards": shards,
        "nodes_per_shard": 4,
        "block_size": 50,
        "block_interval_ms": 100,
        "mechanism": "relay",
        "transport": {"sim": {"latency_ms": latency, "seed": seed}},
        "stop": {"drain": True, "wall_ms": 60000},
        "dataset_path": str(dataset),
        "output_dir": str(out_dir),
        **over,
    }
    if timeout is not None:
        raw["pbft_view_change_timeout_ms"] = timeout
    return raw


def _is_block_file(name: str) -> bool:
    return name.startswith("blocks_shard") and name.endswith(".jsonl")


def digest_outputs(run_dir: Path, blocks: bool = True) -> str:
    """SHA-256 over the report CSVs, and the block files unless ``blocks``
    is false, each preceded by its name and length."""
    names = sorted(n for n in os.listdir(run_dir)
                   if n.endswith(".csv") or (blocks and _is_block_file(n)))
    h = hashlib.sha256()
    for name in names:
        data = (run_dir / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# The fields of a block line that commit to its state and its chain.
COMMITMENT = ("state_root", "parent_hash", "hash")


def _digest_lines(run_dir: Path, project) -> str:
    """SHA-256 over each block file's name and, line by line, ``project``
    of the line's object as JSON with sorted keys."""
    h = hashlib.sha256()
    for name in sorted(filter(_is_block_file, os.listdir(run_dir))):
        h.update(f"{name}\0".encode())
        with open(run_dir / name, encoding="utf-8") as fh:
            for line in fh:
                h.update(f"{json.dumps(project(json.loads(line)), sort_keys=True)}\n".encode())
    return h.hexdigest()


def digest_chain(run_dir: Path) -> str:
    """``_digest_lines`` over each line's ``[shard_id, height, hash,
    commit_time]``."""
    return _digest_lines(run_dir, lambda obj: [obj["shard_id"], obj["height"], obj["hash"],
                                                obj["commit_time"]])


def digest_schedule(run_dir: Path) -> str:
    """``_digest_lines`` over each line's object without the ``COMMITMENT``
    fields."""
    return _digest_lines(run_dir, lambda obj: {k: v for k, v in obj.items()
                                               if k not in COMMITMENT})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for datasets and run outputs")
    parser.add_argument("--only", nargs="+", choices=sorted(CONFIGS), default=list(CONFIGS),
                        help="configs to run, in the order given (default: all)")
    args = parser.parse_args(argv)
    # Withheld prepares and view changes log warnings by the hundred.
    logging.disable(logging.WARNING)

    out_base = Path(args.out)
    out_base.mkdir(parents=True, exist_ok=True)
    datasets: dict[str, Path] = {}
    for name in args.only:
        data = CONFIGS[name][0]
        if data not in datasets:
            datasets[data] = out_base / f"{data}.csv"
            gen_dataset(str(datasets[data]), **DATASETS[data])
        run_dir = out_base / name
        result = run(parse_config(config(name, datasets[data], run_dir)))
        report_from_blocks(str(run_dir))
        print(json.dumps({"config": name, "exit": result.exit_code,
                          "sha256": digest_outputs(run_dir),
                          "reports": digest_outputs(run_dir, blocks=False),
                          "chain": digest_chain(run_dir),
                          "schedule": digest_schedule(run_dir),
                          "recomputed": digest_outputs(run_dir / "recomputed")}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

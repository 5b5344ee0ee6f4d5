"""The benchmark's workloads: one dataset recipe and one run config each.

All three follow the desk protocol (4 nodes per shard, block size 200,
1000 ms block interval, drain stop) and differ in the layers they stress:

- ``relay_uniform_8`` has the largest state trees and pools, so the state
  root, block application and pool removal dominate. It is the only one
  the analytic oracle fully applies to.
- ``broker_zipf_crash_4`` has a small hot account set, mostly whole
  transactions, no relay traffic, a replica crash that forces PBFT view
  changes, and jittered delivery.
- ``clpa_rate_4`` is the only one that repartitions, migrates accounts and
  injects live at a fixed rate; pools stay short, so pool and state-root
  work should barely register here.

Sizes are smaller than the desk runs so that one benchmark run fits several
fresh-process repetitions; the account counts, which set the state-tree
sizes, are the desk ones.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Stress:
    """A share of traced ``run_s`` that the workload is meant to show: the
    summed self time of ``spans`` is at least ``at_least`` or below
    ``below``. Printed by traced runs; an optimisation may legitimately
    move it, so it is not a correctness check."""

    label: str
    spans: tuple[str, ...]
    at_least: float = 0.0
    below: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    accounts: int
    txs: int
    skew: str
    config: dict
    stresses: tuple[Stress, ...] = ()


_DESK = {
    "nodes_per_shard": 4,
    "block_size": 200,
    "block_interval_ms": 1000,
    "stop": {"drain": True},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="relay_uniform_8",
            accounts=8000,
            txs=12000,
            skew="uniform",
            config={
                **_DESK,
                "n_shards": 8,
                "mechanism": "relay",
                "partition": "static",
                "injection": {"prefill": True},
                "transport": {"sim": {"latency_ms": 5, "seed": 0}},
            },
            stresses=(
                Stress(
                    "state root, block application and pool removal",
                    ("core.compute_state_root", "core.apply_txs", "txpool.remove_committed"),
                    at_least=0.35,
                ),
            ),
        ),
        Workload(
            name="broker_zipf_crash_4",
            accounts=1000,
            txs=40000,
            skew="zipf:1.2",
            config={
                **_DESK,
                "n_shards": 4,
                "mechanism": "broker",
                "brokers": "top:10",
                "partition": "static",
                "injection": {"prefill": True},
                "transport": {"sim": {"latency_ms": [1, 20], "seed": 0}},
                "pbft_view_change_timeout_ms": 4000,
                "faults": [{"kind": "crash", "node": "0.0", "at_ms": 5000}],
            },
        ),
        Workload(
            name="clpa_rate_4",
            accounts=800,
            txs=10000,
            skew="zipf:1.0",
            config={
                **_DESK,
                "n_shards": 4,
                "mechanism": "relay",
                "partition": "clpa",
                "epoch_ms": 500,
                "injection": {"base_rate": 1500, "batch_interval_ms": 250},
                "transport": {"sim": {"latency_ms": 5, "seed": 0}},
            },
            stresses=(
                Stress(
                    "migration path",
                    ("mechanisms.evict_misplaced", "core.replace_tx_list",
                     "txpool.extract_for_migration", "mechanisms.migration_on_commit"),
                    at_least=0.35,
                ),
                Stress("state root", ("core.compute_state_root",), below=0.10),
            ),
        ),
    )
}


def run_config(workload: Workload, dataset_path: str, output_dir: str) -> dict:
    """The JSON config the emulator receives for one repetition."""
    return {**workload.config, "dataset_path": dataset_path, "output_dir": output_dir}

"""End-to-end acceptance gate.

One test per published criterion, so ``pytest -v`` prints exactly one pass
or fail line for each. Most criteria share the desk-scale protocol: 2, 4,
and 8 shards of four nodes each, block capacity 200, a one-second virtual
block interval, a prefilled uniform workload of ten thousand transactions
per shard, relay settlement over a static partition, FIFO pools, and the
deterministic simulated transport. The heavier runs live in module-scoped
fixtures so several criteria can read the same results.

Printed measurements surface in pytest output on failure; tolerances are
asserted, never tuned to the run at hand.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time

import pytest

from helpers import clpa_objective, cut_weight
from shardemu.config import ClpaConfig, parse_config
from shardemu.core import (
    PartitionMap,
    StateTree,
    address_to_shard,
    apply_txs,
    block_from_json,
    compute_state_root,
    tx_local_to_shard,
)
from shardemu.dataset import (
    gen_dataset,
    involvement_coverage,
    load_dataset,
    synthetic_addresses,
    top_active_accounts,
)
from shardemu.harness import Emulation, run
from shardemu.mechanisms import AccountGraph, clpa_partition

THETA = 200  # block capacity at desk scale
DELTA_MS = 1000  # virtual block interval at desk scale


def _desk_raw(n_shards, dataset, out_dir, **over) -> dict:
    raw = {
        "n_shards": n_shards,
        "nodes_per_shard": 4,
        "block_size": THETA,
        "block_interval_ms": DELTA_MS,
        "epoch_ms": 5000,
        "mechanism": "relay",
        "partition": "static",
        "injection": {"prefill": True},
        "transport": {"sim": {"latency_ms": 5, "seed": 0}},
        "stop": {"drain": True},
        "dataset_path": str(dataset),
        "output_dir": str(out_dir),
    }
    raw.update(over)
    return raw


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def desk_runs(work):
    """The three desk-scale runs, keyed by shard count.

    Values are (result, run_dir, wall_seconds). The 8-shard run uses a
    larger account universe: suffix placement spreads a uniform workload
    with relative shard imbalance around sqrt(shards / accounts), and the
    settle-rate and latency tolerances assume a near-even prefill.
    """
    out = {}
    for n in (2, 4, 8):
        accounts = 8000 if n == 8 else 2000
        dataset = work / f"uniform_{n}.csv"
        gen_dataset(str(dataset), accounts=accounts, txs=10_000 * n,
                    skew="uniform", seed=11)
        run_dir = work / f"desk_{n}"
        cfg = parse_config(_desk_raw(n, dataset, run_dir))
        t0 = time.perf_counter()
        result = run(cfg)
        out[n] = (result, run_dir, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def broker_run(work):
    """Brokered settlement over a skewed workload, with a pre-execution
    scan of every queued transaction's locality."""
    dataset = work / "zipf_broker.csv"
    gen_dataset(str(dataset), accounts=1000, txs=40_000, skew="zipf:1.2", seed=5)
    top = top_active_accounts(load_dataset(str(dataset)), 10)
    coverage = involvement_coverage(load_dataset(str(dataset)), set(top))
    run_dir = work / "broker"
    cfg = parse_config(_desk_raw(4, dataset, run_dir,
                                 mechanism="broker", brokers="top:10"))
    emu = Emulation(cfg)
    emu.setup()
    pool_rows = 0
    nonlocal_rows = 0
    for rep in emu.replicas.values():
        for tx in rep.pool.snapshot():
            pool_rows += 1
            if not tx_local_to_shard(tx, rep.shard_id, rep.pmap):
                nonlocal_rows += 1
    result = emu.execute()
    return {
        "result": result,
        "run_dir": run_dir,
        "coverage": coverage,
        "pool_rows": pool_rows,
        "nonlocal_rows": nonlocal_rows,
    }


@pytest.fixture(scope="module")
def clpa_run(work):
    """Relay settlement with live repartitioning under rate injection."""
    dataset = work / "zipf_clpa.csv"
    gen_dataset(str(dataset), accounts=800, txs=20_000, skew="zipf:1.0", seed=3)
    run_dir = work / "clpa"
    cfg = parse_config(_desk_raw(
        4, dataset, run_dir,
        partition="clpa",
        epoch_ms=500,
        injection={"base_rate": 1500.0, "batch_interval_ms": 250},
    ))
    return run(cfg), run_dir


@pytest.fixture(scope="module")
def fault_runs(work):
    """A forged-root proposer run and a crashed-leader run, both at two
    shards with a four-second view-change timeout."""
    dataset = work / "uniform_fault.csv"
    gen_dataset(str(dataset), accounts=400, txs=6000, skew="uniform", seed=2)
    out = {}
    for name, fault in (
        ("invalid", {"kind": "invalid_block", "node": "0.0", "height": 3}),
        ("crash", {"kind": "crash", "node": "0.0", "at_ms": 5000}),
    ):
        run_dir = work / f"fault_{name}"
        cfg = parse_config(_desk_raw(
            2, dataset, run_dir,
            faults=[fault],
            pbft_view_change_timeout_ms=4000,
        ))
        out[name] = (run(cfg), run_dir)
    return out


def _included_by_regime(oracle: dict) -> dict[str, int]:
    counts = {"intake": 0, "settle": 0}
    for row in oracle["epochs"]:
        if row["included"]:
            counts[row["label"]] += 1
    return counts


def test_criterion_01_epoch_tps_tracks_analytics(desk_runs):
    for n, (result, _run_dir, wall_s) in sorted(desk_runs.items()):
        assert result.exit_code == 0, (n, result.summary["notes"])
        assert wall_s < 120.0, (n, wall_s)
        oracle = result.summary["oracle"]
        assert "skipped" not in oracle, (n, oracle)
        included = _included_by_regime(oracle)
        worst = oracle["max_pct_distance"]
        for regime in ("intake", "settle"):
            assert included[regime] >= 1, (n, regime, oracle["epochs"])
            assert worst[regime] < 5.0, (n, regime, worst)
        t3_ms = oracle["expected"]["drain_deadline_s"] * 1000.0
        last = result.summary["phases"]["last_commit_ms"]
        assert 0.9 * t3_ms <= last <= 1.1 * t3_ms, (n, last, t3_ms)
        print(
            f"shards={n}: intake worst {worst['intake']:.2f}% "
            f"({included['intake']} epochs), settle worst "
            f"{worst['settle']:.2f}% ({included['settle']} epochs), "
            f"drained at {last} ms vs deadline {t3_ms:.0f} ms, "
            f"wall {wall_s:.1f} s"
        )


def test_criterion_02_conservation_identities_exact(desk_runs, broker_run, clpa_run):
    summaries = [(f"desk_{n}", res.summary) for n, (res, _, _) in desk_runs.items()]
    summaries.append(("broker", broker_run["result"].summary))
    summaries.append(("clpa", clpa_run[0].summary))
    for name, summary in summaries:
        c = summary["counters"]
        assert c["Z"] + c["Y"] == c["X"], (name, c)
        assert c["Z"] + 2 * c["Y"] == c["W"], (name, c)
        assert c["Y"] == c["U"] == c["V"], (name, c)
        assert summary["unconfirmed"] == 0, (name, summary["unconfirmed"])
        print(f"{name}: {c}")


def test_criterion_03_confirmation_latency_uniform_per_phase(desk_runs):
    result, _, _ = desk_runs[8]
    tcl = result.summary["oracle"]["tcl"]
    for family in ("whole", "split"):
        info = tcl[family]
        assert info["n"] >= 5000, (family, info)
        assert info["ks_d"] < 0.05, (family, info)
        assert info["mean_pct_distance"] < 3.0, (family, info)
        print(
            f"{family}: n={info['n']}, KS D={info['ks_d']:.4f}, "
            f"mean {info['mean_s']:.2f} s vs midpoint {info['midpoint_s']:.2f} s "
            f"({info['mean_pct_distance']:.2f}%)"
        )


def test_criterion_04_cross_shard_share_matches_uniform_mixing(desk_runs):
    result, _, _ = desk_runs[4]
    assert result.summary["counters"]["X"] >= 10_000
    ratio = result.summary["ctx_ratio"]
    print(f"ctx ratio {ratio:.4f}, expected 0.75 +/- 0.02")
    assert abs(ratio - 0.75) <= 0.02


def test_criterion_05_brokered_settlement_localizes_hot_accounts(broker_run):
    assert broker_run["coverage"] >= 0.80, broker_run["coverage"]
    assert broker_run["pool_rows"] > 0
    assert broker_run["nonlocal_rows"] == 0, (
        broker_run["nonlocal_rows"], broker_run["pool_rows"])
    result = broker_run["result"]
    assert result.exit_code == 0, result.summary["notes"]
    ratio = result.summary["ctx_ratio"]
    bound = 0.2 * (3 / 4) + 0.02
    print(
        f"top-10 coverage {broker_run['coverage']:.4f}, "
        f"{broker_run['pool_rows']} queued txs all locally executable, "
        f"ctx ratio {ratio:.4f} <= {bound}"
    )
    assert ratio <= bound


def test_criterion_06_label_propagation_matches_brute_force():
    rng = random.Random(0xC6)
    params = ClpaConfig(beta=0.5, rho=100)
    checked = 0
    for case in range(60):
        n_shards = 3 if case % 3 == 2 else 2
        nv = rng.randint(2, 8)
        addrs = sorted(synthetic_addresses(nv, seed=1000 + case))
        edges = set()
        for i in range(1, nv):  # spanning tree keeps the graph connected
            j = rng.randrange(i)
            edges.add((j, i))
        for i in range(nv):
            for j in range(i + 1, nv):
                if (i, j) not in edges and rng.random() < 0.3:
                    edges.add((i, j))
        graph = AccountGraph()
        for i, j in sorted(edges):
            graph.add_edge(addrs[i], addrs[j], 1)

        pmap = PartitionMap(n_shards=n_shards)
        initial = {v: address_to_shard(v, pmap) for v in addrs}
        new_map, dirty = clpa_partition(graph, pmap, params)
        final = {v: address_to_shard(v, new_map) for v in addrs}
        assert dirty == {v: s for v, s in final.items() if s != initial[v]}

        got_obj = clpa_objective(graph, final, params.beta, n_shards)
        got_cut = cut_weight(graph, final)
        best_obj = -math.inf
        best_balanced_cut = None
        for combo in itertools.product(range(n_shards), repeat=nv):
            labels = dict(zip(addrs, combo))
            best_obj = max(best_obj,
                           clpa_objective(graph, labels, params.beta, n_shards))
            counts = [combo.count(k) for k in range(n_shards)]
            if max(counts) - min(counts) <= 1:
                cut = cut_weight(graph, labels)
                if best_balanced_cut is None or cut < best_balanced_cut:
                    best_balanced_cut = cut
        optimal = math.isclose(got_obj, best_obj, rel_tol=1e-9, abs_tol=1e-9)
        assert optimal or got_cut <= best_balanced_cut, (
            case, n_shards, nv, got_obj, best_obj, got_cut, best_balanced_cut)
        checked += 1
    assert checked >= 50
    print(f"{checked} random connected graphs checked against brute force")


def _assert_replicas_agree(result, run_name, skip_nodes=()):
    logs = result.root_logs()
    shards = {rep.shard_id for rep in result.replicas.values()}
    for shard in sorted(shards):
        group = [logs[nid] for nid in sorted(logs)
                 if nid.startswith(f"{shard}.") and nid not in skip_nodes]
        assert len(group) >= 3, (run_name, shard)
        for log in group[1:]:
            assert log == group[0], (run_name, shard)


def test_criterion_07_replication_holds_and_forged_roots_never_commit(
        desk_runs, broker_run, clpa_run, fault_runs):
    for n, (result, _, _) in desk_runs.items():
        _assert_replicas_agree(result, f"desk_{n}")
    _assert_replicas_agree(broker_run["result"], "broker")
    _assert_replicas_agree(clpa_run[0], "clpa")

    # Forged-root proposer: its proposal dies without quorum, a view change
    # installs an honest leader, and the forger itself follows the honest
    # chain thereafter, so every log in the shard still matches.
    result, run_dir = fault_runs["invalid"]
    assert result.exit_code == 0, result.summary["notes"]
    _assert_replicas_agree(result, "invalid")
    assert max(rep.view for rep in result.shard_replicas(0)) >= 1

    # Replaying the published shard-0 chain from an empty state reproduces
    # every stored root, so the forged root is in no committed block.
    state = StateTree()
    replayed = []
    with open(run_dir / "blocks_shard0.jsonl", encoding="utf-8") as fh:
        blocks = [block_from_json(json.loads(line)) for line in fh]
    assert [b.height for b in blocks] == list(range(1, len(blocks) + 1))
    for block in blocks:
        state = apply_txs(state, block.txs)
        replayed.append((block.height, compute_state_root(state)))
        assert block.state_root == replayed[-1][1], block.height
    heights = [h for h, _ in replayed]
    assert 3 in heights, "the attacked height still committed an honest block"

    # Crashed leader: survivors agree; the dead node holds a strict prefix.
    result, _ = fault_runs["crash"]
    _assert_replicas_agree(result, "crash", skip_nodes={"0.0"})
    logs = result.root_logs()
    survivor = logs["0.1"]
    assert logs["0.0"] == survivor[: len(logs["0.0"])]
    assert len(logs["0.0"]) < len(survivor)
    print("all shards replicated identically across every acceptance run")


def test_criterion_08_view_change_restores_liveness_in_time(fault_runs):
    result, _ = fault_runs["crash"]
    assert result.exit_code == 0, result.summary["notes"]
    vc_timeout = 4000
    crash_at = 5000
    survivor = result.replicas["0.1"].root_log
    after = [t for _h, _root, t in survivor if t > crash_at]
    assert after, "shard 0 never committed again after the crash"
    deadline = crash_at + 2 * vc_timeout + DELTA_MS
    print(f"first shard-0 commit after the crash at {min(after)} ms "
          f"(deadline {deadline} ms)")
    assert min(after) <= deadline


def test_criterion_09_migrations_keep_each_account_in_one_shard(clpa_run):
    result, _ = clpa_run
    assert result.exit_code == 0, result.summary["notes"]
    assert result.supervisor.reconfig_count >= 2
    assert result.summary["unconfirmed"] == 0
    c = result.summary["counters"]
    assert c["Z"] + c["Y"] == c["X"], c

    versions = {rep.pmap.version for rep in result.replicas.values()}
    assert len(versions) == 1, "some shard never adopted the final map"

    owned = []
    for shard in range(4):
        rep = result.shard_replicas(shard)[0]
        owned.append(set(rep.state.entries))
    for a, b in itertools.combinations(range(4), 2):
        dup = owned[a] & owned[b]
        assert not dup, (a, b, len(dup))
    pmap = result.shard_replicas(0)[0].pmap
    for shard, accounts in enumerate(owned):
        for acct in accounts:
            assert address_to_shard(acct, pmap) == shard
    print(
        f"{result.supervisor.reconfig_count} reconfigurations, "
        f"{sum(len(s) for s in owned)} account states, zero duplicates, "
        f"placement agrees with map version {versions.pop()}"
    )


def test_criterion_10_identical_seeds_identical_bytes(desk_runs, work):
    _, first_dir, _ = desk_runs[2]
    repeat_dir = work / "desk_2_repeat"
    cfg = parse_config(_desk_raw(2, work / "uniform_2.csv", repeat_dir))
    result = run(cfg)
    assert result.exit_code == 0
    for name in (
        "tps_epochs.csv", "tcl.csv", "workload.csv",
        "pool_size.csv", "blocks_shard0.jsonl", "blocks_shard1.jsonl",
    ):
        first = (first_dir / name).read_bytes()
        again = (repeat_dir / name).read_bytes()
        assert first == again, f"{name} differs between identical runs"
    print("both runs produced byte-identical reports and block files")

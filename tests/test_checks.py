"""The final-state check: replicas' account states against a fold of the
dataset alone, on drained relay, broker and CLPA runs and on a corrupted
state."""

import pytest

from helpers import cfg_dict
from shardemu.checks import final_state_problems
from shardemu.config import parse_config
from shardemu.core import AccountState, StateTree
from shardemu.dataset import gen_dataset, load_dataset
from shardemu.harness import run


def _problems(result, cfg, replicas=None):
    rows = load_dataset(cfg.dataset_path, cfg.dataset_limit)
    replicas = result.replicas.values() if replicas is None else replicas
    return final_state_problems(rows, replicas, result.supervisor.pmap.brokers)


@pytest.fixture(scope="module")
def uniform(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "uniform.csv"
    gen_dataset(str(path), accounts=200, txs=2000, skew="uniform", seed=3)
    return str(path)


@pytest.fixture(scope="module")
def relay_run(uniform):
    cfg = parse_config(cfg_dict(dataset_path=uniform, block_size=50))
    return run(cfg), cfg


def test_relay_run_ends_in_the_dataset_fold(relay_run):
    result, cfg = relay_run
    assert result.exit_code == 0 and result.summary["counters"]["Y"] > 0
    assert _problems(result, cfg) == []


def test_broker_run_sums_brokers_over_shards_and_skips_a_crashed_replica(uniform):
    cfg = parse_config(cfg_dict(dataset_path=uniform, block_size=50, mechanism="broker",
                                brokers="top:4",
                                faults=[{"kind": "crash", "node": "0.0", "at_ms": 300}]))
    result = run(cfg)
    assert result.exit_code == 0
    brokers = result.supervisor.pmap.brokers
    assert len(brokers) == 4
    held = [b for b in brokers if all(b in r.state.entries for r in
                                      (result.replicas["0.1"], result.replicas["1.0"]))]
    assert held, "a broker that both shards hold shows the summing"
    assert _problems(result, cfg) == []
    crashed = [result.replicas["0.0"], result.replicas["1.0"]]
    assert crashed[0].head.height < result.replicas["0.1"].head.height
    assert _problems(result, cfg, crashed), "the crashed replica's state is stale"


def test_clpa_run_ends_in_the_dataset_fold_after_migrations(tmp_path):
    dataset = tmp_path / "zipf.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    cfg = parse_config(cfg_dict(
        dataset_path=str(dataset), block_size=50, block_interval_ms=100, epoch_ms=200,
        partition="clpa", injection={"base_rate": 600, "batch_interval_ms": 50},
    ))
    result = run(cfg)
    assert result.exit_code == 0
    assert result.supervisor.pmap.version > 1, "the run must migrate accounts"
    assert _problems(result, cfg) == []


def test_a_corrupted_or_duplicated_account_is_named(relay_run):
    result, cfg = relay_run
    good = [result.replicas["0.0"], result.replicas["1.0"]]
    entries = dict(good[0].state.entries)
    addr, acct = next(iter(entries.items()))
    other = next(a for a in good[1].state.entries if a != addr)
    entries[addr] = AccountState(addr, acct.balance + 1, acct.nonce)
    entries[other] = AccountState(other)  # sums stay right; two shards hold it

    class Stand:
        def __init__(self, replica, state):
            self.shard_id, self.head, self.state = replica.shard_id, replica.head, state

    problems = _problems(result, cfg, [Stand(good[0], StateTree(entries)), good[1]])
    named = {
        addr: f"account {addr.hex()}: balance {acct.balance + 1} nonce {acct.nonce} in shards "
              f"[0], the dataset gives balance {acct.balance} nonce {acct.nonce}",
        other: f"account {other.hex()}: held by shards [0, 1], not by one",
    }
    assert problems == [named[a] for a in sorted(named)]

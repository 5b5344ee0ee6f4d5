"""Supervisor: injection routing, epoch control, stop rules, finalize."""

import itertools
import json

import pytest

from helpers import (
    addr,
    broker_pair,
    build_cfg,
    committed_block,
    crosses,
    exec_home_shard,
    hashed_tx,
)
from shardemu.core import (
    BlockKind,
    PartitionMap,
    TxKind,
    make_transaction,
    tx_digest,
)
from shardemu.dataset import (
    BadRow,
    DatasetReader,
    DatasetRow,
    RowBatch,
    busiest_accounts,
    gen_dataset,
    load_dataset,
)
from shardemu.harness import build_nodes
from shardemu.metrics import MetricsLedger
from shardemu.supervisor import QUIET_INTERVALS, PendingMigration, Supervisor
from shardemu.transport import BlockInfo, Envelope

A0 = addr("sup-a0", shard=0)
B0 = addr("sup-b0", shard=0)
A1 = addr("sup-a1", shard=1)
B1 = addr("sup-b1", shard=1)


class StubNet:
    def __init__(self):
        self.shard_casts = []
        self.all_casts = []
        self.timers = []

    def register(self, nid, node, shard=None):
        pass

    def broadcast_shard(self, shard, env, include_self=False):
        self.shard_casts.append((shard, env))

    def broadcast_all(self, env):
        self.all_casts.append(env)

    def schedule(self, nid, at, tag, data=None):
        self.timers.append((at, tag))

    def tags(self):
        return [tag for _, tag in self.timers]


class RowSource:
    """The given rows, handed out as a ``DatasetReader`` hands out a file's:
    ``read(n)`` gives the next ``n`` as a ``RowBatch``, every row left when
    ``n`` is None."""

    def __init__(self, rows):
        self.rows = list(rows)

    def read(self, n=None):
        n = len(self.rows) if n is None else n
        taken, self.rows = self.rows[:n], self.rows[n:]
        return RowBatch.of(taken)


def make_sup(rows=(), **over):
    cfg = build_cfg(**over)
    pmap = PartitionMap(n_shards=cfg.n_shards, brokers=frozenset(cfg.brokers))
    net = StubNet()
    return Supervisor(cfg, pmap, net, RowSource(rows)), net


def prefill(sup):
    """``build_nodes``' prefill: every row read in one call, then stamped."""
    return sup.prepare_prefill(sup.rows.read())


def info(shard, height, commit_ms, txs=(), pool=0, kind=BlockKind.TX, version=0):
    block = committed_block(shard, height, txs, kind)
    return Envelope("block_info", f"{shard}.0", BlockInfo(block, commit_ms, pool, version))


# --- injection routing ---


def test_stamp_rows_relay_routing():
    sup, _ = make_sup()
    per_shard = sup.stamp_rows(RowBatch.of([
        DatasetRow(A0, B0, 5, 0),   # local to shard 0
        DatasetRow(A0, B1, 6, 1),   # cross: original stays at the payer
        DatasetRow(A1, B1, 7, 0),   # local to shard 1
    ]), now=40)
    assert [tx.kind for tx in per_shard[0]] == [TxKind.REGULAR, TxKind.ORIGINAL_CTX]
    assert [tx.kind for tx in per_shard[1]] == [TxKind.REGULAR]
    assert all(tx.inject_time == 40 for txs in per_shard.values() for tx in txs)
    assert sup.ledger.x == 3
    assert sup.ledger.ctx_injected == 1


def test_stamp_rows_broker_routing():
    broker = addr("sup-broker", shard=0)
    sup, _ = make_sup(mechanism="broker", brokers=[broker.hex()])
    per_shard = sup.stamp_rows(RowBatch.of([
        DatasetRow(A0, B1, 5, 0),       # cross: bridged into two halves
        DatasetRow(broker, B1, 6, 0),   # broker pays: executes at the payee
        DatasetRow(A0, broker, 7, 0),   # pays the broker: stays at the payer
    ]), now=0)
    kinds0 = [tx.kind for tx in per_shard[0]]
    kinds1 = [tx.kind for tx in per_shard[1]]
    assert kinds0 == [TxKind.BROKER_PAYER_HALF, TxKind.REGULAR]
    assert kinds1 == [TxKind.BROKER_PAYEE_HALF, TxKind.REGULAR]
    halves0 = per_shard[0][0]
    halves1 = per_shard[1][0]
    assert halves0.origin_hash == halves1.origin_hash
    assert halves0.payee == broker and halves1.payer == broker
    assert sup.ledger.x == 3 and sup.ledger.ctx_injected == 1


def _reference_stamp(rows, pmap, brokered, now):
    """Stamping by the reference definitions, one row at a time: the kind
    from ``crosses``, the original from ``make_transaction``, one
    ``record_injection`` per row, the halves from ``broker_pair`` through
    the lowest broker, and each result queued at its ``exec_home_shard``
    (the per-transaction oracles in ``helpers``)."""
    per_shard = {}
    ledger = MetricsLedger(pmap.n_shards, 500)
    for row in rows:
        cross = crosses(row.payer, row.payee, pmap)
        kind = TxKind.ORIGINAL_CTX if cross else TxKind.REGULAR
        original = make_transaction(row.payer, row.payee, row.value, row.nonce, kind, None, now)
        ledger.record_injection(original.hash, original.kind, row.payer, row.payee, now)
        routed = broker_pair(original, min(pmap.brokers)) if cross and brokered else (original,)
        for tx in routed:
            per_shard.setdefault(exec_home_shard(tx, pmap), []).append(tx)
    return per_shard, ledger


@pytest.mark.parametrize("mechanism", ["relay", "broker"])
def test_stamp_rows_routes_every_tx_to_its_exec_home(mechanism):
    brokers = [addr("sup-broker", shard=0), addr("sup-broker2", shard=1)]
    accounts = [A0, B0, A1, B1]
    over = {}
    if mechanism == "broker":
        # Brokers as payers and as payees, of each other too.
        accounts += brokers
        over = {"mechanism": "broker", "brokers": [b.hex() for b in brokers]}
    sup, _ = make_sup(**over)
    rows = [
        DatasetRow(p, q, i + 1, i)
        for i, (p, q) in enumerate(itertools.permutations(accounts, 2))
    ]
    # A repeated row: its original is queued twice and recorded once.
    rows.append(rows[1])
    per_shard = sup.stamp_rows(RowBatch.of(rows), now=40)

    want, ledger = _reference_stamp(rows, sup.pmap, mechanism == "broker", now=40)
    assert per_shard == want
    for shard, txs in per_shard.items():
        assert [exec_home_shard(tx, sup.pmap) for tx in txs] == [shard] * len(txs)
        for tx in txs:
            assert tx.hash == tx_digest(tx.payer, tx.payee, tx.value, tx.nonce, tx.kind,
                                        tx.origin_hash)
            assert tx.inject_time == 40
    assert list(sup.ledger.originals.items()) == list(ledger.originals.items())
    assert sup.ledger.ctx_injected == ledger.ctx_injected > 0
    assert sup.ledger.x == len(rows) - 1


@pytest.mark.parametrize("brokers", [None, "top:2"])
def test_stamp_rows_routes_every_read_row_to_its_exec_home(tmp_path, brokers):
    """The check above over rows ``DatasetReader`` reads from a file, with
    blank lines, a repeated line (its payer's next nonce, so a second
    original) and a ``dataset_limit`` that stops the read before a
    malformed line. Under ``top:2`` the brokers are the run's own ranking."""
    accounts = [A0, B0, A1, B1, addr("sup-broker", shard=0), addr("sup-broker2", shard=1)]
    lines = [f"{p.hex()},{q.hex()},{i + 1}"
             for i, (p, q) in enumerate(itertools.permutations(accounts, 2))]
    lines.append(lines[1])
    limit = len(lines)
    lines[3:3] = ["", "  "]
    lines += [f"{A0.hex()},{B0.hex()},1", "not a row"]
    path = tmp_path / "rows.csv"
    path.write_text("from,to,value\n" + "\n".join(lines) + "\n")
    over = {"dataset_path": str(path), "dataset_limit": limit}
    if brokers:
        over |= {"mechanism": "broker", "brokers": brokers}
    cfg = build_cfg(**over)
    rows = DatasetReader(cfg.dataset_path, cfg.dataset_limit).read()
    reference_rows = list(load_dataset(cfg.dataset_path, cfg.dataset_limit))
    assert list(rows) == reference_rows and len(rows) == limit

    chosen = busiest_accounts(rows.payers, rows.payees, 2) if brokers else []
    built, _ = build_nodes(cfg, StubNet())
    assert built.pmap.brokers == frozenset(chosen)
    assert built.ledger.x == limit
    pmap = PartitionMap(n_shards=cfg.n_shards, brokers=frozenset(chosen))
    sup = Supervisor(cfg, pmap, StubNet(), DatasetReader(cfg.dataset_path))
    per_shard = sup.stamp_rows(rows, now=40)

    want, ledger = _reference_stamp(reference_rows, pmap, bool(brokers), now=40)
    assert per_shard == want
    assert list(sup.ledger.originals.items()) == list(ledger.originals.items())
    assert sup.ledger.ctx_injected == ledger.ctx_injected > 0


def test_each_tick_reads_the_next_rows_of_the_dataset(tmp_path):
    """A live run parses each tick's rows when the tick comes: every batch
    is the next rows of ``load_dataset``, and a malformed line stops the
    tick that reaches it, not set-up or an earlier tick."""
    path = tmp_path / "live.csv"
    gen_dataset(str(path), accounts=20, txs=50, skew="uniform", seed=3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("broken\n")
    want = list(load_dataset(str(path), limit=50))
    cfg = build_cfg(dataset_path=str(path), epoch_ms=10_000,
                    injection={"base_rate": 30, "batch_interval_ms": 250})
    sup, replicas = build_nodes(cfg, StubNet())
    assert sup.ledger.x == 0 and all(len(r.pool) == 0 for r in replicas.values())
    batches = []
    stamp = sup.stamp_rows
    sup.stamp_rows = lambda rows, now: (batches.append(list(rows)), stamp(rows, now))[1]
    taken = 0
    for tick in range(6):  # 7.5 rows a tick: 7, 8, 7, 8, 7, 8
        sup.on_timer("inject", None, 250 * tick)
        assert batches[-1] == want[taken:taken + len(batches[-1])]
        taken += len(batches[-1])
    assert [len(b) for b in batches] == [7, 8, 7, 8, 7, 8]
    assert sup.ledger.x == taken == 45
    with pytest.raises(BadRow) as err:
        sup.on_timer("inject", None, 1500)
    assert err.value.line_no == 52


@pytest.mark.parametrize("row", [
    DatasetRow(A0[:19], B0, 1, 0),
    DatasetRow(A0, B1[:19], 1, 0),
    DatasetRow(A0, B1, 1 << 128, 0),
    DatasetRow(A0, B0, -1, 0),
], ids=["short-payer", "short-payee", "value-2**128", "negative-value"])
def test_stamp_rows_refuses_what_make_transaction_refuses(row):
    with pytest.raises(ValueError) as reference:
        make_transaction(row.payer, row.payee, row.value, row.nonce)
    sup, _ = make_sup()
    with pytest.raises(ValueError) as got:
        sup.stamp_rows(RowBatch.of([DatasetRow(A0, B0, 1, 0), row]), now=0)
    assert str(got.value) == str(reference.value)


def test_prepare_prefill_seeds_pool_samples():
    rows = [DatasetRow(A0, B0, 1, i) for i in range(3)] + [DatasetRow(A1, B1, 1, 0)]
    sup, _ = make_sup(rows)
    per_shard = prefill(sup)
    assert sup.injection_done
    assert len(per_shard[0]) == 3 and len(per_shard[1]) == 1
    assert sup.est_pool == {0: 3, 1: 1}
    assert sup.ledger.pool_samples[(0, 0)] == 3
    assert sup.ledger.pool_samples[(0, 1)] == 1


def test_inject_tick_fractional_carry():
    rows = [DatasetRow(A0, B0, 1, i) for i in range(10)]
    sup, net = make_sup(
        rows, injection={"base_rate": 3, "batch_interval_ms": 250}, epoch_ms=10_000
    )
    for t in (0, 250, 500, 750):
        sup.on_timer("inject", None, t)
    # 3 tx/s at 250ms batches is 0.75 per tick; the carry makes it exact
    assert sup.ledger.x == 3
    assert not sup.injection_done
    assert net.tags().count("inject") == 4, "each tick re-arms the next"


def test_inject_tick_ramp_raises_rate_per_epoch():
    rows = [DatasetRow(A0, B0, 1, i) for i in range(1000)]
    sup, _ = make_sup(
        rows,
        injection={"base_rate": 4, "ramp": 4, "batch_interval_ms": 250},
        epoch_ms=500,
    )
    sup.on_timer("inject", None, 0)     # epoch 0: 1 per tick
    assert sup.ledger.x == 1
    sup.on_timer("inject", None, 500)   # epoch 1: rate doubles
    assert sup.ledger.x == 3


def test_inject_tick_exhaustion_stops_rearming():
    rows = [DatasetRow(A0, B0, 1, 0), DatasetRow(A0, B0, 1, 1)]
    sup, net = make_sup(rows, injection={"base_rate": 100, "batch_interval_ms": 250})
    sup.on_timer("inject", None, 0)
    assert sup.injection_done
    assert sup.ledger.x == 2
    assert net.tags().count("inject") == 0


# --- observation ---


def test_block_info_updates_pool_estimate_once():
    sup, _ = make_sup()
    tx_rows = sup.stamp_rows(RowBatch.of([DatasetRow(A0, B0, 5, 0)]), now=0)
    (tx,) = tx_rows[0]
    sup.on_envelope(info(0, 1, 120, [tx], pool=7), 120)
    assert sup.est_pool[0] == 7
    # the same height reported by another replica changes nothing
    sup.on_envelope(info(0, 1, 125, [tx], pool=3), 125)
    assert sup.est_pool[0] == 7
    assert sup.ledger.z == 1
    with pytest.raises(ValueError):
        sup.on_envelope(Envelope("stop", "0.0", None), 130)


def test_fold_counts_each_original_once():
    sup, _ = make_sup(partition="clpa")
    stamped = sup.stamp_rows(RowBatch.of([
        DatasetRow(A0, B0, 5, 0),
        DatasetRow(A0, B1, 6, 1),
    ]), now=0)
    local = stamped[0][0]
    original = stamped[0][1]
    sup.on_envelope(info(0, 1, 100, [
        local,
        hashed_tx(b"\x01" * 32, TxKind.INTRA_RELAY, original.hash),
    ]), 100)
    assert sup.graph.edge_count == 2
    before = sup.graph.adj[A0][B1]
    # the credit half of the same original must not add a second edge
    sup.on_envelope(info(1, 1, 200, [
        hashed_tx(b"\x02" * 32, TxKind.INTER_RELAY, original.hash),
    ]), 200)
    assert sup.graph.adj[A0][B1] == before
    # transactions with no matching original are ignored
    sup.on_envelope(info(0, 2, 300, [
        hashed_tx(b"\x03" * 32, TxKind.REGULAR, None),
    ]), 300)
    assert sup.graph.edge_count == 2


def test_static_partition_never_folds():
    sup, _ = make_sup()
    stamped = sup.stamp_rows(RowBatch.of([DatasetRow(A0, B0, 5, 0)]), now=0)
    sup.on_envelope(info(0, 1, 100, [stamped[0][0]]), 100)
    assert len(sup.graph) == 0


# --- epoch control ---


def _pair_rows():
    # two tight pairs interleaved across the shards: label propagation
    # will want to relabel at least one endpoint
    a, b = addr("sup-cl-a", shard=0), addr("sup-cl-b", shard=1)
    c, d = addr("sup-cl-c", shard=1), addr("sup-cl-d", shard=0)
    rows = []
    rows += [DatasetRow(a, b, 1, n) for n in range(3)]
    rows += [DatasetRow(c, d, 1, n) for n in range(3)]
    rows += [DatasetRow(a, c, 1, 3)]
    return rows


def _feed_graph(sup):
    stamped = sup.stamp_rows(RowBatch.of(_pair_rows()), now=0)
    height = {0: 0, 1: 0}
    for shard, txs in stamped.items():
        for tx in txs:
            if tx.kind is TxKind.REGULAR:
                height[shard] += 1
                sup.on_envelope(
                    info(shard, height[shard], 100, [tx]), 100
                )
            else:
                height[shard] += 1
                debit = hashed_tx(b"\x07" * 32, TxKind.INTRA_RELAY, tx.hash)
                sup.on_envelope(info(shard, height[shard], 100, [debit]), 100)


def test_epoch_tick_announces_partition_and_waits():
    sup, net = make_sup(partition="clpa")
    _feed_graph(sup)
    assert len(sup.graph) > 0
    sup.on_timer("epoch", None, 500)
    assert sup.reconfig_count == 1
    (announce,) = net.all_casts
    assert announce.msg_type == "partition_result"
    assert announce.body.version == 1
    assert announce.body.overrides, "the interleaved pairs force moves"
    assert len(sup.graph) == 0, "the window resets after each decision"
    assert sup.pending_migration.pmap.version == 1
    assert sup.pmap.version == 0, "the map is staged until every shard confirms"

    # further epochs defer while the migration is unresolved
    sup.on_timer("epoch", None, 1000)
    assert sup.reconfig_count == 1 and len(net.all_casts) == 1

    waiting = set(sup.pending_migration.waiting)
    assert waiting == {0, 1}
    sup.on_envelope(info(0, 9, 1100, [], kind=BlockKind.MIGRATION, version=1), 1100)
    assert sup.pending_migration is not None, "one shard is still migrating"
    sup.on_envelope(info(1, 9, 1150, [], kind=BlockKind.MIGRATION, version=1), 1150)
    assert sup.pending_migration is None
    assert sup.pmap.version == 1


def test_epoch_tick_skips_empty_graph_and_static_runs():
    idle, idle_net = make_sup(partition="clpa")
    idle.on_timer("epoch", None, 500)
    assert idle.reconfig_count == 0 and idle_net.all_casts == []
    assert idle_net.tags() == ["epoch"], "the next window is still armed"

    static, static_net = make_sup()
    _feed_graph(static)
    static.on_timer("epoch", None, 500)
    assert static.reconfig_count == 0 and static_net.all_casts == []


def test_stale_migration_confirmations_ignored():
    sup, _ = make_sup(partition="clpa")
    _feed_graph(sup)
    sup.on_timer("epoch", None, 500)
    sup.on_envelope(info(0, 9, 600, [], kind=BlockKind.MIGRATION, version=99), 600)
    assert sup.pending_migration is not None
    assert set(sup.pending_migration.waiting) == {0, 1}


# --- stop rules ---


def test_drain_stop_needs_quiet_window():
    sup, net = make_sup([DatasetRow(A0, B0, 1, 0)])
    stamped = prefill(sup)
    sup.on_envelope(info(0, 1, 1000, [stamped[0][0]], pool=0), 1000)
    quiet = QUIET_INTERVALS * sup.cfg.block_interval_ms

    sup.on_timer("stopcheck", None, 1000 + quiet - 1)
    assert not sup.stopped, "inside the quiet window"
    sup.on_timer("stopcheck", None, 1000 + quiet)
    assert sup.stopped
    assert net.all_casts[-1].msg_type == "stop"


def test_drain_stop_waits_for_pools_and_injection():
    rows = [DatasetRow(A0, B0, 1, 0)]
    sup, _ = make_sup(rows)
    stamped = prefill(sup)
    sup.on_timer("stopcheck", None, 10_000)
    assert not sup.stopped, "pool estimate is still nonzero"

    sup.on_envelope(info(0, 1, 100, [stamped[0][0]], pool=0), 100)
    live, _ = make_sup(rows * 5, injection={"base_rate": 1, "batch_interval_ms": 250})
    live.on_timer("stopcheck", None, 10_000)
    assert not live.stopped, "injection has not finished"


def test_stalled_migration_degrades_run():
    sup, _ = make_sup(partition="clpa")
    sup.pending_migration = PendingMigration(sup.pmap.updated(1, {}), {1}, 0)
    timeout = sup._stall_timeout()
    sup.on_timer("stopcheck", None, timeout)
    assert not sup.stopped, "at the threshold, not past it"
    sup.on_timer("stopcheck", None, timeout + 1)
    assert sup.stopped and sup.ledger.degraded
    assert any("stalled" in note for note in sup.ledger.notes)


def test_wall_stop_degrades_only_drain_runs():
    draining, _ = make_sup(stop={"drain": True, "wall_ms": 4000})
    draining.on_timer("wall", None, 4000)
    assert draining.stopped and draining.ledger.degraded
    assert any("wall stop" in n for n in draining.ledger.notes)

    wall_only, _ = make_sup(stop={"wall_ms": 4000})
    wall_only.on_timer("wall", None, 4000)
    assert wall_only.stopped and not wall_only.ledger.degraded


def test_on_start_arms_expected_timers():
    prefill, net = make_sup()
    prefill.on_start(0)
    assert net.tags() == ["stopcheck"]

    live, live_net = make_sup(
        injection={"base_rate": 1, "batch_interval_ms": 250},
        partition="clpa",
        stop={"drain": True, "wall_ms": 60_000},
    )
    live.on_start(0)
    assert sorted(live_net.tags()) == ["epoch", "inject", "stopcheck", "wall"]
    with pytest.raises(ValueError):
        live.on_timer("sleep", None, 0)


# --- finalize ---


def test_finalize_clean_run(tmp_path):
    rows = [DatasetRow(A0, B0, 1, 0), DatasetRow(A1, B1, 1, 0)]
    sup, _ = make_sup(rows)
    stamped = prefill(sup)
    sup.on_envelope(info(0, 1, 150, [stamped[0][0]], pool=0), 150)
    sup.on_envelope(info(1, 1, 160, [stamped[1][0]], pool=0), 160)
    code, summary = sup.finalize(str(tmp_path))
    assert code == 0
    assert summary["counters"] == {"X": 2, "Y": 0, "Z": 2, "U": 0, "V": 0, "W": 2}
    assert not summary["degraded"]
    assert "max_pct_distance" in summary["oracle"]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["oracle"] == summary["oracle"]
    for name in ("tps_epochs.csv", "tcl.csv", "pool_size.csv", "workload.csv"):
        assert (tmp_path / name).exists()


def test_finalize_flags_undrained_originals(tmp_path):
    # The drain rule holds whether or not the run writes reports.
    for out_dir in (str(tmp_path), None):
        sup, _ = make_sup([DatasetRow(A0, B0, 1, 0)])
        prefill(sup)
        code, summary = sup.finalize(out_dir)
        assert code == 3 and summary["degraded"]
        assert summary["unconfirmed"] == 1
        assert any("unconfirmed" in n for n in summary["notes"])


def test_finalize_wall_only_tolerates_unconfirmed(tmp_path):
    sup, _ = make_sup([DatasetRow(A0, B0, 1, 0)], stop={"wall_ms": 1000})
    prefill(sup)
    code, summary = sup.finalize(str(tmp_path))
    assert code == 0 and not summary["degraded"]


def test_finalize_oracle_skips_other_protocols(tmp_path):
    broker = addr("sup-fin-broker", shard=0)
    sup, _ = make_sup(
        [DatasetRow(A0, B0, 1, 0)], mechanism="broker", brokers=[broker.hex()]
    )
    stamped = prefill(sup)
    sup.on_envelope(info(0, 1, 100, [stamped[0][0]], pool=0), 100)
    _, summary = sup.finalize(str(tmp_path))
    assert summary["oracle"]["skipped"].startswith("protocol mismatch")

    empty, _ = make_sup()
    prefill(empty)
    _, esummary = empty.finalize(str(tmp_path / "e"))
    assert esummary["oracle"] == {"skipped": "no transactions injected"}

"""Cross-shard mechanisms: splits, brokers, label propagation, migration."""

import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from helpers import (
    addr,
    broker_pair,
    build_cfg,
    clpa_objective,
    cut_weight,
    exec_home_shard,
    local_to_shard,
    reference_pack,
    regular_tx,
    relay_debit,
)
from shardemu.core import (
    CREDIT_KINDS,
    DERIVED_KINDS,
    PartitionMap,
    StateTree,
    TxKind,
    address_to_shard,
    digest,
    genesis_block,
    home_shards,
    make_transaction,
    txs_to_json,
    BlockKind,
    RejectReason,
    Transaction,
    verify_block,
)
from shardemu import mechanisms
from shardemu.config import ClpaConfig
from shardemu.dataset import gen_dataset
from shardemu.harness import run
from shardemu.mechanisms import (
    AccountGraph,
    BrokerMechanism,
    Migration,
    MigrationController,
    NoBrokers,
    NotCrossShard,
    RelayMechanism,
    broker_split,
    clpa_partition,
    credits_of,
    debits_of,
    make_mechanism,
    pick_broker,
    relay_validate,
    shard_loads,
)
from shardemu.pbft import Phase, RelaySeen
from shardemu.transport import (
    SUPERVISOR_ID,
    AccountMigrate,
    Envelope,
    MigratedAccount,
    PartitionResult,
    PrePrepare,
    RelayCtx,
    decode_frame,
    encode_frame,
)
from shardemu.txpool import TxPool

TWO = PartitionMap(n_shards=2)
P0 = addr("mech-p0", shard=0)
P1 = addr("mech-p1", shard=1)
Q0 = addr("mech-q0", shard=0)
Q1 = addr("mech-q1", shard=1)


def ctx_tx(payer, payee, value=5, nonce=0):
    return make_transaction(payer, payee, value, nonce, kind=TxKind.ORIGINAL_CTX)


class RecordingNet:
    """The network surface the hooks send through. Each send is recorded in
    order as (destination, envelope): the shard id for a broadcast to every
    replica of that shard, the node id for a point-to-point send."""

    def __init__(self):
        self.sent = []

    def broadcast_shard(self, shard, env, include_self=False):
        assert include_self, "a hook's shard broadcast reaches the sender too"
        self.sent.append((shard, env))

    def send(self, to, env):
        self.sent.append((to, env))

    def take(self):
        """What was sent since the last take."""
        sent, self.sent = self.sent, []
        return sent


class FakeNode:
    """Just enough replica surface for the mechanism hooks. Like a replica,
    it holds its shard's relay-dedupe record (``seen``, or one of its own)
    and its bit in it."""

    def __init__(self, shard_id, pmap, *, index=0, theta=10, leader=True, seen=None):
        self.shard_id = shard_id
        self.pmap = pmap
        self.nid = f"{shard_id}.{index}"
        self.is_leader = leader
        self.theta = theta
        self.pool = TxPool(shard_id)
        self.state = StateTree()
        self.head = genesis_block(shard_id)
        self.relay_seen = RelaySeen() if seen is None else seen
        self.relay_bit = 1 << index
        self.phase = Phase.IDLE
        self.net = RecordingNet()

    @property
    def next_height(self):
        return self.head.height + 1

    def commit(self, mech, block, now=0):
        """Confirm ``block`` and return what the commit sent."""
        self.net.take()
        mech.op_confirmation(self, block, now)
        self.head = block
        return self.net.take()


# --- relay primitives ---


def _credit(original):
    """The credit half of an original's debit half."""
    return credits_of(debits_of([original]))[0]


def test_relay_halves():
    original = ctx_tx(P0, P1, value=9, nonce=4)
    debit, = debits_of([original])
    credit, = credits_of([debit])
    assert debit.kind is TxKind.INTRA_RELAY and credit.kind is TxKind.INTER_RELAY
    for half in (debit, credit):
        assert half.origin_hash == original.hash
        assert (half.payer, half.payee) == (P0, P1)
        assert (half.value, half.nonce) == (9, 4)
    assert address_to_shard(debit.payer, TWO) == 0
    assert address_to_shard(credit.payee, TWO) == 1
    assert debits_of([regular_tx(P0, P1)])  # regular transfers split too


def test_credit_half_hashes_as_made():
    original = make_transaction(P0, P1, 5, 3, kind=TxKind.ORIGINAL_CTX, inject_time=70)
    credit = _credit(original)
    assert credit.hash == make_transaction(
        P0, P1, 5, 3, kind=TxKind.INTER_RELAY, origin_hash=original.hash).hash
    assert credit.inject_time == 70


_FIELDS = st.tuples(st.binary(min_size=20, max_size=20), st.binary(min_size=20, max_size=20),
                   st.integers(0, (1 << 128) - 1), st.integers(0, (1 << 64) - 1),
                   st.none() | st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(st.lists(_FIELDS, max_size=6), st.binary(min_size=20, max_size=20))
def test_batch_halves_equal_halves_built_and_hashed_one_at_a_time(rows, broker):
    """``debits_of``, ``credits_of`` and ``broker_split`` hash a batch
    through ``core.tx_digests``; each half equals one that ``Transaction``
    hashes itself (the oracles in ``helpers``)."""
    originals = [make_transaction(p, q, v, n, kind=TxKind.ORIGINAL_CTX, inject_time=t)
                 for p, q, v, n, t in rows]
    debits = debits_of(originals)
    assert debits == [relay_debit(tx) for tx in originals]
    credits = [Transaction(d.payer, d.payee, d.value, d.nonce, TxKind.INTER_RELAY,
                           d.origin_hash, d.inject_time) for d in debits]
    assert credits_of(debits) == credits
    bridged = [half for tx in originals for half in broker_pair(tx, broker)]
    assert broker_split(originals, broker) == bridged


def test_relay_validate():
    credit = _credit(ctx_tx(P0, P1))
    good = RelayCtx(source_shard=0, txs=[credit])
    assert relay_validate(good, "0.2") is None
    assert relay_validate(good, "1.0") is not None, "sender shard must match claim"
    assert relay_validate(good, "supervisor") is not None
    bad_kind = RelayCtx(source_shard=0, txs=[regular_tx(P0, P1)])
    assert "non-credit" in relay_validate(bad_kind, "0.0")


# --- broker primitives ---


def test_pick_broker_is_lowest_address():
    brokers = frozenset({addr("br-hi", shard=1), addr("br-lo", shard=0)})
    assert pick_broker(PartitionMap(n_shards=2, brokers=brokers)) == min(brokers)
    with pytest.raises(NoBrokers):
        pick_broker(TWO)


def test_broker_split_bridges_through_broker():
    broker = addr("mech-broker", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    original = regular_tx(P0, P1, value=7, nonce=2)
    payer_half, payee_half = broker_split([original], pick_broker(pmap))
    assert payer_half.kind is TxKind.BROKER_PAYER_HALF
    assert (payer_half.payer, payer_half.payee) == (P0, broker)
    assert payee_half.kind is TxKind.BROKER_PAYEE_HALF
    assert (payee_half.payer, payee_half.payee) == (broker, P1)
    assert payer_half.origin_hash == payee_half.origin_hash == original.hash
    assert payer_half.value == payee_half.value == 7


def test_broker_packing_splits_only_cross_shard_strays():
    """A stray the broker mechanism packs must cross shards: an
    ``ORIGINAL_CTX`` (never local) between accounts of one shard, or with a
    broker, is refused, and the block is not built."""
    broker = addr("mech-broker", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    for payee in (Q0, broker):  # same shard; broker involved
        node = FakeNode(0, pmap)
        node.pool.preload([regular_tx(P0, P1), ctx_tx(P0, payee, nonce=1)])
        with pytest.raises(NotCrossShard):
            BrokerMechanism().op_mining(node, 0)
        assert node.net.sent == []


def test_exec_home_shard():
    broker = addr("mech-broker2", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    payee_half = make_transaction(
        broker, P1, 1, 0, kind=TxKind.BROKER_PAYEE_HALF, origin_hash=b"\x01" * 32
    )
    # A credit executes at the payee, a broker payer defers to the payee,
    # and the payer rules otherwise.
    txs = [_credit(ctx_tx(P0, P1)), regular_tx(P0, P1), payee_half, regular_tx(P0, broker)]
    assert home_shards(txs, pmap) == [1, 0, 1, 0]


# --- account graph ---


def test_graph_ignores_self_loops():
    g = AccountGraph()
    g.add_edge(P0, P0)
    assert len(g) == 0 and g.edge_count == 0


def test_graph_accumulates_weights():
    g = AccountGraph()
    g.add_edge(P0, P1, 3)
    g.add_edge(P1, P0, 2)  # same undirected pair
    g.add_edge(P0, Q1)
    assert g.edge_count == 2
    assert g.vertex_weight[P0] == 6 and g.vertex_weight[P1] == 5
    assert g.adj[P0][P1] == 5 and g.adj[P1][P0] == 5
    assert set(g.vertices) == {P0, P1, Q1}


def test_loads_cut_and_objective_agree_with_brute_force():
    g = AccountGraph()
    g.add_edge(P0, P1, 3)
    g.add_edge(Q0, Q1, 3)
    g.add_edge(P0, Q0, 1)
    labels = {P0: 0, P1: 0, Q0: 1, Q1: 1}
    assert shard_loads(g, labels, 2) == [7, 7]
    assert cut_weight(g, labels) == 1
    # hand expansion: factors (1 - 0.5*7/7) = 0.5 on both shards;
    # internal affinity is 3 at every vertex
    assert clpa_objective(g, labels, 0.5, 2) == pytest.approx(4 * 3 * 0.5)
    merged = {P0: 0, P1: 0, Q0: 0, Q1: 0}
    assert cut_weight(g, merged) == 0
    assert clpa_objective(g, merged, 0.5, 2) == pytest.approx(0.0), \
        "a saturated shard damps its own affinity to nothing"


# --- label propagation ---


def _pair_graph(a, b, c, d):
    g = AccountGraph()
    g.add_edge(a, b, 3)
    g.add_edge(c, d, 3)
    g.add_edge(a, c, 1)
    return g


def test_clpa_groups_tight_pairs():
    # natural placement interleaves both pairs across the two shards
    a, b = addr("clpa-a", shard=0), addr("clpa-b", shard=1)
    c, d = addr("clpa-c", shard=1), addr("clpa-d", shard=0)
    new_map, dirty = clpa_partition(_pair_graph(a, b, c, d), TWO, ClpaConfig(0.5, 100))
    labels = {v: address_to_shard(v, new_map) for v in (a, b, c, d)}
    assert labels[a] == labels[b]
    assert labels[c] == labels[d]
    assert labels[a] != labels[c]
    assert cut_weight(_pair_graph(a, b, c, d), labels) == 1
    assert new_map.version == TWO.version + 1
    assert dirty == {v: k for v, k in labels.items() if k != address_to_shard(v, TWO)}
    assert dirty, "the interleaved start must relabel someone"


def test_clpa_fixed_point_is_clean():
    # pairs already colocated: nothing should move
    a, b = addr("clpa2-a", shard=0), addr("clpa2-b", shard=0)
    c, d = addr("clpa2-c", shard=1), addr("clpa2-d", shard=1)
    new_map, dirty = clpa_partition(_pair_graph(a, b, c, d), TWO, ClpaConfig(0.5, 100))
    assert dirty == {}
    assert new_map.version == TWO.version + 1
    assert all(address_to_shard(v, new_map) == address_to_shard(v, TWO) for v in (a, b, c, d))


def test_clpa_all_in_one_shard_is_a_fixed_point():
    # zero factor on the loaded shard makes every move a score tie, and
    # ties keep the current label
    a, b = addr("clpa3-a", shard=0), addr("clpa3-b", shard=0)
    c, d = addr("clpa3-c", shard=0), addr("clpa3-d", shard=0)
    _, dirty = clpa_partition(_pair_graph(a, b, c, d), TWO, ClpaConfig(0.5, 100))
    assert dirty == {}


def test_clpa_pins_brokers_and_isolated_vertices():
    a, b = addr("clpa4-a", shard=0), addr("clpa4-b", shard=1)
    c, d = addr("clpa4-c", shard=0), addr("clpa4-d", shard=0)
    loner = addr("clpa4-loner", shard=1)
    g = AccountGraph()
    g.add_edge(a, b, 5)
    g.add_edge(c, d, 5)  # ballast so following the broker balances the load
    g.vertex_weight[loner] = 0  # a vertex without edges
    g.adj[loner] = {}
    pinned = PartitionMap(n_shards=2, brokers=frozenset({b}))
    new_map, dirty = clpa_partition(g, pinned, ClpaConfig(0.5, 100))
    assert address_to_shard(b, new_map) == 1, "brokers never move"
    assert loner not in dirty, "no edges, no reason to move"
    assert dirty == {a: 1}, "the free endpoint chases the pinned one"


def test_clpa_respects_round_budget():
    a, b = addr("clpa5-a", shard=0), addr("clpa5-b", shard=1)
    c, d = addr("clpa5-c", shard=1), addr("clpa5-d", shard=0)
    g = _pair_graph(a, b, c, d)
    _, none_allowed = clpa_partition(g, TWO, ClpaConfig(0.5, 0))
    assert none_allowed == {}, "zero rounds means zero moves"
    _, one_dirty = clpa_partition(g, TWO, ClpaConfig(0.5, 1))
    assert one_dirty, "a single round already starts untangling the pairs"


def _clpa_every_round(graph, pmap, params):
    """Reference: label propagation that runs all ``rho`` rounds, stopping
    only at a fixed point."""
    n = pmap.n_shards
    beta, rho = params.beta, params.rho
    labels = {v: address_to_shard(v, pmap) for v in graph.vertex_weight}
    order = sorted(labels)
    total_weight = sum(graph.vertex_weight.values())
    mean = total_weight / n if total_weight else 1.0
    for _ in range(rho):
        loads = shard_loads(graph, labels, n)
        factors = [1.0 - beta * loads[k] / mean for k in range(n)]
        changed = False
        for v in order:
            if v in pmap.brokers:
                continue
            row = graph.adj.get(v)
            if not row:
                continue
            affinity = [0] * n
            for u, w in row.items():
                affinity[labels[u]] += w
            best_k = labels[v]
            best_score = affinity[best_k] * factors[best_k]
            for k in range(n):
                score = affinity[k] * factors[k]
                if score > best_score or (score == best_score and k < best_k):
                    best_k, best_score = k, score
            if best_k != labels[v]:
                labels[v] = best_k
                changed = True
        if not changed:
            break
    dirty = {v: k for v, k in labels.items() if k != address_to_shard(v, pmap)}
    new_map = pmap.updated(pmap.version + 1, dirty)
    return new_map, dirty


def _assert_same_partition(graph, pmap, params):
    got_map, got_dirty = clpa_partition(graph, pmap, params)
    want_map, want_dirty = _clpa_every_round(graph, pmap, params)
    assert list(got_dirty.items()) == list(want_dirty.items()), params
    assert got_map == want_map
    assert list(got_map.overrides.items()) == list(want_map.overrides.items())
    return got_dirty


def _cycle_start_and_period(graph, pmap, beta, limit=60):
    """First round whose labelling recurs, and the recurrence period, read
    off the reference's results for rho = 0, 1, 2, ..."""
    seen = {}
    for rho in range(limit):
        _, dirty = _clpa_every_round(graph, pmap, ClpaConfig(beta, rho))
        key = tuple(sorted(dirty.items()))
        if key in seen:
            return seen[key], rho - seen[key]
        seen[key] = rho
    raise AssertionError("no repeated labelling within the limit")


def _random_clpa_case(rng, n_shards, with_brokers, with_overrides):
    vertices = [addr(f"clpa-eq:{rng.random()}") for _ in range(rng.randint(6, 24))]
    graph = AccountGraph()
    for _ in range(rng.randint(len(vertices), 3 * len(vertices))):
        a, b = rng.sample(vertices, 2)
        graph.add_edge(a, b, rng.randint(1, 4))
    loner = addr(f"clpa-eq-loner:{rng.random()}")  # a vertex without edges
    graph.vertex_weight[loner] = 0
    graph.adj[loner] = {}
    brokers = frozenset(rng.sample(vertices, 2)) if with_brokers else frozenset()
    overrides = ({v: rng.randrange(n_shards) for v in rng.sample(vertices, 4)}
                 if with_overrides else {})
    return graph, PartitionMap(n_shards=n_shards, version=3, overrides=overrides,
                               brokers=brokers)


@pytest.mark.parametrize("n_shards", [2, 3, 4, 8])
def test_clpa_matches_running_every_round(n_shards):
    rng = random.Random(n_shards)
    for with_brokers in (False, True):
        for with_overrides in (False, True):
            for beta in (0.0, 0.5, 1.0):
                graph, pmap = _random_clpa_case(rng, n_shards, with_brokers, with_overrides)
                mu, period = _cycle_start_and_period(graph, pmap, beta)
                near_cycle = {mu - 1, mu, mu + 1, mu + period, mu + period + 1}
                for rho in sorted({0, 1, 2, 3, 100, 101} | near_cycle):
                    if rho >= 0:
                        _assert_same_partition(graph, pmap, ClpaConfig(beta, rho))


def _two_triangle_oscillator():
    """Two triangles sharing vertex 2; from this placement vertex 2 flips
    shard every round from round 1 on."""
    start = [1, 1, 0, 1, 0]
    vs = [addr(f"clpa6-{i}", shard=start[i]) for i in range(5)]
    g = AccountGraph()
    for a, b, w in [(0, 1, 5), (0, 2, 2), (1, 2, 3), (2, 4, 4), (2, 3, 1), (3, 4, 3)]:
        g.add_edge(vs[a], vs[b], w)
    return g, vs


def test_clpa_stops_at_the_first_repeated_labelling(monkeypatch):
    g, vs = _two_triangle_oscillator()
    rounds = []

    def counting_loads(*args):
        rounds.append(1)
        return shard_loads(*args)

    monkeypatch.setattr(mechanisms, "shard_loads", counting_loads)
    even = _assert_same_partition(g, TWO, ClpaConfig(0.5, 100))
    assert len(rounds) < 10, "a 2-cycle must not be run out to rho"
    odd = _assert_same_partition(g, TWO, ClpaConfig(0.5, 101))
    assert even != odd, "the two states of the cycle differ"
    assert set(even) ^ set(odd) == {vs[2]}, "only the pivot vertex flips"
    assert _assert_same_partition(g, TWO, ClpaConfig(0.5, 102)) == even


# --- migration controller ---


def _announce(version, overrides, brokers=()):
    return PartitionResult(version=version, overrides=dict(overrides), brokers=list(brokers))


def test_uninvolved_shard_adopts_map_instantly():
    three = PartitionMap(n_shards=3)
    node = FakeNode(2, three)
    mover = addr("mig-mover", shard=0, n_shards=3)
    node_ctl = MigrationController()
    node_ctl.on_partition_result(node, _announce(1, {mover: 1}), now=50)
    assert node.net.sent == []
    assert not node_ctl.active
    assert node.pmap.version == 1
    assert address_to_shard(mover, node.pmap) == 1
    assert not node.pool.locked


def test_stale_announcement_ignored():
    node = FakeNode(0, TWO.updated(3, {}))
    ctl = MigrationController()
    ctl.on_partition_result(node, _announce(3, {P0: 1}), now=0)
    assert node.net.sent == []
    assert not ctl.active and node.pmap.version == 3


def test_source_shard_quiesces_and_leader_ships():
    node = FakeNode(0, TWO)
    node.state.entries[P0] = node.state.get(P0).__class__(address=P0, balance=42, nonce=3)
    displaced = regular_tx(P0, Q0, nonce=3)
    # neither endpoint of the staying entry is re-homed
    staying = regular_tx(Q0, addr("mech-r0", shard=0), nonce=0)
    node.pool.preload([displaced, staying])
    ctl = MigrationController()

    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=50)
    outs = node.net.take()
    mig = ctl.session
    assert node.pool.locked and mig.quiesced and mig.shipped
    assert ctl.ready(node), "nothing inbound, so shipping completes the session"
    assert [tx.hash for tx in mig.extracted] == [displaced.hash]
    assert node.pool.snapshot()[0].hash == staying.hash

    assert len(outs) == 1
    (dest, env), = outs
    assert dest == 1
    assert env.msg_type == "account_migrate" and env.body.version == 1
    (acct,) = env.body.accounts
    assert acct.state.address == P0 and acct.state.balance == 42
    assert [tx.hash for tx in acct.pending_txs] == [displaced.hash]


def test_followers_extract_but_never_ship():
    node = FakeNode(0, TWO, leader=False)
    node.pool.preload([regular_tx(P0, Q0)])
    ctl = MigrationController()
    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=50)
    assert node.net.sent == [] and ctl.session.quiesced and not ctl.session.shipped
    assert len(node.pool) == 0, "the displaced entry still leaves the pool"


def test_quiesce_waits_for_idle_phase():
    node = FakeNode(0, TWO)
    node.phase = Phase.PRE_PREPARED
    ctl = MigrationController()
    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=50)
    assert node.net.sent == []
    assert node.pool.locked and not ctl.session.quiesced
    ctl.quiesce(node, now=60)  # the round resolved; now it can drain
    outs = node.net.take()
    assert ctl.session.quiesced and ctl.session.shipped
    assert outs and outs[0][0] == 1


def test_target_shard_waits_for_inbound_state():
    node = FakeNode(1, TWO)
    mech = RelayMechanism()
    ctl = mech.migration
    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=0)
    assert node.net.sent == []
    assert node.pool.locked and ctl.session.quiesced and not ctl.ready(node)
    assert ctl.session.inbound_expected == {P0}

    pending = regular_tx(P0, Q0, nonce=7)
    acct = MigratedAccount(state=node.state.get(P0), pending_txs=[pending])
    body = AccountMigrate(version=1, accounts=[acct])
    ctl.on_account_migrate(node, "0.0", body, now=5)
    assert ctl.ready(node)
    # a new leader in the source shard may re-ship the same bundle
    ctl.on_account_migrate(node, "0.1", body, now=6)
    node.commit(mech, ctl.build_block(node, now=7), now=8)
    assert not node.pool.locked and ctl.session is None
    assert [tx.hash for tx in node.pool.snapshot()] == [pending.hash]
    assert node.pool.appended == 1


def test_early_transfer_is_stashed_then_replayed():
    node = FakeNode(1, TWO)
    ctl = MigrationController()
    body = AccountMigrate(
        version=1, accounts=[MigratedAccount(state=node.state.get(P0), pending_txs=[])]
    )
    ctl.on_account_migrate(node, "0.0", body, now=0)
    assert node.net.sent == []
    assert not ctl.active, "transfer before announcement must not start a session"
    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=5)
    assert ctl.ready(node), "the stashed transfer replays on announcement"


def test_migration_block_commit_switches_map_and_requeues():
    node = FakeNode(1, TWO)
    mech = RelayMechanism()
    ctl = mech.migration
    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=0)

    pending = regular_tx(P0, Q0, nonce=1)
    credit = _credit(ctx_tx(Q0, P1, nonce=0))
    moved = node.state.get(P0).__class__(address=P0, balance=11, nonce=1)
    ctl.on_account_migrate(
        node, "0.0",
        AccountMigrate(version=1, accounts=[MigratedAccount(moved, [pending, credit])]),
        now=5,
    )
    block = ctl.build_block(node, now=9)
    assert block.block_kind is BlockKind.MIGRATION
    assert [a.address for a in block.migration_installs] == [P0]
    assert block.migration_departures == []
    announced = ctl.session.pmap

    outs = node.commit(mech, block, now=9)
    assert node.pmap is announced, "the commit adopts the map built at announcement"
    assert node.pmap.version == 1
    assert address_to_shard(P0, node.pmap) == 1
    assert not node.pool.locked and not ctl.active
    assert node.state.get(P0).balance == 11
    queued = {tx.hash for tx in node.pool.snapshot()}
    assert queued == {pending.hash, credit.hash}
    assert node.relay_seen[credit.origin_hash] == node.relay_bit, \
        "migrated credit halves must still dedupe straggler relays"
    assert outs[-1][0] == SUPERVISOR_ID
    assert outs[-1][1].body.block.block_kind is BlockKind.MIGRATION


def test_commit_on_source_drops_departed_account_and_evicts():
    node = FakeNode(0, TWO)
    mech = RelayMechanism()
    ctl = mech.migration
    node.state.entries[P0] = node.state.get(P0).__class__(address=P0, balance=5, nonce=0)
    ctl.on_partition_result(node, _announce(1, {P0: 1}), now=0)

    # arrives after the pool was quiesced, keyed to the departing account
    late = regular_tx(P0, Q0, nonce=5)
    node.pool.preload([late])
    block = ctl.build_block(node, now=9)
    assert block.migration_departures == [P0]

    outs = node.commit(mech, block, now=9)
    assert P0 not in node.state.entries
    assert len(node.pool) == 0, "entries for re-homed accounts leave with the map"
    inject_outs = [(d, e) for d, e in outs if e.msg_type == "inject_txs"]
    assert len(inject_outs) == 1
    assert inject_outs[0][0] == 1
    assert [t.hash for t in inject_outs[0][1].body.txs] == [late.hash]


_EVICT_ACCOUNTS = [addr(f"evict-{i}") for i in range(6)]


def _outcome(fn, *args):
    """``fn(*args)``, or the type of what it raised."""
    try:
        return fn(*args)
    except (NotCrossShard, NoBrokers) as exc:
        return type(exc)


def _packs_as_reference(mechanism, txs, pmap, shard):
    """Pack a pool of ``txs`` in ``shard`` under ``pmap`` and assert the
    block txs and every forwarded batch, in order, or the refusal, equal
    what ``helpers.reference_pack`` places one entry at a time (against an
    equal map with a table of its own). Returns the reference's result,
    or the type of what it raised."""
    node = FakeNode(shard, pmap)
    oracle = PartitionMap(pmap.n_shards, pmap.version, dict(pmap.overrides), pmap.brokers)
    expected = _outcome(reference_pack, txs, oracle, shard, mechanism)
    node.pool.preload(txs)
    mined = _outcome(make_mechanism(mechanism).op_mining, node, 0)
    sent = node.net.take()
    if isinstance(expected, type):
        assert mined is expected
        assert sent == []
    else:
        chosen, forwards = expected
        assert (None if mined is None else mined.txs) == (chosen or None)
        mechanisms.forward(node, forwards)
        assert sent == node.net.take()
    return expected


def test_packing_placement_matches_exec_home_shard_and_locality():
    """Pools of up to ten entries, under either mechanism on a random map,
    pack as ``_packs_as_reference`` checks. The premises are checked, not
    assumed: blocks with several strays, and a broker map with no brokers
    and no strays."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4), label="n_shards")
        accounts = st.sampled_from(_EVICT_ACCOUNTS)
        brokers = data.draw(st.frozensets(accounts, max_size=3), label="brokers")
        overrides = data.draw(st.dictionaries(accounts, st.integers(0, n - 1), max_size=4),
                              label="overrides")
        pmap = PartitionMap(n, 1, overrides, brokers)
        # Regular transfers, weighted up, are the strays a broker map splits.
        kinds = st.just(TxKind.REGULAR) | st.sampled_from(list(TxKind))
        entries = data.draw(st.lists(st.tuples(accounts, accounts, kinds), min_size=1,
                                     max_size=10), label="pool")
        txs = [make_transaction(payer, payee, 1, i, kind=kind, origin_hash=digest(b"place")
                                if kind in DERIVED_KINDS else None)
               for i, (payer, payee, kind) in enumerate(entries)]
        mechanism = data.draw(st.sampled_from(["relay", "broker"]), label="mechanism")
        shard = data.draw(st.integers(0, n - 1), label="shard")
        strays = sum(exec_home_shard(tx, pmap) == shard and not local_to_shard(tx, shard, pmap)
                     for tx in txs)
        if strays >= 2:
            seen.add("several strays")
        expected = _packs_as_reference(mechanism, txs, pmap, shard)
        if mechanism == "broker" and not brokers and not strays:
            assert not isinstance(expected, type)
            seen.add("no brokers, no strays")

    check()
    assert seen == {"several strays", "no brokers, no strays"}


def test_broker_packing_interleaves_payee_halves_with_rehomed_entries():
    """Shard 0 packs two strays and a transfer re-homed to shard 1 between
    them: the block keeps the payer halves, and shard 1 gets one batch of
    the first payee half, the re-homed transfer and the second payee half,
    in packing order."""
    broker = addr("mech-broker", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    first, rehomed, second = regular_tx(P0, P1), regular_tx(P1, Q1), regular_tx(Q0, Q1, nonce=1)
    chosen, forwards = _packs_as_reference("broker", [first, rehomed, second], pmap, 0)
    (first_payer, first_payee), (second_payer, second_payee) = (
        broker_pair(first, broker), broker_pair(second, broker))
    assert chosen == [first_payer, second_payer]
    assert forwards == {1: [first_payee, rehomed, second_payee]}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eviction_pass_matches_exec_home_shard(data):
    n = data.draw(st.integers(1, 4), label="n_shards")
    accounts = st.sampled_from(_EVICT_ACCOUNTS)
    brokers = data.draw(st.frozensets(accounts, max_size=3), label="brokers")
    overrides = data.draw(st.dictionaries(accounts, st.integers(0, n - 1), max_size=4),
                          label="overrides")
    pmap = PartitionMap(n, 1, overrides, brokers)
    # Some accounts are resolved before the pass, the rest only by it.
    for a in data.draw(st.frozensets(accounts), label="resolved"):
        address_to_shard(a, pmap)
    entries = data.draw(st.lists(st.tuples(accounts, accounts, st.sampled_from(list(TxKind))),
                                 max_size=12), label="entries")
    txs = [make_transaction(payer, payee, 1, i, kind=kind,
                            origin_hash=digest(b"evict:%d" % i) if kind in DERIVED_KINDS else None)
           for i, (payer, payee, kind) in enumerate(entries)]
    node = FakeNode(data.draw(st.integers(0, n - 1), label="shard"), pmap,
                    leader=data.draw(st.booleans(), label="leader"))
    node.pool.preload(txs)

    # The oracle resolves against an equal map with a table of its own.
    oracle = PartitionMap(n, 1, dict(overrides), brokers)
    gone: dict[int, list] = {}
    for tx in txs:
        home = exec_home_shard(tx, oracle)
        if home != node.shard_id:
            gone.setdefault(home, []).append(tx)
    RelayMechanism().evict_misplaced(node, now=0)
    outs = node.net.take()
    assert node.pool.snapshot() == [t for t in txs if exec_home_shard(t, oracle) == node.shard_id]
    assert node.pool.extracted == sum(len(v) for v in gone.values())
    if node.is_leader:
        mechanisms.forward(node, gone)
    assert outs == node.net.take()
    assert pmap._shard_of == {a: address_to_shard(a, oracle) for a in pmap._shard_of}


# --- packing and routing ---


def test_relay_mining_splits_cross_shard():
    node = FakeNode(0, TWO)
    mech = RelayMechanism()
    local = regular_tx(P0, Q0, nonce=0)
    cross = ctx_tx(Q0, P1, nonce=0)
    node.pool.preload([local, cross])
    block = mech.op_mining(node, now=20)
    assert node.net.sent == [], "the relay rides the commit, not the proposal"
    kinds = [tx.kind for tx in block.txs]
    assert kinds == [TxKind.REGULAR, TxKind.INTRA_RELAY]
    assert block.txs[1].origin_hash == cross.hash

    outs = node.commit(mech, block, now=25)
    relays = [(d, e) for d, e in outs if e.msg_type == "relay_ctx"]
    assert len(relays) == 1
    dest, env = relays[0]
    assert dest == 1
    (credit,) = env.body.txs
    assert credit.kind is TxKind.INTER_RELAY and credit.origin_hash == cross.hash


def test_relay_delivery_queues_credit_exactly_once():
    source = FakeNode(0, TWO)
    target = FakeNode(1, TWO)
    mech = RelayMechanism()
    source.pool.preload([ctx_tx(Q0, P1)])
    block = mech.op_mining(source, now=10)
    outs = source.commit(mech, block, now=15)
    env = next(e for _, e in outs if e.msg_type == "relay_ctx")

    mech.handle_inter_shard_msg(target, env, now=20)
    assert target.net.sent == []
    assert len(target.pool) == 1
    queued = target.pool.snapshot()[0]
    assert queued.kind is TxKind.INTER_RELAY
    # redelivery (e.g. from a re-shipped block) is dropped by origin
    mech.handle_inter_shard_msg(target, env, now=21)
    assert len(target.pool) == 1

    tgt_block = mech.op_mining(target, now=30)
    assert [tx.hash for tx in tgt_block.txs] == [queued.hash]


def test_relay_rejects_forged_source(caplog):
    target = FakeNode(1, TWO)
    mech = RelayMechanism()
    credit = _credit(ctx_tx(Q0, P1))
    forged = Envelope("relay_ctx", "1.3", RelayCtx(source_shard=0, txs=[credit]))
    mech.handle_inter_shard_msg(target, forged, now=0)
    assert target.net.sent == []
    assert len(target.pool) == 0


def test_leader_forwards_misrouted_relays():
    # payee moved to shard 0 after the batch left the source
    target = FakeNode(1, TWO.updated(1, {P1: 0}))
    mech = RelayMechanism()
    credit = _credit(ctx_tx(Q0, P1))
    env = Envelope("relay_ctx", "0.0", RelayCtx(source_shard=0, txs=[credit]))
    mech.handle_inter_shard_msg(target, env, now=0)
    outs = target.net.take()
    assert len(target.pool) == 0
    assert [d for d, _ in outs] == [0]
    assert outs[0][1].body.txs[0].hash == credit.hash
    # followers drop the same batch silently
    follower = FakeNode(1, TWO.updated(1, {P1: 0}), index=2, leader=False)
    mech.handle_inter_shard_msg(follower, env, now=0)
    assert follower.net.sent == []


# --- the relay memo: a replica takes each batch once ---


def _count_walks(monkeypatch):
    """Count the relay batches walked (``relay_validate`` calls) and the
    batches queued (``TxPool.append_relays`` calls), in that order."""
    counts = [0, 0]
    validate, append = mechanisms.relay_validate, TxPool.append_relays

    def counting_validate(body, sender):
        counts[0] += 1
        return validate(body, sender)

    def counting_append(pool, relays, pmap):
        counts[1] += 1
        return append(pool, relays, pmap)

    monkeypatch.setattr(mechanisms, "relay_validate", counting_validate)
    monkeypatch.setattr(TxPool, "append_relays", counting_append)
    return counts


# Credit halves from shard 0 whose payees live on shard 1 of TWO.
_BOUND_FOR_1 = [_credit(ctx_tx(Q0, P1 if i % 2 else Q1, nonce=i)) for i in range(4)]


def test_a_replica_walks_a_relay_body_once_from_all_four_senders(monkeypatch):
    counts = _count_walks(monkeypatch)
    mech = RelayMechanism()
    record = RelaySeen()
    leader, follower = (FakeNode(1, TWO, index=i, leader=i == 0, seen=record) for i in (0, 1))
    body = RelayCtx(source_shard=0, txs=list(_BOUND_FOR_1))
    for node in (leader, follower):
        for sender in range(4):
            mech.handle_inter_shard_msg(node, Envelope("relay_ctx", f"0.{sender}", body), now=0)
    assert counts == [2, 2], "each replica walks and queues the body once"
    for node in (leader, follower):
        assert [tx.hash for tx in node.pool.snapshot()] == [tx.hash for tx in _BOUND_FOR_1]
        assert node.net.sent == []
    assert body.taken == (record, 0b11)
    assert set(record.values()) == {0b11}


def test_a_body_with_a_misrouted_half_is_walked_and_forwarded_on_every_delivery(monkeypatch):
    counts = _count_walks(monkeypatch)
    mech = RelayMechanism()
    moved = TWO.updated(1, {P1: 0})
    leader = FakeNode(1, moved)
    body = RelayCtx(source_shard=0, txs=list(_BOUND_FOR_1))
    stay = [tx.hash for tx in _BOUND_FOR_1 if tx.payee != P1]
    away = [tx.hash for tx in _BOUND_FOR_1 if tx.payee == P1]
    for sender in range(4):
        mech.handle_inter_shard_msg(leader, Envelope("relay_ctx", f"0.{sender}", body), now=0)
        outs = leader.net.take()
        assert [d for d, _ in outs] == [0]
        assert [tx.hash for tx in outs[0][1].body.txs] == away
    assert counts == [4, 1], "walked every time, the staying halves queued once"
    assert [tx.hash for tx in leader.pool.snapshot()] == stay
    assert body.taken is None


def test_a_bad_sender_is_warned_about_after_the_body_was_taken(monkeypatch, caplog):
    counts = _count_walks(monkeypatch)
    mech = RelayMechanism()
    node = FakeNode(1, TWO)
    body = RelayCtx(source_shard=0, txs=list(_BOUND_FOR_1))
    mech.handle_inter_shard_msg(node, Envelope("relay_ctx", "0.2", body), now=0)
    assert body.taken == (node.relay_seen, 0b1)
    with caplog.at_level("WARNING", logger="shardemu.mechanisms"):
        mech.handle_inter_shard_msg(node, Envelope("relay_ctx", "1.3", body), now=0)
    assert "sender 1.3 does not belong to claimed shard 0" in caplog.text
    assert counts == [2, 1]
    assert len(node.pool) == len(_BOUND_FOR_1)


def test_one_body_handed_to_two_shards_is_taken_by_both(monkeypatch):
    """Replicas of shards 1 and 0, each shard with its own record, where
    the payees live on the replica's own shard under its map: each takes
    the body whole. A memo naming the other shard's record is replaced, so
    each delivery after a switch walks the body again, and queues nothing
    new."""
    counts = _count_walks(monkeypatch)
    mech = RelayMechanism()
    ones = FakeNode(1, TWO)
    zeros = FakeNode(0, TWO.updated(1, {tx.payee: 0 for tx in _BOUND_FOR_1}), index=2)
    body = RelayCtx(source_shard=0, txs=list(_BOUND_FOR_1))
    for node in (ones, zeros, ones, zeros, zeros):
        mech.handle_inter_shard_msg(node, Envelope("relay_ctx", "0.1", body), now=0)
        assert body.taken == (node.relay_seen, node.relay_bit)
    assert counts == [4, 2]
    for node in (ones, zeros):
        assert [tx.hash for tx in node.pool.snapshot()] == [tx.hash for tx in _BOUND_FOR_1]
        assert set(node.relay_seen.values()) == {node.relay_bit}
        assert node.net.sent == []


def test_a_taken_relay_frame_encodes_as_before():
    """The memo stays off the wire: a frame carries ``source_shard`` and
    ``txs`` only, and decodes to a body with no memo."""
    body = RelayCtx(source_shard=0, txs=list(_BOUND_FOR_1))
    env = Envelope("relay_ctx", "0.1", body)
    fresh = encode_frame(env)
    body.taken = (RelaySeen(), 0b101)
    payload = json.dumps({"type": "relay_ctx", "sender": "0.1",
                          "body": {"source_shard": 0,
                                   "txs": txs_to_json(_BOUND_FOR_1)}},
                         separators=(",", ":")).encode("utf-8")
    assert encode_frame(env) == fresh == len(payload).to_bytes(4, "big") + payload
    decoded = decode_frame(fresh)
    assert decoded.body == body and decoded.body.taken is None
    assert "taken" not in repr(body)


# --- the relay-dedupe record: one per shard, a bit per replica ---

# Credit halves bound for shard 0 of TWO, and two whose payee lives on
# shard 1, which a shard-0 replica never accepts.
_HOME_CREDITS = [_credit(ctx_tx(Q1, P0 if i % 2 else Q0, nonce=i))
                 for i in range(10)]
_AWAY_CREDITS = [_credit(ctx_tx(Q0, P1, nonce=i)) for i in range(2)]
_CREDITS = _HOME_CREDITS + _AWAY_CREDITS


def _relay_env(txs):
    return Envelope("relay_ctx", "1.0", RelayCtx(source_shard=1, txs=list(txs)))


def _bits_of(node):
    """The origins whose bit ``node`` holds in its shard's record."""
    return {origin for origin, bits in node.relay_seen.items() if bits & node.relay_bit}


class _RelayRecordMachine(RuleBasedStateMachine):
    """``N`` replicas of shard 0 over one ``RelaySeen``, each driven through
    the real relay intake and migration requeue, checked against one
    reference set per replica: what each replica's own set used to hold."""

    N = 4

    def __init__(self):
        super().__init__()
        record = RelaySeen()
        self.nodes = [FakeNode(0, TWO, index=i, leader=i == 0, seen=record)
                      for i in range(self.N)]
        self.mech = RelayMechanism()
        self.ref = [set() for _ in range(self.N)]

    @rule(data=st.data())
    def accept(self, data):
        i = data.draw(st.integers(0, self.N - 1), label="replica")
        batch = data.draw(st.lists(st.sampled_from(_CREDITS), max_size=5), label="batch")
        node = self.nodes[i]
        before = {tx.hash for tx in node.pool.snapshot()}
        want = []
        for tx in batch:
            if tx.origin_hash not in self.ref[i] and tx in _HOME_CREDITS:
                self.ref[i].add(tx.origin_hash)
                want.append(tx.hash)
        self.mech.handle_inter_shard_msg(node, _relay_env(batch), now=0)
        assert [tx.hash for tx in node.pool.snapshot() if tx.hash not in before] == want
        assert not node.net.take() or i == 0, "only the leader forwards the strays"

    @rule(data=st.data())
    def requeue(self, data):
        i = data.draw(st.integers(0, self.N - 1), label="replica")
        moved = data.draw(st.lists(st.sampled_from(_CREDITS + [regular_tx(P0, Q0)]),
                                   max_size=4), label="moved")
        node = self.nodes[i]
        ctl = self.mech.migration
        ctl.session = Migration(TWO, {}, {}, set(), inbound_txs={1: moved})
        ctl.on_commit(self.mech, node, None, now=0)
        node.net.take()
        self.ref[i].update(tx.origin_hash for tx in moved if tx.kind in CREDIT_KINDS)

    @rule(i=st.integers(0, 6), tx=st.sampled_from(_CREDITS))
    def check(self, i, tx):
        node = self.nodes[i % self.N]
        held = node.relay_seen.get(tx.origin_hash, 0) & node.relay_bit
        assert bool(held) == (tx.origin_hash in self.ref[i % self.N])

    @invariant()
    def each_replica_reads_its_reference_set(self):
        record = self.nodes[0].relay_seen
        assert all(node.relay_seen is record for node in self.nodes)
        assert [_bits_of(node) for node in self.nodes] == self.ref
        assert all(0 < bits < 1 << self.N for bits in record.values())


for _n in (1, 4, 7):
    _machine = type(f"RelayRecordMachine{_n}", (_RelayRecordMachine,), {"N": _n})
    _machine.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                          deadline=None)
    globals()[f"TestRelayRecord{_n}Replicas"] = _machine.TestCase


def _replica_threads_take_the_same_credits(shared):
    """Over TCP the replicas of a shard are threads of one process. Four of
    them take the same credit halves, in the same order so that they meet
    on the same entries, through the real intake; with the interpreter
    switching threads every microsecond, an unguarded read-modify-write of
    one entry loses a bit in most rounds. With ``shared``, each thread is
    handed every body object twice, as the sim transport hands one body to
    a replica from each sender, so the replicas also meet on each body's
    memo."""
    credits = credits_of(debits_of([ctx_tx(Q1, Q0, nonce=i) for i in range(10000)]))
    mech = RelayMechanism()
    bodies = [_relay_env(credits[start:start + 3]) for start in range(0, len(credits), 3)]

    def intake(node, start_line):
        start_line.wait(timeout=30)
        if shared:
            for env in bodies:
                mech.handle_inter_shard_msg(node, env, now=0)
                mech.handle_inter_shard_msg(node, env, now=0)
            return
        for start in range(0, len(credits), 3):
            mech.handle_inter_shard_msg(node, _relay_env(credits[start:start + 3]), now=0)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            record = RelaySeen()
            nodes = [FakeNode(0, TWO, index=i, leader=False, seen=record) for i in range(4)]
            start_line = threading.Barrier(len(nodes))
            threads = [threading.Thread(target=intake, args=(node, start_line))
                       for node in nodes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            lost = sum(1 for bits in record.values() if bits != 0b1111)
            assert (len(record), lost) == (len(credits), 0), f"{lost} entries lost a bit"
            assert all(len(node.pool) == len(credits) for node in nodes)
            if shared:
                assert all(env.body.taken == (record, 0b1111) for env in bodies)
                for env in bodies:
                    env.body.taken = None
    finally:
        sys.setswitchinterval(switch)


def test_replica_threads_lose_no_bit_of_the_shared_record():
    _replica_threads_take_the_same_credits(shared=False)


def test_replica_threads_lose_no_bit_of_a_shared_body_memo():
    _replica_threads_take_the_same_credits(shared=True)


# --- credit halves: built once per block, routed per replica ---

THREE = PartitionMap(n_shards=3)
T0 = addr("mech-t0", shard=0, n_shards=3)
T0B = addr("mech-t0b", shard=0, n_shards=3)
T1 = addr("mech-t1", shard=1, n_shards=3)
T2 = addr("mech-t2", shard=2, n_shards=3)


def _relay_block(tag):
    """A block mined on shard 0 with credit halves for shards 1 and 2."""
    node = FakeNode(0, THREE)
    node.pool.preload([
        ctx_tx(T0, T2, value=1, nonce=0),
        regular_tx(T0B, T0, value=2, nonce=0),
        ctx_tx(T0, T1, value=3, nonce=1),
        ctx_tx(T0B, T2, value=4, nonce=1),
        ctx_tx(T0B, addr(tag, shard=1, n_shards=3), value=5, nonce=2),
    ])
    return RelayMechanism().op_mining(node, now=10)


def _forwards(node, block):
    """The (shard, envelope) sends of committing ``block``; the trailing
    ``block_info`` to the supervisor is checked and left out."""
    *forwards, (to, info) = node.commit(RelayMechanism(), block, now=20)
    assert (to, info.msg_type) == (SUPERVISOR_ID, "block_info")
    return forwards


def _emitted(node, block):
    """What committing ``block`` forwards to other shards, by hash."""
    return [(dest, env.msg_type, [t.hash for t in env.body.txs])
            for dest, env in _forwards(node, block)]


def test_commit_emits_the_same_halves_from_the_memo_or_a_rebuild():
    block = _relay_block("memo-same")
    expected = [
        (1, "relay_ctx",
         [credits_of([t])[0].hash for t in block.txs if address_to_shard(t.payee, THREE) == 1]),
        (2, "relay_ctx",
         [credits_of([t])[0].hash for t in block.txs if address_to_shard(t.payee, THREE) == 2]),
    ]
    assert [len(h) for _, _, h in expected] == [2, 2]
    replicas = [FakeNode(0, THREE, index=i, leader=i == 0) for i in range(4)]
    seeded = mechanisms.credit_halves(block)
    assert [_emitted(node, block) for node in replicas] == [expected] * 4
    assert mechanisms.credit_halves(block) is seeded, "every replica read the first build"


def test_decoded_block_rebuilds_the_proposers_halves():
    proposer = FakeNode(0, THREE)
    proposer.pool.preload([
        make_transaction(T0, T2, 1, 0, kind=TxKind.ORIGINAL_CTX, inject_time=40),
        regular_tx(T0B, T0, value=2, nonce=0),
        make_transaction(T0, T1, 3, 1, kind=TxKind.ORIGINAL_CTX, inject_time=55),
    ])
    block = RelayMechanism().op_mining(proposer, now=60)
    assert block.post is not None and block.halves is None, "mining builds no credit half"

    frame = encode_frame(Envelope("preprepare", proposer.nid, PrePrepare(block=block)))
    decoded = decode_frame(frame).body.block
    assert decoded.hash == block.hash
    assert decoded.post is None and decoded.halves is None
    assert verify_block(decoded, genesis_block(0), StateTree(), THREE, theta=10) is None
    halves = mechanisms.credit_halves(block)
    assert [t.inject_time for t in halves] == [40, 55]
    assert [(t.hash, t.inject_time) for t in mechanisms.credit_halves(decoded)] == \
        [(t.hash, t.inject_time) for t in halves]
    assert mechanisms.credit_halves(block) is halves
    assert mechanisms.credit_halves(decoded) is decoded.halves
    assert _emitted(FakeNode(0, THREE), decoded) == _emitted(FakeNode(0, THREE), block)


def test_replicas_route_shared_halves_under_their_own_map():
    # Two maps at one version: a replica that dropped an announcement while
    # a migration was active can hold a different map at the same version.
    block = _relay_block("memo-route")
    stale = THREE.updated(1, {})
    moved = THREE.updated(1, {T1: 2})
    assert stale.version == moved.version
    a_node = FakeNode(0, stale)
    sent_a = _forwards(a_node, block)
    # A replica that shares the first one's map object sends the very same
    # bodies, each in an envelope of its own.
    sent_c = _forwards(FakeNode(0, stale, index=2, leader=False), block)
    assert [d for d, _ in sent_c] == [d for d, _ in sent_a] == [1, 2]
    for (_, env_a), (_, env_c) in zip(sent_a, sent_c):
        assert env_c.msg_type == env_a.msg_type == "relay_ctx"
        assert env_c.body is env_a.body
        assert (env_a.sender, env_c.sender) == ("0.0", "0.2")
    b = _emitted(FakeNode(0, moved, index=1, leader=False), block)
    a = [(dest, env.msg_type, [t.hash for t in env.body.txs]) for dest, env in sent_a]
    assert sorted(h for _, _, hs in a for h in hs) == sorted(h for _, _, hs in b for h in hs)
    moved_half = next(t.hash for t in mechanisms.credit_halves(block) if t.payee == T1)
    assert [d for d, _, hs in a if moved_half in hs] == [1]
    assert [d for d, _, hs in b if moved_half in hs] == [2]


def test_relay_run_builds_one_credit_half_per_split(monkeypatch, tmp_path):
    # Halves are built straight from their checked original or debit half
    # (``debits_of``, ``credits_of``), so count the mechanism module's own
    # ``Transaction`` constructions.
    built = {TxKind.INTRA_RELAY: 0, TxKind.INTER_RELAY: 0}
    real_tx = mechanisms.Transaction

    def counting_tx(*args, **kwargs):
        tx = real_tx(*args, **kwargs)
        if tx.kind in built:
            built[tx.kind] += 1
        return tx

    monkeypatch.setattr(mechanisms, "Transaction", counting_tx)
    data = tmp_path / "transfers.csv"
    gen_dataset(str(data), accounts=40, txs=150, skew="uniform", seed=7)
    result = run(build_cfg(dataset_path=str(data), output_dir=str(tmp_path / "out")))
    assert result.exit_code == 0
    splits = built[TxKind.INTRA_RELAY]
    assert splits == result.summary["counters"]["V"] > 0
    assert built[TxKind.INTER_RELAY] == splits, "one credit half per committed debit half"


def test_regular_tx_with_foreign_payer_is_reinjected():
    node = FakeNode(0, TWO)
    mech = RelayMechanism()
    foreign = regular_tx(P1, Q1)  # both ends live on shard 1
    node.pool.preload([foreign])
    block = mech.op_mining(node, now=10)
    outs = node.net.take()
    assert block is None
    assert [d for d, _ in outs] == [1]
    assert outs[0][1].msg_type == "inject_txs"
    assert outs[0][1].body.txs[0].hash == foreign.hash


def test_regular_tx_turned_cross_shard_is_split_at_packing():
    node = FakeNode(0, TWO)
    mech = RelayMechanism()
    was_local = regular_tx(P0, Q0)
    node.pool.preload([was_local])
    node.pmap = TWO.updated(1, {Q0: 1})  # payee re-homed while queued
    block = mech.op_mining(node, now=10)
    (half,) = block.txs
    assert half.kind is TxKind.INTRA_RELAY and half.origin_hash == was_local.hash


def test_broker_mining_emits_payee_half_at_proposal():
    broker = addr("mech-broker3", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    node = FakeNode(0, pmap)
    mech = BrokerMechanism()
    cross = ctx_tx(P0, P1)
    node.pool.preload([cross])
    block = mech.op_mining(node, now=10)
    outs = node.net.take()
    (payer_half,) = block.txs
    assert payer_half.kind is TxKind.BROKER_PAYER_HALF
    assert payer_half.payee == broker
    assert [d for d, _ in outs] == [1]
    (payee_half,) = outs[0][1].body.txs
    assert payee_half.kind is TxKind.BROKER_PAYEE_HALF
    assert payee_half.origin_hash == cross.hash
    assert mech.op_mining(node, now=11) is None
    assert node.net.sent == [], "nothing is re-emitted later"

    # the payee half lands and commits locally on the other side
    target = FakeNode(1, pmap)
    mech.handle_inter_shard_msg(target, outs[0][1], now=20)
    tgt_block = mech.op_mining(target, now=30)
    assert [tx.kind for tx in tgt_block.txs] == [TxKind.BROKER_PAYEE_HALF]
    assert target.net.sent == []


def test_broker_commit_sends_only_its_block_info():
    broker = addr("mech-broker5", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    node = FakeNode(0, pmap)
    mech = BrokerMechanism()
    node.pool.preload([ctx_tx(P0, P1), regular_tx(Q0, P0)])
    block = mech.op_mining(node, now=10)
    assert [tx.kind for tx in block.txs] == [TxKind.BROKER_PAYER_HALF, TxKind.REGULAR]
    ((to, env),) = node.commit(mech, block, now=15)
    assert (to, env.msg_type) == (SUPERVISOR_ID, "block_info")
    assert env.body.block is block and env.body.commit_time == 15


def test_broker_payer_half_follows_its_payer():
    broker = addr("mech-broker4", shard=0)
    pmap = PartitionMap(n_shards=2, brokers=frozenset({broker}))
    node = FakeNode(0, pmap)
    mech = BrokerMechanism()
    half = make_transaction(
        P1, broker, 3, 0, kind=TxKind.BROKER_PAYER_HALF, origin_hash=b"\x02" * 32
    )
    node.pool.preload([half])
    block = mech.op_mining(node, now=10)
    outs = node.net.take()
    assert block is None
    assert [d for d, _ in outs] == [1]
    assert outs[0][1].msg_type == "inject_txs"


HOME_BROKER = addr("mech-home-broker", shard=0)
HOME_PMAP = PartitionMap(n_shards=2, brokers=frozenset({HOME_BROKER}))


def _half(payer, payee, kind):
    return make_transaction(payer, payee, 3, 0, kind=kind, origin_hash=b"\x05" * 32)


@pytest.mark.parametrize("mechanism", ["relay", "broker"])
@pytest.mark.parametrize("tx", [
    regular_tx(P1, Q0),                                     # remote payer
    regular_tx(HOME_BROKER, P1),                            # broker payer: payee's shard
    _half(P1, HOME_BROKER, TxKind.BROKER_PAYER_HALF),
    _half(P1, Q0, TxKind.INTER_RELAY),
    _half(HOME_BROKER, P1, TxKind.BROKER_PAYEE_HALF),
], ids=["regular_remote_payer", "regular_broker_payer", "broker_payer_half",
        "inter_relay", "broker_payee_half"])
def test_mining_forwards_misplaced_entries_to_their_exec_home(mechanism, tx):
    home = exec_home_shard(tx, HOME_PMAP)
    node = FakeNode(1 - home, HOME_PMAP)
    node.pool.preload([tx])
    block = make_mechanism(mechanism).op_mining(node, now=10)
    assert block is None
    ((dest, env),) = node.net.sent
    assert dest == home
    channel = "relay_ctx" if tx.kind in CREDIT_KINDS else "inject_txs"
    assert env.msg_type == channel
    assert [t.hash for t in env.body.txs] == [tx.hash]


def test_mining_blocked_while_locked():
    node = FakeNode(0, TWO)
    mech = RelayMechanism()
    node.pool.preload([regular_tx(P0, Q0)])
    node.pool.lock()
    block = mech.op_mining(node, now=10)
    assert block is None and node.net.sent == []
    assert len(node.pool) == 1


def test_verification_rejects_unannounced_migration_block():
    node = FakeNode(0, TWO)
    mech = RelayMechanism()
    fake = FakeNode(0, TWO)
    session = MigrationController()
    session.on_partition_result(fake, _announce(1, {P0: 1}), now=0)
    block = session.build_block(fake, now=5)
    assert mech.op_verification(node, block) is RejectReason.MALFORMED


def test_dispatch_rejects_unknown_inter_shard_type():
    mech = RelayMechanism()
    with pytest.raises(ValueError):
        mech.handle_inter_shard_msg(FakeNode(0, TWO), Envelope("stop", "x", None), 0)


def test_make_mechanism():
    assert isinstance(make_mechanism("relay"), RelayMechanism)
    assert isinstance(make_mechanism("broker"), BrokerMechanism)
    with pytest.raises(ValueError):
        make_mechanism("teleport")

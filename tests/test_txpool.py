"""Transaction pool: ordering, locking, and the accounting invariant."""

import dataclasses
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import addr, exec_home_shard, regular_tx
from shardemu import mechanisms, txpool
from shardemu.core import PartitionMap, TxKind, make_transaction
from shardemu.mechanisms import RelayMechanism
from shardemu.txpool import PoolLocked, PoolNotLocked, TxPool, WrongShard

A0 = addr("p0", shard=0)
B0 = addr("p1", shard=0)
A1 = addr("q0", shard=1)
PMAP = PartitionMap(n_shards=2)


def _txs(n, payer=A0, payee=B0):
    return [regular_tx(payer, payee, value=1 + i, nonce=i) for i in range(n)]


def _keep_all(queue, key):
    """A split rule that takes nothing, for requeue alone."""
    return [], None


def _take_hashes(queue, hashes):
    """A split rule that takes the queued entries with the given hashes."""
    taken = [t for t in queue if t.hash in hashes]
    return taken, len(taken)


def _credit(payee, nonce=0):
    return make_transaction(
        A0, payee, 1, nonce, kind=TxKind.INTER_RELAY, origin_hash=b"\x09" * 32
    )


def test_preload_keeps_stamps_and_orders_fifo():
    pool = TxPool(0)
    txs = [regular_tx(A0, B0, nonce=i, inject_time=40 + i) for i in range(5)]
    assert pool.preload(txs) == 5
    assert [t.inject_time for t in pool.snapshot()] == [40, 41, 42, 43, 44]
    packed = pool.pack_block_txs(3)
    assert [t.hash for t in packed] == [t.hash for t in txs[:3]]
    assert len(pool) == 2


def test_pack_caps_at_theta_and_empties():
    pool = TxPool(0)
    pool.preload(_txs(2))
    assert len(pool.pack_block_txs(10)) == 2
    assert pool.pack_block_txs(10) == []


def test_preload_keeps_existing_stamps():
    pool = TxPool(0)
    txs = _txs(3)
    for t in txs:
        t.inject_time = 0
    pool.preload(txs)
    assert all(t.inject_time == 0 for t in pool.snapshot())
    assert pool.injected == 3


def test_append_relays_validates_kind_and_shard():
    pool = TxPool(1)
    pool.append_relays([_credit(A1)], PMAP)
    assert len(pool) == 1
    with pytest.raises(WrongShard):
        pool.append_relays([_credit(B0)], PMAP)  # payee lives in shard 0
    with pytest.raises(WrongShard):
        pool.append_relays([regular_tx(A1, A1)], PMAP)  # not a credit half
    with pytest.raises(WrongShard):
        # one bad entry poisons the whole batch before anything lands
        pool.append_relays([_credit(A1, nonce=1), _credit(B0)], PMAP)
    assert len(pool) == 1


def test_lock_blocks_packing_not_injection():
    pool = TxPool(0)
    pool.preload(_txs(2))
    pool.lock()
    with pytest.raises(PoolLocked):
        pool.pack_block_txs(1)
    pool.preload(_txs(1, payer=B0, payee=A0))
    assert len(pool) == 3
    pool.unlock()
    assert len(pool.pack_block_txs(10)) == 3


def test_extraction_requires_lock():
    pool = TxPool(0)
    txs = _txs(4)
    pool.preload(txs)
    with pytest.raises(PoolNotLocked):
        pool.extract_for_migration({A0})
    pool.lock()
    moved = pool.extract_for_migration({A0})
    assert len(moved) == 4 and len(pool) == 0
    assert pool.extract_for_migration({A0}) == []


def test_extraction_matches_either_endpoint():
    pool = TxPool(0)
    stay = regular_tx(B0, B0, nonce=0)
    as_payer = regular_tx(A0, B0, nonce=0)
    as_payee = regular_tx(B0, A0, nonce=1)
    pool.preload([stay, as_payer, as_payee])
    pool.lock()
    moved = pool.extract_for_migration({A0})
    assert {t.hash for t in moved} == {as_payer.hash, as_payee.hash}
    assert [t.hash for t in pool.snapshot()] == [stay.hash]


def test_requeue_appends_at_tail():
    pool = TxPool(0)
    pool.preload(_txs(2))
    late = regular_tx(B0, A0, nonce=7)
    pool.split(_keep_all, None, [late])
    assert pool.snapshot()[-1].hash == late.hash
    assert pool.appended == 1


def test_discard_and_remove_committed():
    pool = TxPool(0)
    txs = _txs(5)
    pool.preload(txs)
    assert pool.split(_take_hashes, {txs[1].hash}) == 1
    assert pool.extracted == 1
    assert pool.remove_committed({txs[0].hash, txs[2].hash}) == 2
    # removal by hash does not care where in the queue an entry sits
    assert pool.remove_committed({txs[4].hash}) == 1
    assert [t.hash for t in pool.snapshot()] == [txs[3].hash]
    assert pool.remove_committed(set()) == 0
    assert pool.remove_committed({b"\x00" * 32}) == 0


COUNTERS = ("injected", "appended", "packed", "extracted", "removed")


def test_copy_keeps_queue_lock_and_counters_and_shares_only_split_records():
    pool = TxPool(0)
    txs = _txs(8)
    pool.preload(txs)
    pool.split(_keep_all, None, [regular_tx(B0, A0, nonce=9)])
    pool.pack_block_txs(2)
    pool.split(_take_hashes, {txs[3].hash})
    pool.remove_committed({txs[4].hash})
    pool.lock()
    copy = pool.copy()
    assert copy.shard_id == 0 and copy.locked
    assert copy.snapshot() == pool.snapshot()
    assert [getattr(copy, c) for c in COUNTERS] == [getattr(pool, c) for c in COUNTERS] \
        == [8, 1, 2, 1, 1]
    pool.unlock()
    assert copy.locked
    copy.unlock()
    before = pool.snapshot()
    copy.pack_block_txs(2)
    copy.split(_keep_all, None, [regular_tx(B0, A0, nonce=10)])
    assert pool.snapshot() == before and (pool.packed, pool.appended) == (2, 1)
    assert copy._splits is pool._splits and set(pool._splits) == {_keep_all, _take_hashes}


@pytest.mark.parametrize("drain", ["pack", "remove", "extract"])
def test_drained_pool_hands_its_table_back(drain):
    """A dict never shrinks on deletion; a pool emptied by any route holds
    no more than a new pool does, and keeps working."""
    pool = TxPool(0)
    txs = _txs(10_000)
    pool.preload(txs)
    if drain == "pack":
        while len(pool):
            pool.pack_block_txs(200)
    elif drain == "remove":
        pool.remove_committed({t.hash for t in txs})
    else:
        pool.lock()
        pool.extract_for_migration({A0})
        pool.unlock()
    assert len(pool) == 0
    assert sys.getsizeof(pool._queue) == sys.getsizeof(TxPool(0)._queue)
    pool.preload(txs[:3])
    assert pool.snapshot() == txs[:3]


def test_copies_share_one_queue_until_each_first_writes_it():
    """Reads share the dict; each holder's first write (``_add``, ``_pop``,
    either path of ``split``) gives it up, a copy for every holder but the
    last, which keeps that very object. The dict is never written while
    shared."""
    first = TxPool(0)
    txs = _txs(6)
    first.preload(txs)
    shared = first._queue
    pools = [first] + [first.copy() for _ in range(4)]
    for pool in pools:
        assert len(pool) == 6 and list(pool) == pool.snapshot() == txs
    assert all(pool._queue is shared for pool in pools)

    pools[1].pack_block_txs(2)
    assert pools[1].snapshot() == txs[2:] and pools[1]._queue is not shared
    pools[2].split(_keep_all, None, [regular_tx(B0, A0, nonce=9)])
    pools[3].split(_keep_all, None, [regular_tx(B0, A0, nonce=9)])
    assert first._splits[_keep_all].adopted == 1
    assert pools[3].snapshot() == pools[2].snapshot() and pools[3]._queue is not shared
    assert pools[0]._queue is pools[4]._queue is shared and list(shared.values()) == txs
    pools[4].remove_committed({b"\x00" * 32})
    assert pools[4]._queue is not shared and pools[4].snapshot() == txs
    pools[0].preload(txs[:1])
    assert pools[0]._queue is shared, "the last holder takes the dict itself"
    assert len({id(pool._queue) for pool in pools}) == 5


def test_a_threaded_first_write_leaves_one_dict_per_copy():
    """Over TCP a shard's replicas are threads: four copies writing their
    first entries at once end with four distinct dicts, the last holder
    with the shared one, and every copy's queue as its own writes left it."""
    txs = _txs(2_000)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            first = TxPool(0)
            first.preload(txs)
            shared = first._queue
            pools = [first] + [first.copy() for _ in range(3)]
            start = threading.Barrier(len(pools))

            def write(i, pool):
                start.wait(timeout=10)
                pool.remove_committed({txs[i].hash})

            threads = [threading.Thread(target=write, args=(i, pool))
                       for i, pool in enumerate(pools)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len({id(pool._queue) for pool in pools}) == 4
            assert [pool._queue is shared for pool in pools].count(True) == 1
            for i, pool in enumerate(pools):
                assert pool.snapshot() == txs[:i] + txs[i + 1:] and pool.removed == 1
    finally:
        sys.setswitchinterval(switch)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["inject", "append", "readd", "pack", "extract", "remove", "discard", "drain"]
        ),
        min_size=1,
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_accounting_invariant(ops, rng):
    """size == injected + appended - packed - extracted - removed, always."""
    pool = TxPool(0)
    nonce = 0
    for op in ops:
        if op == "inject":
            n = rng.randint(1, 4)
            pool.preload([regular_tx(A0, B0, nonce=nonce + i) for i in range(n)])
            nonce += n
        elif op == "append":
            half = make_transaction(
                A1, B0, 1, nonce, kind=TxKind.INTER_RELAY,
                origin_hash=bytes([nonce % 256]) * 32,
            )
            pool.append_relays([half], PartitionMap(n_shards=1))
            nonce += 1
        elif op == "readd":
            queued = pool.snapshot()
            if queued:
                before = len(pool)
                pool.preload([rng.choice(queued)])
                assert len(pool) == before
        elif op == "pack":
            if not pool.locked:
                pool.pack_block_txs(rng.randint(1, 5))
        elif op == "extract":
            pool.lock()
            pool.extract_for_migration({A0} if rng.random() < 0.5 else {B0})
            pool.unlock()
        elif op == "remove":
            queued = pool.snapshot()
            chosen = {t.hash for t in queued[: rng.randint(0, len(queued))]}
            pool.remove_committed(chosen)
        elif op == "discard":
            queued = pool.snapshot()
            chosen = {t.hash for t in queued if rng.random() < 0.3}
            pool.split(_take_hashes, chosen)
        elif op == "drain":
            # Empty the pool by packing, then put everything back.
            queued = pool.snapshot()
            packed = []
            while len(pool):
                packed += pool.pack_block_txs(rng.randint(1, 5))
            assert packed == queued
            assert pool.injected + pool.appended - pool.packed - pool.extracted \
                - pool.removed == 0
            appended = pool.appended
            pool.split(_keep_all, None, packed)
            assert pool.appended - appended == len(queued)
            assert pool.snapshot() == queued
        assert len(pool) == (
            pool.injected + pool.appended - pool.packed - pool.extracted - pool.removed
        )


# --- the split record shared by a pool's copies ---


def test_copies_adopt_a_split_only_from_an_equal_queue_key_and_requeue():
    first = TxPool(0)
    txs = _txs(6)
    first.preload(txs)
    copies = [first.copy() for _ in range(5)]
    keys = []

    def odd_nonces(queue, key):
        keys.append(key)
        taken = [t for t in queue if t.nonce % 2]
        return taken, [t.hash for t in taken]

    late = [regular_tx(B0, A0, nonce=8)]
    want = first.split(odd_nonces, "k", late)
    assert want == [txs[1].hash, txs[3].hash, txs[5].hash] and keys == ["k"]
    queue = first.snapshot()
    assert queue == [txs[0], txs[2], txs[4], late[0]]

    # Hit: an equal queue, key and requeue, objects equal but distinct.
    twin = copies[0]
    assert twin.split(odd_nonces, "k", [dataclasses.replace(late[0])]) is want
    assert keys == ["k"], "an adopted split runs no rule"
    assert twin.snapshot() == queue and twin._queue is not first._queue
    assert [getattr(twin, c) for c in COUNTERS] == [getattr(first, c) for c in COUNTERS] \
        == [6, 1, 0, 3, 0]
    twin.pack_block_txs(1)
    assert first.snapshot() == queue, "the adopted queue is a copy"

    # Misses: another key, another requeue, another queue, another order.
    assert copies[1].split(odd_nonces, "other", late) == want and keys == ["k", "other"]
    assert copies[2].split(odd_nonces, "other", []) == want and len(keys) == 3
    assert copies[2].snapshot() == queue[:3] and copies[2].appended == 0
    copies[3].pack_block_txs(2)
    assert copies[3].split(odd_nonces, "other", []) == want[1:] and len(keys) == 4
    copies[4]._queue = dict(reversed(copies[4]._queue.items()))
    assert copies[4].split(odd_nonces, "other", []) == want[::-1] and len(keys) == 5

    # A split every other copy has adopted is let go.
    solo = TxPool(0)
    solo.preload(txs)
    mate = solo.copy()
    solo.split(odd_nonces, "k")
    assert odd_nonces in solo._splits and len(keys) == 6
    mate.split(odd_nonces, "k")
    assert odd_nonces not in solo._splits and len(keys) == 6
    assert mate.snapshot() == solo.snapshot() == [txs[0], txs[2], txs[4]]


ACCTS = [addr(f"split{i}", shard=0) for i in range(4)] + \
        [addr(f"split{i}", shard=1) for i in range(4, 6)]
SPLIT_MAPS = [
    PartitionMap(n_shards=2),
    PartitionMap(n_shards=2, version=1, overrides={ACCTS[0]: 1, ACCTS[1]: 1}),
    PartitionMap(n_shards=2, version=2, overrides={ACCTS[0]: 1, ACCTS[4]: 0}),
    PartitionMap(n_shards=2, overrides={ACCTS[1]: 1}, brokers=frozenset({ACCTS[5]})),
]

_SPLIT_OPS = st.one_of(
    st.tuples(st.just("preload"),
              st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=4)),
    st.tuples(st.just("append"), st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3)),
    st.tuples(st.just("pack"), st.integers(1, 4)),
    st.tuples(st.just("remove"), st.lists(st.integers(0, 60), max_size=4)),
    st.tuples(st.just("lock"), st.booleans()),
    st.tuples(st.just("extract"), st.frozensets(st.integers(0, 5), max_size=3)),
    st.tuples(st.just("evict"), st.integers(0, len(SPLIT_MAPS) - 1),
              st.lists(st.integers(0, 60), max_size=5)),
)


class _Model:
    """One copy's pool as the algorithm before shared splits kept it: an
    ordered dict by hash and the five counters."""

    def __init__(self, queue):
        self.queue = {t.hash: t for t in queue}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts["injected"] = len(queue)

    def add(self, txs, counter):
        for t in txs:
            if t.hash not in self.queue:
                self.queue[t.hash] = t
                self.counts[counter] += 1

    def take(self, taken, counter):
        for t in taken:
            if self.queue.pop(t.hash, None) is not None:
                self.counts[counter] += 1

    def extract(self, dirty):
        moved = [t for t in self.queue.values() if t.payer in dirty or t.payee in dirty]
        self.take(moved, "extracted")
        return moved

    def requeue_and_evict(self, requeue, pmap):
        self.add(requeue, "appended")
        gone = {}
        for t in self.queue.values():
            home = exec_home_shard(t, pmap)
            if home != 0:
                gone.setdefault(home, []).append(t)
        self.take([t for txs in gone.values() for t in txs], "extracted")
        return gone


class _Net:
    def __init__(self):
        self.sent = []

    def broadcast_shard(self, shard, env, include_self=False):
        self.sent.append((shard, env.msg_type, list(env.body.txs)))


def _forwarded(gone):
    """What ``mechanisms.forward`` sends for ``gone``, as (shard, message
    type, transactions)."""
    node = SimpleNamespace(nid="0.0", shard_id=0, net=_Net())
    mechanisms.forward(node, gone)
    return node.net.sent


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_copies_sharing_splits_match_the_unshared_algorithm(data):
    """2-4 copies of one pool run one random operation list, one copy at a
    time per step, as a shard's replicas do. A copy may skip an operation,
    swap it with the next, or get equal but distinct transactions, as a
    decoded frame gives. Every extraction and requeue-then-evict takes
    what the unshared algorithm takes, and every step leaves each copy's
    queue order and counters as that algorithm leaves them. A split is
    adopted exactly when the copy's queue, key and requeue equal those of
    the shard's last split under the same rule, and let go once every
    other copy has adopted it."""
    n_copies = data.draw(st.integers(2, 4), label="copies")
    ops = data.draw(st.lists(_SPLIT_OPS, min_size=1, max_size=20), label="ops")
    made = [regular_tx(ACCTS[i % 4], ACCTS[(i + 1) % 6], nonce=i) for i in range(3)]
    steps = []
    for op in ops:
        if op[0] == "preload":
            txs = [regular_tx(ACCTS[a], ACCTS[b], nonce=len(made) + j)
                   for j, (a, b) in enumerate(op[1])]
            made += txs
            steps.append(("preload", txs))
        elif op[0] == "append":
            txs = [_credit(ACCTS[k], nonce=len(made) + j) for j, k in enumerate(op[1])]
            made += txs
            steps.append(("append", txs))
        elif op[0] == "remove":
            steps.append(("remove", {made[i % len(made)].hash for i in op[1]}))
        elif op[0] == "extract":
            steps.append(("extract", {ACCTS[i] for i in op[1]}))
        elif op[0] == "evict":
            steps.append(("evict", SPLIT_MAPS[op[1]], [made[i % len(made)] for i in op[2]]))
        else:
            steps.append(op)

    first = TxPool(0)
    first.preload(made[:3])
    pools = [first] + [first.copy() for _ in range(n_copies - 1)]
    models = [_Model(made[:3]) for _ in pools]
    plans = [steps]
    for c in range(1, n_copies):
        plan = list(steps)
        for _ in range(data.draw(st.integers(0, 2), label=f"perturbations of copy {c}")):
            if len(plan) < 2:
                break
            i = data.draw(st.integers(0, len(plan) - 2), label="at")
            if data.draw(st.booleans(), label="skip (else swap)"):
                del plan[i]
            else:
                plan[i], plan[i + 1] = plan[i + 1], plan[i]
        plans.append(plan)
    distinct = [False] + [data.draw(st.booleans(), label=f"copy {c} decodes")
                          for c in range(1, n_copies)]
    last, adopted = {}, {}

    for step in range(max(len(plan) for plan in plans)):
        for c, (pool, model, plan) in enumerate(zip(pools, models, plans)):
            if step >= len(plan):
                continue
            own = (lambda txs: [dataclasses.replace(t) for t in txs]) if distinct[c] \
                else (lambda txs: list(txs))
            what, *args = plan[step]
            if what == "preload":
                pool.preload(own(args[0]))
                model.add(args[0], "injected")
            elif what == "append":
                pool.append_relays(own(args[0]), SPLIT_MAPS[0])
                model.add(args[0], "appended")
            elif what == "pack":
                if not pool.locked:
                    packed = pool.pack_block_txs(args[0])
                    assert packed == list(model.queue.values())[:args[0]]
                    model.take(packed, "packed")
            elif what == "remove":
                pool.remove_committed(args[0])
                model.take([t for t in model.queue.values() if t.hash in args[0]], "removed")
            elif what == "lock":
                pool.lock() if args[0] else pool.unlock()
            else:
                rule = txpool.touching if what == "extract" else mechanisms.misplaced
                if what == "extract":
                    key, requeue = args[0], []
                else:
                    key, requeue = (args[0], 0), own(args[1])
                before = list(model.queue.values())
                hit = last.get(rule) == (key, requeue, before)
                record = pool._splits.get(rule)
                if what == "extract":
                    pool.lock()
                    assert pool.extract_for_migration(set(key)) == model.extract(key)
                else:
                    node = SimpleNamespace(pool=pool, pmap=key[0], shard_id=0, is_leader=True,
                                           nid="0.0", net=_Net())
                    RelayMechanism().evict_misplaced(node, 0, requeue)
                    assert node.net.sent == _forwarded(model.requeue_and_evict(args[1], key[0]))
                after = pool._splits.get(rule)
                assert (after is None or after is record) == hit
                event(f"{what}: {'hit' if hit else 'miss'}")
                if not hit:
                    last[rule], adopted[rule] = (key, requeue, before), 0
                else:
                    adopted[rule] += 1
                    if adopted[rule] == n_copies - 1:
                        # Every copy has it: the split is let go.
                        assert after is None
                        del last[rule]
            assert pool.snapshot() == list(model.queue.values())
            assert {k: getattr(pool, k) for k in COUNTERS} == model.counts
            assert len(pool) == pool.injected + pool.appended - pool.packed \
                - pool.extracted - pool.removed


_POOL_OPS = st.one_of(
    st.tuples(st.just("preload"), st.lists(st.integers(0, 11), min_size=1, max_size=4)),
    st.tuples(st.just("append"), st.lists(st.integers(0, 11), min_size=1, max_size=3)),
    st.tuples(st.just("pack"), st.integers(1, 4)),
    st.tuples(st.just("remove"), st.frozensets(st.integers(0, 11), max_size=4)),
    st.tuples(st.just("split"), st.frozensets(st.integers(0, 11), max_size=3),
              st.lists(st.integers(0, 11), max_size=2)),
    st.tuples(st.just("lock"), st.booleans()),
)
_POOL_TXS = [regular_tx(A0, B0, nonce=i) for i in range(12)]
_POOL_HALVES = [_credit(A1, nonce=i) for i in range(12)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_copies_of_one_pool_match_pools_built_apart(data):
    """Four copies of one preloaded pool and four pools preloaded apart run
    the same random per-pool operations, one pool at a time per step: copy
    i and pool i see equal results, queues and counters at every step,
    whichever copy writes its shared queue first."""
    shared = data.draw(st.lists(_POOL_OPS, max_size=12), label="common ops")
    plans = [shared if data.draw(st.booleans(), label=f"pool {i} runs the common ops")
             else data.draw(st.lists(_POOL_OPS, max_size=12), label=f"pool {i} ops")
             for i in range(4)]
    first = TxPool(1)
    first.preload(_POOL_TXS[:6])
    copies = [first] + [first.copy() for _ in range(3)]
    apart = []
    for _ in range(4):
        pool = TxPool(1)
        pool.preload(_POOL_TXS[:6])
        apart.append(pool)
    for step in range(max(map(len, plans))):
        for plan, mine, theirs in zip(plans, copies, apart):
            if step >= len(plan):
                continue
            what, *args = plan[step]
            got = []
            for pool in (mine, theirs):
                if what == "preload":
                    got.append(pool.preload([_POOL_TXS[i] for i in args[0]]))
                elif what == "append":
                    got.append(pool.append_relays([_POOL_HALVES[i] for i in args[0]], PMAP))
                elif what == "pack":
                    got.append(None if pool.locked else pool.pack_block_txs(args[0]))
                elif what == "remove":
                    got.append(pool.remove_committed({_POOL_TXS[i].hash for i in args[0]}))
                elif what == "split":
                    hashes = frozenset(_POOL_TXS[i].hash for i in args[0])
                    got.append(pool.split(_take_hashes, hashes,
                                          [_POOL_TXS[i] for i in args[1]]))
                else:
                    got.append(pool.lock() if args[0] else pool.unlock())
            assert got[0] == got[1]
            for mine, theirs in zip(copies, apart):
                assert mine.snapshot() == theirs.snapshot() and mine.locked == theirs.locked
                assert [getattr(mine, c) for c in COUNTERS] == \
                    [getattr(theirs, c) for c in COUNTERS]

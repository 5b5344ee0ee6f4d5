"""Transaction pool: ordering, locking, and the accounting invariant."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import addr, regular_tx
from shardemu.core import PartitionMap, TxKind, make_transaction
from shardemu.txpool import PoolLocked, PoolNotLocked, TxPool, WrongShard

A0 = addr("p0", shard=0)
B0 = addr("p1", shard=0)
A1 = addr("q0", shard=1)
PMAP = PartitionMap(n_shards=2)


def _txs(n, payer=A0, payee=B0):
    return [regular_tx(payer, payee, value=1 + i, nonce=i) for i in range(n)]


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
    pool.requeue([late])
    assert pool.snapshot()[-1].hash == late.hash
    assert pool.appended == 1


def test_discard_and_remove_committed():
    pool = TxPool(0)
    txs = _txs(5)
    pool.preload(txs)
    assert pool.discard({txs[1].hash}) == 1
    assert pool.remove_committed({txs[0].hash, txs[2].hash}) == 2
    # removal by hash does not care where in the queue an entry sits
    assert pool.remove_committed({txs[4].hash}) == 1
    assert [t.hash for t in pool.snapshot()] == [txs[3].hash]
    assert pool.remove_committed(set()) == 0
    assert pool.remove_committed({b"\x00" * 32}) == 0


COUNTERS = ("injected", "appended", "packed", "extracted", "removed")


def test_copy_keeps_queue_lock_and_counters_and_shares_no_state():
    pool = TxPool(0)
    txs = _txs(8)
    pool.preload(txs)
    pool.requeue([regular_tx(B0, A0, nonce=9)])
    pool.pack_block_txs(2)
    pool.discard({txs[3].hash})
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
    copy.requeue([regular_tx(B0, A0, nonce=10)])
    assert pool.snapshot() == before and (pool.packed, pool.appended) == (2, 1)


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
            pool.discard(chosen)
        elif op == "drain":
            # Empty the pool by packing, then put everything back.
            queued = pool.snapshot()
            packed = []
            while len(pool):
                packed += pool.pack_block_txs(rng.randint(1, 5))
            assert packed == queued
            assert pool.injected + pool.appended - pool.packed - pool.extracted \
                - pool.removed == 0
            assert pool.requeue(packed) == len(queued)
            assert pool.snapshot() == queued
        assert len(pool) == (
            pool.injected + pool.appended - pool.packed - pool.extracted - pool.removed
        )

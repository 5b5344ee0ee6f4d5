"""Domain model: addresses, transactions, blocks, state, verification."""

import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import addr, regular_tx, suffix_shard
from shardemu.core import (
    ADDRESS_SIZE,
    DERIVED_KINDS,
    EMPTY_TREE_ROOT,
    ZERO_DIGEST,
    AccountState,
    AddressTable,
    Block,
    BlockKind,
    PartitionMap,
    RejectReason,
    StateTree,
    Transaction,
    TxClass,
    TxKind,
    address_from_hex,
    address_to_hex,
    address_to_shard,
    apply_block_to_state,
    apply_migration,
    apply_txs,
    account_from_json,
    account_to_json,
    block_digest,
    block_from_json,
    block_line,
    block_to_json,
    classify_transaction,
    compute_state_root,
    digest,
    genesis_block,
    make_transaction,
    replace_tx_list,
    tx_digest,
    tx_from_json,
    tx_local_to_shard,
    tx_to_json,
    verify_block,
)
from shardemu.transport import BlockInfo, Envelope, decode_frame, encode_frame

A = addr("a", shard=0)
B = addr("b", shard=0)
C = addr("c", shard=1)


# --- addresses ---


def test_address_hex_round_trip():
    text = address_to_hex(A)
    assert text.startswith("0x") and len(text) == 2 + 2 * ADDRESS_SIZE
    assert address_from_hex(text) == A


def test_address_from_hex_prefix_optional():
    bare = A.hex()
    assert address_from_hex(bare) == A
    assert address_from_hex("0x" + bare) == A
    assert address_from_hex("0X" + bare.upper()) == A


@pytest.mark.parametrize(
    "bad",
    ["", "0x", "ab" * 19, "ab" * 21, "zz" * 20, "0x" + "ab" * 19, 42, None,
     "ab" * 19 + "  ", "0x" + "ab" * 19 + "\t ", " " + "ab" * 19 + " ", "ab " * 13 + " "],
)
def test_address_from_hex_rejects(bad):
    with pytest.raises(ValueError):
        address_from_hex(bad)


def test_address_table_gives_one_object_per_account():
    table = AddressTable()
    bare = A.hex()
    first = table[bare]
    assert first == A
    assert table[bare] is first
    # Equal literals built apart, and other spellings of the account, too.
    assert table["".join(list(bare))] is first
    assert table["0x" + bare] is first
    assert table["0X" + bare.upper()] is first
    assert table[C.hex()] == C and table[C.hex()] is not first


@pytest.mark.parametrize("bad", ["", "zz" * 20, "ab" * 19 + "  ", 42, None])
def test_address_table_refuses_a_bad_literal_and_does_not_store_it(bad):
    table = AddressTable()
    with pytest.raises(ValueError, match="bad address literal"):
        table[bad]
    assert len(table) == 0
    with pytest.raises(ValueError):
        table[bad]
    # A non-string literal that cannot even be a key is refused as well.
    with pytest.raises(TypeError):
        table[["ab" * 20]]


# --- transactions ---


def test_tx_hash_covers_identity_not_timing():
    base = make_transaction(A, B, 7, 0)
    later = make_transaction(A, B, 7, 0, inject_time=999)
    fee = make_transaction(A, B, 7, 0, fee=50)
    assert base.hash == later.hash == fee.hash
    assert make_transaction(A, B, 7, 1).hash != base.hash
    assert make_transaction(A, B, 8, 0).hash != base.hash
    assert make_transaction(B, A, 7, 0).hash != base.hash


def test_tx_hash_distinguishes_kind_and_origin():
    original = make_transaction(A, C, 5, 0, kind=TxKind.ORIGINAL_CTX)
    intra = make_transaction(
        A, C, 5, 0, kind=TxKind.INTRA_RELAY, origin_hash=original.hash
    )
    inter = make_transaction(
        A, C, 5, 0, kind=TxKind.INTER_RELAY, origin_hash=original.hash
    )
    assert len({original.hash, intra.hash, inter.hash}) == 3


def test_make_transaction_validation():
    with pytest.raises(ValueError):
        make_transaction(A[:-1], B, 1, 0)
    with pytest.raises(ValueError):
        make_transaction(A, B, -1, 0)
    with pytest.raises(ValueError):
        make_transaction(A, B, 1 << 128, 0)
    with pytest.raises(ValueError):
        make_transaction(A, B, 1, 0, kind=TxKind.INTER_RELAY)  # no origin
    with pytest.raises(ValueError):
        make_transaction(A, B, 1, 0, kind=TxKind.REGULAR, origin_hash=b"\x01" * 32)


def test_replace_tx_list_copies():
    txs = [make_transaction(A, B, 1, n) for n in range(3)]
    copies = replace_tx_list(txs)
    assert [t.hash for t in copies] == [t.hash for t in txs]
    copies[0].inject_time = 7
    assert txs[0].inject_time is None


# --- partitioning and classification ---


def test_address_to_shard_respects_overrides():
    pmap = PartitionMap(n_shards=2)
    assert address_to_shard(A, pmap) == 0
    assert address_to_shard(C, pmap) == 1
    pinned = pmap.updated(1, {A: 1})
    assert pinned.version == 1
    assert address_to_shard(A, pinned) == 1
    assert address_to_shard(C, pinned) == 1  # untouched


def test_updated_merges_overrides_and_brokers():
    pmap = PartitionMap(n_shards=2)
    v1 = pmap.updated(1, {A: 1})
    v2 = v1.updated(2, {B: 1}, brokers=[C])
    assert v2.overrides == {A: 1, B: 1}
    assert v2.brokers == frozenset({C})
    assert v1.brokers == frozenset()


def _reference_shard(a, pmap):
    return pmap.overrides.get(a, suffix_shard(a, pmap.n_shards))


def test_shard_table_matches_reference_along_update_chains():
    # Accounts move, move again, and move back to their default shard. Each
    # map is half warmed before its child is built, and every map is
    # queried again once the whole chain exists.
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4, 8))
        accounts = [addr(f"table-{seed}-{i}") for i in range(60)]
        chain = [PartitionMap(n_shards=n)]
        for version in range(1, 12):
            parent = chain[-1]
            for a in rng.sample(accounts, 30):
                assert address_to_shard(a, parent) == _reference_shard(a, parent)
            moved = rng.sample(accounts, 5) + rng.sample(sorted(parent.overrides) or accounts, 2)
            assignments = {
                a: suffix_shard(a, n) if rng.random() < 0.3 else rng.randrange(n)
                for a in moved
            }
            brokers = rng.sample(accounts, 2) if rng.random() < 0.3 else None
            chain.append(parent.updated(version, assignments, brokers))
        assert any(chain[-1].overrides[a] == suffix_shard(a, n) for a in chain[-1].overrides)
        for pmap in chain:
            for a in accounts:
                assert address_to_shard(a, pmap) == _reference_shard(a, pmap)


def test_child_never_writes_into_its_parents_table():
    parent = PartitionMap(n_shards=2, version=3, overrides={B: 1})
    for a in (A, B, C):
        address_to_shard(a, parent)
    before = dict(parent._shard_of)
    child = parent.updated(4, {A: 1, C: 0})
    others = [addr(f"child-{i}") for i in range(20)]
    for a in [A, B, C] + others:
        assert address_to_shard(a, child) == _reference_shard(a, child)
    assert parent._shard_of == before
    assert child._shard_of is not parent._shard_of
    assert [address_to_shard(a, parent) for a in (A, B, C)] == [0, 1, 1]


def test_equality_and_repr_ignore_the_table():
    cold = PartitionMap(n_shards=2, version=1, overrides={A: 1})
    warm = PartitionMap(n_shards=2, version=1, overrides={A: 1})
    for a in (A, B, C):
        address_to_shard(a, warm)
    assert cold == warm
    assert repr(cold) == repr(warm)
    assert "_shard_of" not in repr(warm)
    assert warm == PartitionMap(n_shards=2).updated(1, {A: 1})
    assert warm != PartitionMap(n_shards=2, version=1, overrides={A: 0})


def test_threads_resolve_one_shared_map():
    # Replicas of one process share their initial map across node threads,
    # resolve on it, and each build their own child of it.
    rng = random.Random(9)
    accounts = [addr(f"shared-{i}") for i in range(400)]
    shared = PartitionMap(n_shards=4, overrides={a: rng.randrange(4) for a in accounts[:100]})
    moves = {a: rng.randrange(4) for a in accounts[50:150]}
    orders = [rng.sample(accounts, len(accounts)) for _ in range(8)]
    got = [[] for _ in orders]
    start = threading.Barrier(len(orders))

    def worker(order, out):
        start.wait(timeout=30)
        for a in order:
            out.append((a, address_to_shard(a, shared), None))
        child = shared.updated(1, moves)
        for a in order:
            out.append((a, address_to_shard(a, shared), address_to_shard(a, child)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=args) for args in zip(orders, got)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    reference = shared.updated(1, moves)
    for out in got:
        assert len(out) == 2 * len(accounts)
        for a, here, there in out:
            assert here == _reference_shard(a, shared)
            assert there is None or there == _reference_shard(a, reference)
    assert shared._shard_of == {a: _reference_shard(a, shared) for a in accounts}


def test_classify_transaction():
    pmap = PartitionMap(n_shards=2)
    assert classify_transaction(regular_tx(A, B), pmap) is TxClass.REGULAR
    assert classify_transaction(regular_tx(A, C), pmap) is TxClass.CROSS_SHARD
    brokered = PartitionMap(n_shards=2, brokers=frozenset({B}))
    assert classify_transaction(regular_tx(A, B), brokered) is TxClass.BROKER_INVOLVED
    assert classify_transaction(regular_tx(B, C), brokered) is TxClass.BROKER_INVOLVED
    with pytest.raises(ValueError):
        classify_transaction(
            make_transaction(A, C, 1, 0, kind=TxKind.INTRA_RELAY, origin_hash=b"\x01" * 32),
            pmap,
        )


def test_tx_local_to_shard():
    pmap = PartitionMap(n_shards=2)
    origin = b"\x01" * 32
    credit = make_transaction(A, C, 1, 0, kind=TxKind.INTER_RELAY, origin_hash=origin)
    debit = make_transaction(A, C, 1, 0, kind=TxKind.INTRA_RELAY, origin_hash=origin)
    assert tx_local_to_shard(credit, 1, pmap) and not tx_local_to_shard(credit, 0, pmap)
    assert tx_local_to_shard(debit, 0, pmap) and not tx_local_to_shard(debit, 1, pmap)
    assert tx_local_to_shard(regular_tx(A, B), 0, pmap)
    assert not tx_local_to_shard(regular_tx(A, C), 0, pmap)
    brokered = PartitionMap(n_shards=2, brokers=frozenset({C}))
    assert tx_local_to_shard(regular_tx(A, C), 0, brokered)  # broker counts everywhere
    original = make_transaction(A, C, 1, 0, kind=TxKind.ORIGINAL_CTX)
    assert not tx_local_to_shard(original, 0, pmap)  # never directly executable


# --- state tree ---


def test_empty_tree_root():
    assert compute_state_root(StateTree()) == EMPTY_TREE_ROOT == digest(b"")


def test_root_insertion_order_independent():
    accounts = [AccountState(addr(f"acct{i}"), balance=i, nonce=i) for i in range(5)]
    fwd = StateTree({a.address: a for a in accounts})
    rev = StateTree({a.address: a for a in reversed(accounts)})
    assert compute_state_root(fwd) == compute_state_root(rev)


def test_root_odd_leaf_promotion():
    accounts = sorted(
        (AccountState(addr(f"odd{i}"), balance=i) for i in range(3)),
        key=lambda a: a.address,
    )

    def leaf(acct):
        return digest(
            acct.address
            + acct.balance.to_bytes(32, "big", signed=True)
            + acct.nonce.to_bytes(8, "big")
        )

    l0, l1, l2 = (leaf(a) for a in accounts)
    expected = digest(digest(l0 + l1) + l2)
    tree = StateTree({a.address: a for a in accounts})
    assert compute_state_root(tree) == expected


def test_root_changes_with_balance():
    tree = StateTree({A: AccountState(A, balance=1)})
    r1 = compute_state_root(tree)
    assert compute_state_root(StateTree({A: AccountState(A, balance=2)})) != r1


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(8))))
def test_root_permutation_invariant(order):
    accounts = [AccountState(addr(f"perm{i}"), balance=i * 7) for i in range(8)]
    tree = StateTree({accounts[i].address: accounts[i] for i in order})
    baseline = StateTree({a.address: a for a in accounts})
    assert compute_state_root(tree) == compute_state_root(baseline)


# --- transitions ---


def test_apply_txs_regular_semantics():
    pre = StateTree()
    post = apply_txs(pre, [regular_tx(A, B, value=10)])
    assert len(pre) == 0, "input snapshot untouched"
    assert post.get(A).balance == -10 and post.get(A).nonce == 1
    assert post.get(B).balance == 10 and post.get(B).nonce == 0


def test_apply_txs_halves_one_sided():
    origin = b"\x02" * 32
    debit = make_transaction(A, C, 4, 0, kind=TxKind.INTRA_RELAY, origin_hash=origin)
    credit = make_transaction(A, C, 4, 0, kind=TxKind.INTER_RELAY, origin_hash=origin)
    payer_side = apply_txs(StateTree(), [debit])
    assert payer_side.get(A).balance == -4 and payer_side.get(A).nonce == 1
    assert payer_side.get(C).balance == 0
    payee_side = apply_txs(StateTree(), [credit])
    assert payee_side.get(C).balance == 4 and payee_side.get(C).nonce == 0
    assert payee_side.get(A).balance == 0
    # debit + credit across the two shards conserve the total
    assert payer_side.get(A).balance + payee_side.get(C).balance == 0


def test_apply_txs_rejects_unexecutable_kind():
    original = make_transaction(A, C, 1, 0, kind=TxKind.ORIGINAL_CTX)
    with pytest.raises(ValueError):
        apply_txs(StateTree(), [original])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 1000)),
        min_size=1,
        max_size=30,
    )
)
def test_apply_txs_conserves_total_balance(triples):
    pool = [addr(f"cons{i}") for i in range(6)]
    nonces = {a: 0 for a in pool}
    txs = []
    for pi, qi, value in triples:
        payer = pool[pi]
        txs.append(regular_tx(payer, pool[qi], value=value, nonce=nonces[payer]))
        nonces[payer] += 1
    post = apply_txs(StateTree(), txs)
    assert sum(acct.balance for acct in post.entries.values()) == 0
    for a in pool:
        assert post.get(a).nonce == nonces[a]


def test_apply_migration_installs_and_departs():
    pre = StateTree({A: AccountState(A, balance=5), B: AccountState(B, balance=7)})
    post = apply_migration(pre, [AccountState(C, balance=9, nonce=2)], [A])
    assert C in post.entries and post.get(C).balance == 9
    assert A not in post.entries and B in post.entries
    assert A in pre.entries, "input snapshot untouched"


# --- incremental state root ---


def _reference_root(state):
    """The root hashed from scratch: every leaf in address order, paired
    level by level, a last unpaired node promoted unchanged."""
    level = [
        digest(a.address + a.balance.to_bytes(32, "big", signed=True) + a.nonce.to_bytes(8, "big"))
        for _, a in sorted(state.entries.items())
    ]
    if not level:
        return digest(b"")
    while len(level) > 1:
        nxt = [digest(level[i] + level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


EXECUTABLE_KINDS = (TxKind.REGULAR, TxKind.INTRA_RELAY, TxKind.BROKER_PAYER_HALF,
                    TxKind.INTER_RELAY, TxKind.BROKER_PAYEE_HALF)


def _random_txs(rng, state, n_txs, fresh_share):
    """``n_txs`` transactions of every executable kind. Each endpoint is a
    new account with probability ``fresh_share``, else one ``state`` holds."""
    held = sorted(state.entries)

    def account():
        if held and rng.random() >= fresh_share:
            return rng.choice(held)
        return rng.randbytes(ADDRESS_SIZE)

    txs = []
    for _ in range(n_txs):
        kind = rng.choice(EXECUTABLE_KINDS)
        origin = None if kind is TxKind.REGULAR else rng.randbytes(32)
        txs.append(make_transaction(account(), account(), rng.randrange(1, 1000),
                                    rng.randrange(5), kind=kind, origin_hash=origin))
    return txs


def _rooted(entries=()):
    tree = StateTree({a.address: a for a in entries})
    compute_state_root(tree)
    return tree


def _credit(payee):
    return make_transaction(A, payee, 1, 0, kind=TxKind.INTER_RELAY, origin_hash=b"\x07" * 32)


def _snapshot(tree):
    """Everything a rooted tree holds, by value."""
    return (tree._root, list(tree._keys), [bytes(level) for level in tree._levels],
            dict(tree.entries))


@pytest.mark.parametrize("seed", range(6))
def test_incremental_root_matches_reference(seed):
    # Chains of blocks that add no account, a few, or only new ones.
    rng = random.Random(seed)
    state = _rooted()
    for _ in range(40):
        txs = _random_txs(rng, state, rng.choice((0, 1, 3, 20, 60)),
                          rng.choice((0.0, 0.0, 0.05, 0.5, 1.0)))
        before = _snapshot(state)
        child = apply_txs(state, txs)
        assert compute_state_root(child) == _reference_root(child)
        assert _snapshot(state) == before, "rooting a child leaves its parent as it was"
        state = child


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_incremental_root_at_odd_and_even_sizes(size):
    rng = random.Random(size)
    base = _rooted(AccountState(rng.randbytes(ADDRESS_SIZE), balance=i) for i in range(size))
    assert compute_state_root(base) == _reference_root(base)
    children = [apply_txs(base, [_credit(key)]) for key in sorted(base.entries)]
    children += [apply_txs(base, [_credit(new)]) for new in
                 (b"\x00" * ADDRESS_SIZE, b"\xff" * ADDRESS_SIZE, rng.randbytes(ADDRESS_SIZE))]
    children.append(apply_txs(base, []))
    for child in children:
        assert compute_state_root(child) == _reference_root(child), len(child)


def test_incremental_root_after_migration():
    rng = random.Random(11)
    base = apply_txs(_rooted(), _random_txs(rng, StateTree(), 40, 1.0))
    compute_state_root(base)
    held = sorted(base.entries)
    installs = [AccountState(held[0], balance=-3, nonce=9),
                AccountState(held[-1], balance=5),
                AccountState(rng.randbytes(ADDRESS_SIZE), balance=4, nonce=1)]
    trees = [
        apply_migration(base, installs, []),
        apply_migration(base, installs, held[1:4]),
        apply_migration(base, [], held[::2]),
        apply_migration(base, installs, [rng.randbytes(ADDRESS_SIZE)]),  # nothing to depart
        apply_migration(base, [], held),
    ]
    for tree in trees:
        assert compute_state_root(tree) == _reference_root(tree)
        child = apply_txs(tree, _random_txs(rng, tree, 10, 0.3))
        assert compute_state_root(child) == _reference_root(child)


def test_two_children_of_one_parent_root_independently():
    rng = random.Random(3)
    parent = apply_txs(_rooted(), _random_txs(rng, StateTree(), 50, 1.0))
    compute_state_root(parent)
    before = _snapshot(parent)
    same_keys = apply_txs(parent, _random_txs(rng, parent, 15, 0.0))
    more_keys = apply_txs(parent, _random_txs(rng, parent, 15, 0.5))
    assert compute_state_root(more_keys) == _reference_root(more_keys)
    assert compute_state_root(same_keys) == _reference_root(same_keys)
    assert _snapshot(parent) == before
    for child in (same_keys, more_keys):
        grandchild = apply_txs(child, _random_txs(rng, child, 15, 0.2))
        assert compute_state_root(grandchild) == _reference_root(grandchild)


def test_children_of_one_parent_are_rooted_safely_between_threads():
    # Threads that share trees may root one child at once, derive from a
    # child another thread is rooting, or root different children of one
    # parent.
    rng = random.Random(5)
    parent = apply_txs(_rooted(), _random_txs(rng, StateTree(), 300, 1.0))
    compute_state_root(parent)
    before = _snapshot(parent)
    blocks = [_random_txs(rng, parent, 30, share) for share in (0.0, 0.0, 0.1, 1.0) * 8]
    shared = [apply_txs(parent, txs) for txs in blocks]
    later = [_random_txs(rng, child, 10, 0.2) for child in shared]
    expected = [
        (_reference_root(child), _reference_root(apply_txs(child, txs)), _reference_root(child))
        for child, txs in zip(shared, later)
    ]
    got = [[] for _ in range(8)]
    start = threading.Barrier(len(got))

    def worker(out):
        start.wait(timeout=30)
        for child, txs, more in zip(shared, blocks, later):
            out.append((compute_state_root(child),
                        compute_state_root(apply_txs(child, more)),
                        compute_state_root(apply_txs(parent, txs))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in got:
        assert out == expected
    assert _snapshot(parent) == before


# --- blocks and verification ---


def _tx_block(state, txs, head, proposer="0.0", shard=0, **over):
    applied = apply_txs(state, txs)
    fields = dict(
        shard_id=shard,
        height=head.height + 1,
        parent_hash=head.hash,
        state_root=compute_state_root(applied),
        proposer=proposer,
        block_kind=BlockKind.TX,
        txs=txs,
        timestamp=100,
    )
    fields.update(over)
    return Block(**fields), applied


def test_genesis_block_shape():
    g = genesis_block(3)
    assert g.height == 0 and g.shard_id == 3
    assert g.parent_hash == ZERO_DIGEST and g.state_root == EMPTY_TREE_ROOT


def test_verify_block_accepts_honest_block():
    head = genesis_block(0)
    state = StateTree()
    pmap = PartitionMap(n_shards=2)
    block, _ = _tx_block(state, [regular_tx(A, B, 5)], head)
    assert verify_block(block, head, state, pmap, theta=10) is None


@pytest.mark.parametrize(
    "mutate,expected",
    [
        (dict(shard_id=1), RejectReason.WRONG_SHARD),
        (dict(height=3), RejectReason.BAD_HEIGHT),
        (dict(parent_hash=b"\x05" * 32), RejectReason.BAD_PARENT),
        (dict(state_root=b"\x06" * 32), RejectReason.BAD_STATE_ROOT),
    ],
)
def test_verify_block_rejections(mutate, expected):
    head = genesis_block(0)
    state = StateTree()
    pmap = PartitionMap(n_shards=2)
    block, _ = _tx_block(state, [regular_tx(A, B, 5)], head, **mutate)
    assert verify_block(block, head, state, pmap, theta=10) is expected


def test_verify_block_oversize_and_locality():
    head = genesis_block(0)
    state = StateTree()
    pmap = PartitionMap(n_shards=2)
    txs = [regular_tx(A, B, 1, nonce=n) for n in range(3)]
    block, _ = _tx_block(state, txs, head)
    assert verify_block(block, head, state, pmap, theta=2) is RejectReason.OVERSIZE
    foreign, _ = _tx_block(state, [regular_tx(A, C, 1)], head)
    assert verify_block(foreign, head, state, pmap, theta=10) is RejectReason.WRONG_SHARD


def test_verify_block_malformed_mixtures():
    head = genesis_block(0)
    state = StateTree()
    pmap = PartitionMap(n_shards=2)
    original = make_transaction(A, C, 1, 0, kind=TxKind.ORIGINAL_CTX)
    hybrid = Block(
        shard_id=0, height=1, parent_hash=head.hash, state_root=EMPTY_TREE_ROOT,
        proposer="0.0", block_kind=BlockKind.MIGRATION, txs=[regular_tx(A, B, 1)],
    )
    assert verify_block(hybrid, head, state, pmap, theta=10) is RejectReason.MALFORMED
    tx_with_installs = Block(
        shard_id=0, height=1, parent_hash=head.hash, state_root=EMPTY_TREE_ROOT,
        proposer="0.0", block_kind=BlockKind.TX,
        migration_installs=[AccountState(A)],
    )
    assert verify_block(tx_with_installs, head, state, pmap, theta=10) \
        is RejectReason.MALFORMED
    raw_original = Block(
        shard_id=0, height=1, parent_hash=head.hash, state_root=EMPTY_TREE_ROOT,
        proposer="0.0", block_kind=BlockKind.TX, txs=[original],
    )
    assert verify_block(raw_original, head, state, pmap, theta=10) \
        is RejectReason.MALFORMED


def test_apply_block_dispatches_by_kind():
    tx_block, applied = _tx_block(StateTree(), [regular_tx(A, B, 2)], genesis_block(0))
    assert compute_state_root(apply_block_to_state(StateTree(), tx_block)) \
        == compute_state_root(applied)
    mig = Block(
        shard_id=0, height=1, parent_hash=genesis_block(0).hash,
        state_root=EMPTY_TREE_ROOT, proposer="0.0", block_kind=BlockKind.MIGRATION,
        migration_installs=[AccountState(C, balance=3)],
    )
    post = apply_block_to_state(StateTree(), mig)
    assert post.get(C).balance == 3


# --- post-state kept on the block ---


def _memo_case(tag):
    """A pre-state and a fresh block over it."""
    payer, payee = addr(f"memo-{tag}-payer", shard=0), addr(f"memo-{tag}-payee", shard=0)
    pre = StateTree({payer: AccountState(payer, balance=50)})
    block, _ = _tx_block(pre, [regular_tx(payer, payee, 7)], genesis_block(0))
    return pre, block


def test_memo_returns_identical_post_state():
    pre, block = _memo_case("same")
    post = apply_block_to_state(pre, block)
    twin = StateTree(dict(pre.entries))
    assert apply_block_to_state(twin, block) is post
    assert apply_block_to_state(pre, block) is post


def test_memo_keys_on_pre_state():
    pre, block = _memo_case("differ")
    other = StateTree({**pre.entries, C: AccountState(C, balance=1)})
    post = apply_block_to_state(pre, block)
    post_other = apply_block_to_state(other, block)
    assert post_other is not post
    assert compute_state_root(post_other) != compute_state_root(post)
    assert compute_state_root(post_other) == compute_state_root(apply_txs(other, block.txs))
    assert verify_block(block, genesis_block(0), other, PartitionMap(n_shards=2), theta=10) \
        is RejectReason.BAD_STATE_ROOT


def test_memo_hands_proposer_state_to_follower():
    pre, block = _memo_case("proposer")
    applied = apply_txs(pre, block.txs)
    block.post = (compute_state_root(pre), applied)
    follower_pre = StateTree(dict(pre.entries))
    assert apply_block_to_state(follower_pre, block) is applied
    assert verify_block(block, genesis_block(0), follower_pre, PartitionMap(n_shards=2),
                        theta=10) is None


# --- serialization ---


def test_tx_json_round_trip():
    original = make_transaction(A, C, 12345, 3, kind=TxKind.ORIGINAL_CTX, fee=2,
                                inject_time=77)
    back = tx_from_json(tx_to_json(original))
    assert back == original
    tampered = tx_to_json(original)
    tampered["value"] = "99999"
    with pytest.raises(ValueError):
        tx_from_json(tampered)


def test_tx_json_confirm_time_override():
    tx = regular_tx(A, B)
    obj = tx_to_json(tx, confirm_time=500)
    assert obj["confirm_time"] == 500


def test_block_json_round_trip():
    head = genesis_block(0)
    block, _ = _tx_block(StateTree(), [regular_tx(A, B, 5)], head)
    obj = block_to_json(block, confirm_time=321)
    assert obj["commit_time"] == 321
    back = block_from_json(obj)
    assert back.hash == block.hash
    assert back.txs[0].hash == block.txs[0].hash
    obj["height"] = 9
    with pytest.raises(ValueError):
        block_from_json(obj)


def test_migration_block_json_round_trip():
    mig = Block(
        shard_id=1, height=4, parent_hash=b"\x01" * 32, state_root=b"\x02" * 32,
        proposer="1.2", block_kind=BlockKind.MIGRATION,
        migration_installs=[AccountState(A, balance=-5, nonce=9)],
        migration_departures=[B], timestamp=60,
    )
    back = block_from_json(block_to_json(mig))
    assert back.hash == mig.hash
    assert back.migration_installs == [AccountState(A, balance=-5, nonce=9)]
    assert back.migration_departures == [B]


@pytest.mark.parametrize("bad", ["soon", True, 1.5, [3]])
def test_tx_from_json_requires_an_integer_inject_time(bad):
    obj = tx_to_json(regular_tx(A, B))
    obj["inject_time"] = bad
    with pytest.raises(ValueError):
        tx_from_json(obj)


def _strict_tx():
    return tx_to_json(make_transaction(A, C, 10, 3, kind=TxKind.ORIGINAL_CTX, fee=1))


# Each form decodes, under int(), to the field's true value, so the hash
# check alone would pass it.
@pytest.mark.parametrize("field, raw", [
    ("value", "1_0"), ("value", " 10"), ("value", "10 "), ("value", "+10"),
    ("value", "010"), ("value", "\u0661\u0660"), ("value", 10), ("value", 10.0),
    ("nonce", 3.9), ("nonce", 3.0), ("nonce", "3"), ("nonce", True),
    ("fee", True), ("fee", "1"), ("fee", 1.0), ("fee", None),
])
def test_tx_from_json_refuses_coerced_numbers(field, raw):
    obj = _strict_tx()
    assert tx_from_json(obj).nonce == 3
    with pytest.raises(ValueError):
        tx_from_json({**obj, field: raw})


@pytest.mark.parametrize("field, raw", [
    ("value", "-10"), ("value", str(1 << 128)), ("nonce", -1), ("nonce", 1 << 64),
])
def test_tx_from_json_refuses_numbers_out_of_range(field, raw):
    with pytest.raises(ValueError):
        tx_from_json({**_strict_tx(), field: raw})


def test_block_from_json_refuses_coerced_numbers():
    head = genesis_block(0)
    block, _ = _tx_block(StateTree(), [regular_tx(A, B, 5)], head)
    obj = block_to_json(block)
    assert block_from_json(obj).hash == block.hash
    for field, raw in [("height", 1.5), ("height", True), ("height", "1"),
                       ("shard_id", 0.0), ("shard_id", False), ("timestamp", str(block.timestamp)),
                       ("height", -1)]:
        with pytest.raises(ValueError):
            block_from_json({**obj, field: raw})


def test_account_from_json_takes_balances_as_str_writes_them():
    good = account_to_json(AccountState(A, balance=-5, nonce=9))
    assert account_from_json(good) == AccountState(A, balance=-5, nonce=9)
    for field, raw in [("balance", "-05"), ("balance", "-0_5"), ("balance", " -5"),
                       ("balance", -5), ("balance", "-5.0"), ("nonce", 9.5), ("nonce", "9")]:
        with pytest.raises(ValueError):
            account_from_json({**good, field: raw})
    assert account_from_json({**good, "balance": "0"}).balance == 0
    with pytest.raises(ValueError):
        account_from_json({**good, "balance": "-0"})


def test_block_from_json_shares_one_object_per_account():
    mig = Block(
        shard_id=1, height=4, parent_hash=b"\x01" * 32, state_root=b"\x02" * 32,
        proposer="1.2", block_kind=BlockKind.MIGRATION,
        migration_installs=[AccountState(A, balance=1, nonce=0)],
        migration_departures=[C], timestamp=60,
    )
    table = AddressTable()
    back = block_from_json(block_to_json(mig), table)
    assert back.migration_installs[0].address is table[address_to_hex(A)]
    assert back.migration_departures[0] is table[address_to_hex(C)]
    txs = [regular_tx(A, B, 1, n) for n in range(3)]
    tx_block = Block(shard_id=0, height=1, parent_hash=ZERO_DIGEST, state_root=ZERO_DIGEST,
                     proposer="0.0", block_kind=BlockKind.TX, txs=txs)
    # Without a table the block gets one of its own.
    back = block_from_json(block_to_json(tx_block))
    assert len({id(t.payer) for t in back.txs}) == 1
    assert len({id(t.payee) for t in back.txs}) == 1


def test_json_decoding_rejects_unknown_kinds():
    tx = tx_to_json(regular_tx(A, B))
    for kind in ("relay", None, ["regular"]):
        with pytest.raises(ValueError):
            tx_from_json({**tx, "kind": kind})
    obj = block_to_json(genesis_block(0))
    with pytest.raises(ValueError):
        block_from_json({**obj, "block_kind": "checkpoint"})


# --- known answers ---

# Hex digests computed before the digest code was last rewritten; any change
# to the hashed layout of a transaction, a block or a state tree shows here.
_KA_PAYER = bytes(range(1, 21))
_KA_PAYEE = bytes(range(101, 121))
_KA_ORIGIN = digest(b"origin")
_KA_TX = {
    (TxKind.REGULAR, False): "673bb6a44e755945c4272c05008d031bd626695ccf27ccc3e4ffc5c9be211a6f",
    (TxKind.ORIGINAL_CTX, False): "cad02a0f72a8e902cef3e7e170da87b2c8c631739fb5f4460f73093c0f93bc2a",
    (TxKind.INTRA_RELAY, True): "09abe024280fbbfb1b270ddd527c9f5f3050d6d50ad6d7fd66d9bbc7616cf62a",
    (TxKind.INTER_RELAY, True): "f8055714463dbbf8e98ddf120acb6ba985d1ec3d6c4288454a805d673c946967",
    (TxKind.BROKER_PAYER_HALF, True):
        "9e29dd73ee43fd77adc42293eda15da30bf3c4aa02b08c0f66bb91c85287ea05",
    (TxKind.BROKER_PAYEE_HALF, True):
        "e264f92234704115b5630b3bc2004eeac3e4c78ac90d1e5ffb9d57d25f953a59",
    (TxKind.REGULAR, True): "cb6adc1d4f0ba9701face04b1db7776d974d2e5f4f0f60eab68c0d426e142e5f",
    (TxKind.ORIGINAL_CTX, True): "a87df7bc3f5e70f64d54cf0d373a279f1588ebcb875a12d87e1914120d0da5c5",
    (TxKind.INTRA_RELAY, False): "64bf70c89ef451145d4297a0467c812fada9cb22b84f5dc2b7785e2a4d0684bc",
}


@pytest.mark.parametrize("kind, with_origin", sorted(_KA_TX, key=lambda k: (k[0].value, k[1])))
def test_tx_digest_known_answers(kind, with_origin):
    origin = _KA_ORIGIN if with_origin else None
    got = tx_digest(_KA_PAYER, _KA_PAYEE, 12345, 7, kind, origin)
    assert got.hex() == _KA_TX[kind, with_origin]
    if (kind in DERIVED_KINDS) == with_origin:
        tx = make_transaction(_KA_PAYER, _KA_PAYEE, 12345, 7, kind=kind, origin_hash=origin)
        assert tx.hash == got


def test_block_digest_known_answers():
    txs = [make_transaction(_KA_PAYER, _KA_PAYEE, 5, 0),
           make_transaction(_KA_PAYEE, _KA_PAYER, 3, 1, kind=TxKind.INTRA_RELAY,
                            origin_hash=_KA_ORIGIN)]
    tx_block = Block(shard_id=1, height=2, parent_hash=_KA_ORIGIN, state_root=EMPTY_TREE_ROOT,
                     proposer="1.0", block_kind=BlockKind.TX, txs=txs, timestamp=1500)
    assert block_digest(tx_block).hex() == (
        "dbaf810660151934cab835f3ac3831e6e4c8786068225b8a4641206397bf2e7c")
    mig = Block(shard_id=0, height=3, parent_hash=_KA_ORIGIN, state_root=EMPTY_TREE_ROOT,
                proposer="0.2", block_kind=BlockKind.MIGRATION,
                migration_installs=[AccountState(_KA_PAYER, -7, 2)],
                migration_departures=[_KA_PAYEE], timestamp=9)
    assert block_digest(mig).hex() == (
        "34d6910ad07038217a4b28950d21e08fbfff758ad6d52714d799e2274e95bd9e")


def test_state_root_known_answer():
    third = _KA_ORIGIN[:ADDRESS_SIZE]
    tree = StateTree({
        _KA_PAYER: AccountState(_KA_PAYER, 10, 1),
        _KA_PAYEE: AccountState(_KA_PAYEE, -10, 0),
        third: AccountState(third, 0, 3),
    })
    assert compute_state_root(tree).hex() == (
        "1fae26ad6b8068a8916a4384deb14aa8c2547da1860e1d2271d17e63054c3de8")


# --- block-file lines ---

_digests = st.binary(min_size=32, max_size=32)
_addresses = st.binary(min_size=ADDRESS_SIZE, max_size=ADDRESS_SIZE)
_txs = st.builds(
    Transaction,
    payer=_addresses,
    payee=_addresses,
    value=st.integers(0, (1 << 128) - 1),
    nonce=st.integers(0, (1 << 63) - 1),
    kind=st.sampled_from(TxKind),
    origin_hash=st.none() | _digests,
    fee=st.integers(0, 1 << 40),
    inject_time=st.none() | st.integers(0, 1 << 40),
)
_blocks = st.builds(
    Block,
    shard_id=st.integers(0, 64),
    height=st.integers(0, 1 << 40),
    parent_hash=_digests,
    state_root=_digests,
    proposer=st.text(max_size=12),
    block_kind=st.sampled_from(BlockKind),
    txs=st.lists(_txs, max_size=6),
    migration_installs=st.lists(
        st.builds(AccountState, address=_addresses,
                  balance=st.integers(-(1 << 255), (1 << 255) - 1),
                  nonce=st.integers(0, (1 << 63) - 1)),
        max_size=3),
    migration_departures=st.lists(_addresses, max_size=3),
    timestamp=st.integers(0, 1 << 40),
)


@settings(max_examples=200, deadline=None)
@given(_blocks, st.none() | st.just(0) | st.integers(1, 1 << 40))
def test_block_line_is_the_json_of_the_block(block, confirm_time):
    line = block_line(block, confirm_time)
    assert line == json.dumps(block_to_json(block, confirm_time))
    # A block the supervisor decoded from a block_info frame writes the same
    # line; the frame's commit time is an integer.
    if confirm_time is not None:
        frame = encode_frame(Envelope("block_info", "0.0", BlockInfo(block, confirm_time, 0, 0)))
        info = decode_frame(frame).body
        assert block_line(info.block, info.commit_time) == line


def test_block_line_covers_every_kind_and_layout():
    txs = [
        Transaction(A, C, (1 << 128) - 1, 7, kind, origin_hash=b"\x05" * 32 if i % 2 else None,
                    fee=3 * i, inject_time=None if i % 3 == 0 else 40 * i)
        for i, kind in enumerate(TxKind)
    ]
    tx_block = Block(shard_id=1, height=3, parent_hash=b"\x01" * 32, state_root=b"\x02" * 32,
                     proposer='1.0 "quoted" \u00e9', block_kind=BlockKind.TX, txs=txs,
                     timestamp=90)
    mig = Block(shard_id=0, height=4, parent_hash=b"\x03" * 32, state_root=b"\x04" * 32,
                proposer="0.2", block_kind=BlockKind.MIGRATION,
                migration_installs=[AccountState(A, balance=-5, nonce=9), AccountState(C)],
                migration_departures=[B, C], timestamp=120)
    empty = Block(shard_id=0, height=5, parent_hash=mig.hash, state_root=b"\x04" * 32,
                  proposer="0.3", block_kind=BlockKind.TX, timestamp=150)
    for block in (tx_block, mig, empty):
        for confirm_time in (None, 0, 450):
            assert block_line(block, confirm_time) == json.dumps(block_to_json(block, confirm_time))



def test_block_hash_covers_content():
    head = genesis_block(0)
    b1, _ = _tx_block(StateTree(), [regular_tx(A, B, 5)], head)
    b2, _ = _tx_block(StateTree(), [regular_tx(A, B, 6)], head)
    assert b1.hash != b2.hash
    b3, _ = _tx_block(StateTree(), [regular_tx(A, B, 5)], head, timestamp=101)
    assert b3.hash != b1.hash

"""Domain model: addresses, transactions, blocks, state, verification."""

import ast
import dataclasses
import hashlib
import json
import random
import re
import sys
import threading
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    addr,
    committed_block,
    crosses,
    reference_tx_from_json,
    regular_tx,
    suffix_shard,
)
import shardemu
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
    TxKind,
    _content_reject,
    _digest,
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
    check_transfer,
    check_transfers,
    compute_state_root,
    crossings,
    digest,
    genesis_block,
    home_accounts,
    home_shards,
    make_transaction,
    tx_digests,
    replace_tx_list,
    tx_digest,
    tx_local_to_shard,
    TX_COLUMNS,
    txs_from_json,
    txs_to_json,
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
    assert base.hash == later.hash
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


def test_updated_hands_back_the_child_it_built_for_the_same_move():
    parent = PartitionMap(n_shards=2, brokers=frozenset({C}))
    child = parent.updated(1, {A: 1})
    assert parent.updated(1, {A: 1}) is child
    assert parent.updated(1, dict([(A, 1)]), brokers=[C]) is child
    assert PartitionMap(n_shards=2, brokers=frozenset({C})).updated(1, {A: 1}) is not child
    for version, assignments, brokers in ((2, {A: 1}, None), (1, {A: 0}, None),
                                          (1, {A: 1, B: 1}, None), (1, {A: 1}, [])):
        child = parent.updated(1, {A: 1})
        other = parent.updated(version, assignments, brokers)
        assert other is not child
        assert other == PartitionMap(
            n_shards=2, version=version, overrides=assignments,
            brokers=frozenset({C} if brokers is None else brokers))


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
    # resolve on it, and each adopt its child (a race may build it twice).
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


def test_crossings():
    pmap = PartitionMap(n_shards=2)
    assert crossings([A, A, C], [B, C, A], pmap) == [False, True, True]
    brokered = PartitionMap(n_shards=2, brokers=frozenset({B}))
    assert crossings([A, A, B, C], [C, B, C, B], brokered) == [True, False, False, False]
    assert crossings([], [], pmap) == []


def test_crossings_classify_a_batch_as_the_oracle_classifies_each():
    accounts = [A, B, C, addr("cross-d"), addr("cross-e")]
    pairs = [(p, q) for p in accounts for q in accounts]
    payers, payees = [p for p, _ in pairs], [q for _, q in pairs]
    for brokers in (frozenset(), frozenset({B}), frozenset({A, C})):
        pmap = PartitionMap(n_shards=3, overrides={C: 0}, brokers=brokers)
        assert crossings(payers, payees, pmap) == [crosses(p, q, pmap) for p, q in pairs]


_REFERENCE_TAG = {TxKind.REGULAR: b"\x00", TxKind.ORIGINAL_CTX: b"\x01",
                  TxKind.INTRA_RELAY: b"\x02", TxKind.INTER_RELAY: b"\x03",
                  TxKind.BROKER_PAYER_HALF: b"\x04", TxKind.BROKER_PAYEE_HALF: b"\x05"}


def _reference_digest(payer, payee, value, nonce, kind, origin):
    """The transaction hash layout, written out: sha256 of payer ‖ payee ‖
    value (16 bytes) ‖ nonce (8 bytes) ‖ the kind's one-byte tag ‖ origin
    hash (empty for none), the integers big-endian."""
    return hashlib.sha256(payer + payee + value.to_bytes(16, "big") + nonce.to_bytes(8, "big")
                          + _REFERENCE_TAG[kind] + origin).digest()


def test_tx_digests_of_originals_hash_the_reference_layout():
    """Stamping's call: injected originals, an endless column of no origin."""
    rng = random.Random(5)
    rows = [(rng.randbytes(ADDRESS_SIZE), rng.randbytes(ADDRESS_SIZE),
             rng.choice([0, 1, rng.randrange(1 << 128), (1 << 128) - 1]), rng.randrange(1 << 64),
             rng.choice([TxKind.REGULAR, TxKind.ORIGINAL_CTX])) for _ in range(50)]
    got = tx_digests(*map(list, zip(*rows)), repeat(b""))
    assert got == [_reference_digest(p, q, v, n, k, b"") for p, q, v, n, k in rows]
    assert got == [tx_digest(p, q, v, n, k, None) for p, q, v, n, k in rows]
    assert tx_digests([], [], [], [], [], repeat(b"")) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=20, max_size=20), st.binary(min_size=20, max_size=20),
                          st.integers(0, (1 << 128) - 1), st.integers(0, (1 << 64) - 1),
                          st.sampled_from(list(TxKind)),
                          st.just(b"") | st.binary(min_size=32, max_size=32)), max_size=8))
def test_tx_digests_hash_the_reference_layout(rows):
    got = tx_digests(*map(list, zip(*rows))) if rows else tx_digests([], [], [], [], [], [])
    assert got == [_reference_digest(*row) for row in rows]
    assert got == [tx_digest(p, q, v, n, k, o or None) for p, q, v, n, k, o in rows]
    if rows:
        # A constant column may be an endless repeat.
        p, q, v, n, k, o = rows[0]
        assert tx_digests(repeat(p), [q] * 3, repeat(v), [n] * 5, repeat(k), repeat(o)) == \
            [_reference_digest(p, q, v, n, k, o)] * 3


@pytest.mark.parametrize("bad", [
    (A[:19], B, 1), (A, B + b"\x00", 1), (A, B, 1 << 128), (A, B, -1),
], ids=["short-payer", "long-payee", "value-2**128", "negative-value"])
def test_check_transfers_raises_what_check_transfer_raises_first(bad):
    good = (A, B, 5)
    with pytest.raises(ValueError) as reference:
        check_transfer(*bad)
    for rows in ([bad], [good, bad, good], [good, bad, (A, B, -1), (A[:1], B, 1)]):
        with pytest.raises(ValueError) as got:
            check_transfers(*map(list, zip(*rows)))
        assert str(got.value) == str(reference.value)
    check_transfers([A, C], [B, A], [0, (1 << 128) - 1])
    check_transfers([], [], [])


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


_R, _O = TxKind.REGULAR, TxKind.ORIGINAL_CTX
_DR, _DB = TxKind.INTRA_RELAY, TxKind.BROKER_PAYER_HALF
_CR, _CB = TxKind.INTER_RELAY, TxKind.BROKER_PAYEE_HALF

# (kind, payer is a broker, payee is a broker, payee's shard) ->
# (home account, local to shard 0, local to shard 1). The payer lives in
# shard 0; the payee in shard 0 ("same") or shard 1 ("diff").
HOME_AND_LOCALITY = {
    (_R, False, False, "same"): ("payer", True, False),
    (_R, False, False, "diff"): ("payer", False, False),
    (_R, False, True, "same"): ("payer", True, False),
    (_R, False, True, "diff"): ("payer", True, False),
    (_R, True, False, "same"): ("payee", True, False),
    (_R, True, False, "diff"): ("payee", False, True),
    (_R, True, True, "same"): ("payer", True, True),
    (_R, True, True, "diff"): ("payer", True, True),
    (_O, False, False, "same"): ("payer", False, False),
    (_O, False, False, "diff"): ("payer", False, False),
    (_O, False, True, "same"): ("payer", False, False),
    (_O, False, True, "diff"): ("payer", False, False),
    (_O, True, False, "same"): ("payee", False, False),
    (_O, True, False, "diff"): ("payee", False, False),
    (_O, True, True, "same"): ("payer", False, False),
    (_O, True, True, "diff"): ("payer", False, False),
    (_DR, False, False, "same"): ("payer", True, False),
    (_DR, False, False, "diff"): ("payer", True, False),
    (_DR, False, True, "same"): ("payer", True, False),
    (_DR, False, True, "diff"): ("payer", True, False),
    (_DR, True, False, "same"): ("payer", True, False),
    (_DR, True, False, "diff"): ("payer", True, False),
    (_DR, True, True, "same"): ("payer", True, False),
    (_DR, True, True, "diff"): ("payer", True, False),
    (_DB, False, False, "same"): ("payer", True, False),
    (_DB, False, False, "diff"): ("payer", True, False),
    (_DB, False, True, "same"): ("payer", True, False),
    (_DB, False, True, "diff"): ("payer", True, False),
    (_DB, True, False, "same"): ("payer", True, False),
    (_DB, True, False, "diff"): ("payer", True, False),
    (_DB, True, True, "same"): ("payer", True, False),
    (_DB, True, True, "diff"): ("payer", True, False),
    (_CR, False, False, "same"): ("payee", True, False),
    (_CR, False, False, "diff"): ("payee", False, True),
    (_CR, False, True, "same"): ("payee", True, False),
    (_CR, False, True, "diff"): ("payee", False, True),
    (_CR, True, False, "same"): ("payee", True, False),
    (_CR, True, False, "diff"): ("payee", False, True),
    (_CR, True, True, "same"): ("payee", True, False),
    (_CR, True, True, "diff"): ("payee", False, True),
    (_CB, False, False, "same"): ("payee", True, False),
    (_CB, False, False, "diff"): ("payee", False, True),
    (_CB, False, True, "same"): ("payee", True, False),
    (_CB, False, True, "diff"): ("payee", False, True),
    (_CB, True, False, "same"): ("payee", True, False),
    (_CB, True, False, "diff"): ("payee", False, True),
    (_CB, True, True, "same"): ("payee", True, False),
    (_CB, True, True, "diff"): ("payee", False, True),
}


def test_home_and_locality_truth_table():
    """Every kind, with payer and payee each a broker or not, in one shard
    or two: the home account (``home_accounts``), its shard (``home_shards``
    over the whole table at once), the locality in each
    shard (``tx_local_to_shard``), and the verification verdict of a
    one-transaction block in each shard."""
    assert {key[0] for key in HOME_AND_LOCALITY} == set(TxKind)
    assert len(HOME_AND_LOCALITY) == len(TxKind) * 2 * 2 * 2
    payers = {False: addr("tt-payer", shard=0), True: addr("tt-broker-payer", shard=0)}
    payees = {(False, "same"): addr("tt-payee0", shard=0),
              (False, "diff"): addr("tt-payee1", shard=1),
              (True, "same"): addr("tt-broker-payee0", shard=0),
              (True, "diff"): addr("tt-broker-payee1", shard=1)}
    brokers = frozenset({payers[True], payees[True, "same"], payees[True, "diff"]})
    pmap = PartitionMap(n_shards=2, brokers=brokers)
    txs, homes = [], []
    for (kind, payer_broker, payee_broker, where), (home, *local) in HOME_AND_LOCALITY.items():
        payer, payee = payers[payer_broker], payees[payee_broker, where]
        origin = digest(b"truth") if kind in DERIVED_KINDS else None
        tx = make_transaction(payer, payee, 1, 0, kind=kind, origin_hash=origin)
        txs.append(tx)
        homes.append(payer if home == "payer" else payee)
        for shard in (0, 1):
            assert tx_local_to_shard(tx, shard, pmap) is local[shard], (kind, shard)
            verdict = _content_reject(committed_block(shard, 1, [tx]), pmap, theta=10)
            if kind is _O:
                assert verdict is RejectReason.MALFORMED
            else:
                assert verdict is (None if local[shard] else RejectReason.WRONG_SHARD)
    assert home_accounts(txs, brokers) == homes
    assert home_shards(txs, pmap) == [address_to_shard(a, pmap) for a in homes]

    # A transfer between two brokers executes at its payer and is local to
    # every shard.
    between = make_transaction(payers[True], payees[True, "diff"], 1, 0)
    assert home_accounts([between], brokers) == [payers[True]]
    assert tx_local_to_shard(between, 0, pmap) and tx_local_to_shard(between, 1, pmap)
    # A debit half whose payer is a broker and whose payee is not executes
    # at its payer, the one shard where it is local.
    debit = make_transaction(payers[True], payees[False, "diff"], 1, 0,
                             kind=_DR, origin_hash=digest(b"truth"))
    assert home_accounts([debit], brokers) == [payers[True]]
    assert home_shards([debit], pmap) == [0]
    assert tx_local_to_shard(debit, 0, pmap) and not tx_local_to_shard(debit, 1, pmap)


def test_only_core_reads_the_resolved_shard_table():
    """``PartitionMap._shard_of`` is read through ``address_to_shard`` and
    the home rules in ``core``; no other module resolves shards inline."""
    src = Path(shardemu.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py")
                     if path.name != "core.py"
                     and re.search(r"\._shard_of\b", path.read_text(encoding="utf-8")))
    assert readers == []


# --- state tree ---


def test_empty_tree_root():
    assert compute_state_root(StateTree()) == EMPTY_TREE_ROOT == digest(b"")


def test_root_insertion_order_independent():
    accounts = [AccountState(addr(f"acct{i}"), balance=i, nonce=i) for i in range(5)]
    fwd = StateTree({a.address: a for a in accounts})
    rev = StateTree({a.address: a for a in reversed(accounts)})
    assert compute_state_root(fwd) == compute_state_root(rev)


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
    pre = _rooted([AccountState(A, balance=3)])
    before = _snapshot(pre)
    with pytest.raises(ValueError, match="unexecutable kind original_ctx"):
        apply_txs(pre, [regular_tx(A, B, 1), original, regular_tx(B, A, 1)])
    assert _snapshot(pre) == before


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
    """The root hashed from scratch: every leaf put in the bucket of its
    address's first byte, each bucket sorted by address and hashed over
    its leaves joined (an empty one over the empty string), each of 16
    middle nodes hashed over 16 consecutive bucket digests, the root over
    the 16 middles. A tree with no accounts hashes the empty string."""
    if not state.entries:
        return digest(b"")
    buckets = [[] for _ in range(256)]
    for a in state.entries.values():
        buckets[a.address[0]].append(a)
    bucket_digests = [
        digest(b"".join(
            digest(a.address + a.balance.to_bytes(32, "big", signed=True)
                   + a.nonce.to_bytes(8, "big"))
            for a in sorted(bucket, key=lambda a: a.address)))
        for bucket in buckets
    ]
    middles = [digest(b"".join(bucket_digests[16 * m:16 * m + 16])) for m in range(16)]
    return digest(b"".join(middles))


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
    return (tree._root, list(tree._buckets), list(tree._middles), dict(tree.entries))


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


# Twelve accounts in three buckets (first bytes 0x00, 0x07 and 0xff), two
# of them under one middle node, so that writes share buckets.
_BUCKETED = [bytes([first]) + bytes([i]) * (ADDRESS_SIZE - 1)
             for first in (0x00, 0x07, 0xFF) for i in range(4)]
_bucketed = st.integers(0, len(_BUCKETED) - 1)
_tx_step = st.lists(st.tuples(st.sampled_from(EXECUTABLE_KINDS), _bucketed, _bucketed,
                              st.integers(0, 50)), max_size=8)
_migration_step = st.tuples(
    st.lists(st.tuples(_bucketed, st.integers(-50, 50), st.integers(0, 5)), max_size=4),
    st.lists(_bucketed, max_size=6))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_tx_step, _migration_step), min_size=1, max_size=12))
def test_derived_root_matches_scratch_over_inserts_updates_and_departures(steps):
    state = _rooted()
    for step in steps:
        if isinstance(step, list):
            state = apply_txs(state, [
                make_transaction(_BUCKETED[p], _BUCKETED[q], value, 0, kind=kind,
                                 origin_hash=None if kind is TxKind.REGULAR else b"\x05" * 32)
                for kind, p, q, value in step])
        else:
            installs, departures = step
            state = apply_migration(
                state, [AccountState(_BUCKETED[i], balance, nonce)
                        for i, balance, nonce in installs],
                [_BUCKETED[i] for i in departures])
        scratch = StateTree(dict(state.entries))
        assert compute_state_root(state) == compute_state_root(scratch) == _reference_root(state)


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


# --- content verdict kept on the block ---


def test_verdict_is_per_map_object_in_either_order():
    # One override moves the payee to shard 1: the same block is local
    # under the first map and not under the second.
    pmap = PartitionMap(n_shards=2)
    moved = pmap.updated(1, {B: 1})
    for order in ((pmap, moved, pmap), (moved, pmap, moved)):
        block, _ = _tx_block(StateTree(), [regular_tx(A, B, 5)], genesis_block(0))
        got = [verify_block(block, genesis_block(0), StateTree(), m, theta=10) for m in order]
        expected = [None if m is pmap else RejectReason.WRONG_SHARD for m in order]
        assert got == expected
        assert block.verdict == (order[-1], 10, expected[-1])


def test_verdict_is_per_theta():
    txs = [regular_tx(A, B, 1, nonce=n) for n in range(150)]
    block, _ = _tx_block(StateTree(), txs, genesis_block(0))
    pmap = PartitionMap(n_shards=2)
    assert verify_block(block, genesis_block(0), StateTree(), pmap, theta=200) is None
    assert verify_block(block, genesis_block(0), StateTree(), pmap, theta=100) \
        is RejectReason.OVERSIZE


def test_head_and_root_checks_run_past_a_shared_verdict():
    head = genesis_block(0)
    pmap = PartitionMap(n_shards=2)
    block, _ = _tx_block(StateTree(), [regular_tx(A, B, 5)], head)
    assert verify_block(block, head, StateTree(), pmap, theta=10) is None
    assert block.verdict == (pmap, 10, None)
    assert verify_block(block, genesis_block(1), StateTree(), pmap, theta=10) \
        is RejectReason.WRONG_SHARD
    assert verify_block(block, block, StateTree(), pmap, theta=10) is RejectReason.BAD_HEIGHT
    other = StateTree({C: AccountState(C, balance=1)})
    assert verify_block(block, head, other, pmap, theta=10) is RejectReason.BAD_STATE_ROOT


def test_copies_and_decoded_blocks_start_without_a_verdict():
    pmap = PartitionMap(n_shards=2)
    block, _ = _tx_block(StateTree(), [regular_tx(A, C, 5)], genesis_block(0))
    assert verify_block(block, genesis_block(0), StateTree(), pmap, theta=10) \
        is RejectReason.WRONG_SHARD
    assert block.verdict is not None
    assert replace(block, state_root=b"\x06" * 32, hash=b"").verdict is None
    assert block_from_json(block_to_json(block)).verdict is None


# --- one write per account ---


def _apply_one_by_one(state, txs):
    """Per-transaction application: each transaction writes a new state
    for every account it touches."""
    entries = dict(state.entries)
    written = set()
    for tx in txs:
        if tx.kind in (TxKind.REGULAR, TxKind.INTRA_RELAY, TxKind.BROKER_PAYER_HALF):
            payer = entries.get(tx.payer, AccountState(tx.payer))
            entries[tx.payer] = AccountState(tx.payer, payer.balance - tx.value, payer.nonce + 1)
            written.add(tx.payer)
        if tx.kind in (TxKind.REGULAR, TxKind.INTER_RELAY, TxKind.BROKER_PAYEE_HALF):
            payee = entries.get(tx.payee, AccountState(tx.payee))
            entries[tx.payee] = AccountState(tx.payee, payee.balance + tx.value, payee.nonce)
            written.add(tx.payee)
    return entries, written


@pytest.mark.parametrize("seed", range(8))
def test_apply_txs_matches_per_transaction_application(seed):
    rng = random.Random(seed)
    held = [rng.randbytes(ADDRESS_SIZE) for _ in range(6)]
    base = _rooted(AccountState(a, balance=rng.randrange(-50, 50), nonce=rng.randrange(4))
                   for a in held)
    # A small account set, so that accounts repeat within a block; half of
    # them are new to the tree.
    accounts = held + [rng.randbytes(ADDRESS_SIZE) for _ in range(6)]
    blocks = [[]]
    for _ in range(12):
        txs = []
        for n in range(rng.randrange(1, 40)):
            kind = rng.choice(EXECUTABLE_KINDS)
            payer = rng.choice(accounts)
            payee = payer if kind is TxKind.REGULAR and rng.random() < 0.2 else rng.choice(accounts)
            origin = None if kind is TxKind.REGULAR else rng.randbytes(32)
            txs.append(make_transaction(payer, payee, rng.randrange(0, 100), n,
                                        kind=kind, origin_hash=origin))
        blocks.append(txs)
    assert any(tx.payer == tx.payee and tx.kind is TxKind.REGULAR
               for txs in blocks for tx in txs)
    for txs in blocks:
        before = _snapshot(base)
        entries, written = _apply_one_by_one(base, txs)
        post = apply_txs(base, txs)
        assert list(post.entries.items()) == list(entries.items()), "same entries, same order"
        assert post._delta == (base, written)
        assert compute_state_root(post) == _reference_root(post)
        assert _snapshot(base) == before, "the input tree is left as it was"


# --- serialization ---


def test_tx_json_round_trip():
    original = make_transaction(A, C, 12345, 3, kind=TxKind.ORIGINAL_CTX,
                                inject_time=77)
    back = txs_from_json(txs_to_json([original]))[0]
    assert back == original
    tampered = txs_to_json([original])
    tampered["value"][0] = "99999"
    with pytest.raises(ValueError):
        txs_from_json(tampered)


def test_txs_json_leaves_the_commit_time_to_the_block():
    """A transaction list is the ``TX_COLUMNS`` arrays alone: no fee and no
    confirm time, which the block's own ``commit_time`` gives."""
    txs = [regular_tx(A, B), make_transaction(A, C, 4, 1, kind=TxKind.INTER_RELAY,
                                              origin_hash=b"\x07" * 32)]
    assert txs_to_json(txs) == {
        "hash": [tx.hash.hex() for tx in txs],
        "payer": [address_to_hex(A)] * 2,
        "payee": [address_to_hex(B), address_to_hex(C)],
        "value": ["1", "4"],
        "nonce": [0, 1],
        "kind": ["regular", "inter_relay"],
        "origin_hash": [None, "07" * 32],
        "inject_time": [0, None],
    }
    assert list(txs_to_json([])) == list(TX_COLUMNS)
    block = Block(shard_id=0, height=1, parent_hash=ZERO_DIGEST, state_root=ZERO_DIGEST,
                  proposer="0.0", block_kind=BlockKind.TX, txs=txs)
    obj = block_to_json(block, confirm_time=500)
    assert obj["commit_time"] == 500 and obj["txs"] == txs_to_json(txs)


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


# Every string form here but the last two decodes under bytes.fromhex.
@pytest.mark.parametrize("raw", [
    "01", "0a 0b", "ab" * 31 + " ab", "AB" * 32, "ab" * 33, "0x" + "ab" * 31, 7, None,
])
def test_digest_takes_only_what_hex_writes(raw):
    good = bytes(range(32))
    assert _digest(good.hex(), "origin_hash") == good
    with pytest.raises(ValueError, match="origin_hash must be 64 lowercase hex digits"):
        _digest(raw, "origin_hash")
    # The origin column is checked whole, in one parse of the joined
    # entries; it refuses each form too, where a null stands for none.
    relay = make_transaction(A, C, 1, 0, kind=TxKind.INTER_RELAY, origin_hash=good)
    obj = txs_to_json([regular_tx(A, B), relay])
    assert txs_from_json(obj)[1].origin_hash == good
    if raw is not None:
        with pytest.raises(ValueError, match="origin_hash must be 64 lowercase hex digits"):
            txs_from_json({**obj, "origin_hash": [None, raw]})


def test_txs_from_json_refuses_a_short_origin_hash():
    # The hash covers the 2-byte origin, so only the digest check refuses it.
    obj = txs_to_json([make_transaction(A, C, 1, 0, kind=TxKind.INTER_RELAY,
                                        origin_hash=b"\x0a\x0b")])
    for raw in ("0a0b", "0a 0b"):
        with pytest.raises(ValueError, match="origin_hash"):
            txs_from_json({**obj, "origin_hash": [raw]})


@pytest.mark.parametrize("raw", ["", False, 0, [], {}])
def test_txs_from_json_refuses_a_falsy_origin_hash(raw):
    # An injected original hashes no origin, so only the origin check
    # refuses these; a digest is null or 64 lowercase hex digits.
    obj = txs_to_json([regular_tx(A, B)])
    assert txs_from_json(obj)[0].origin_hash is None
    with pytest.raises(ValueError, match="origin_hash"):
        txs_from_json({**obj, "origin_hash": [raw]})


@pytest.mark.parametrize("field", ["parent_hash", "state_root"])
def test_block_from_json_refuses_a_short_digest(field):
    digests = {"parent_hash": b"\x01" * 32, "state_root": b"\x02" * 32, field: b"\x01"}
    block = Block(shard_id=0, height=1, proposer="0.0", block_kind=BlockKind.TX,
                  timestamp=5, **digests)
    with pytest.raises(ValueError, match=field):
        block_from_json(block_to_json(block))


@pytest.mark.parametrize("bad", ["soon", True, 1.5, [3]])
def test_txs_from_json_requires_an_integer_inject_time(bad):
    obj = txs_to_json([regular_tx(A, B)])
    obj["inject_time"] = [bad]
    with pytest.raises(ValueError, match="inject_time must be an integer or null"):
        txs_from_json(obj)


def _strict_tx():
    return txs_to_json([make_transaction(A, C, 10, 3, kind=TxKind.ORIGINAL_CTX)])


# The hash check alone would pass each form: a value or nonce form decodes,
# under int(), to the field's true value. The layout has no fee, so a fee
# column is refused whatever it holds.
@pytest.mark.parametrize("field, raw", [
    ("value", "1_0"), ("value", " 10"), ("value", "10 "), ("value", "+10"),
    ("value", "010"), ("value", "\u0661\u0660"), ("value", 10), ("value", 10.0),
    ("nonce", 3.9), ("nonce", 3.0), ("nonce", "3"), ("nonce", True),
    ("fee", True), ("fee", "1"), ("fee", 1.0), ("fee", None), ("fee", 1),
])
def test_txs_from_json_refuses_coerced_numbers(field, raw):
    obj = _strict_tx()
    assert txs_from_json(obj)[0].nonce == 3
    with pytest.raises(ValueError):
        txs_from_json({**obj, field: [raw]})


@pytest.mark.parametrize("field, raw", [
    ("value", "-10"), ("value", str(1 << 128)), ("nonce", -1), ("nonce", 1 << 64),
])
def test_txs_from_json_refuses_numbers_out_of_range(field, raw):
    with pytest.raises(ValueError):
        txs_from_json({**_strict_tx(), field: [raw]})


def _rows(obj):
    return [dict(zip(obj, row)) for row in zip(*obj.values())]


@pytest.mark.parametrize("edit, why", [
    (lambda obj: {**obj, "nonce": obj["nonce"][:1]}, "differ in length"),
    (lambda obj: {**obj, "hash": obj["hash"] + ["00" * 32]}, "differ in length"),
    (lambda obj: {k: v for k, v in obj.items() if k != "kind"}, "missing ['kind']"),
    (lambda obj: {**obj, "fee": [0, 0]}, "unknown ['fee']"),
    (lambda obj: {**obj, "confirm_time": [5, 5]}, "unknown ['confirm_time']"),
    (lambda obj: {**obj, "value": tuple(obj["value"])}, "must be a list"),
    (lambda obj: {**obj, "inject_time": None}, "must be a list"),
    (_rows, "txs must be an object of columns, not list"),
    (lambda obj: [], "txs must be an object of columns, not list"),
    (lambda obj: None, "txs must be an object of columns, not NoneType"),
], ids=["short_column", "long_column", "missing", "fee", "confirm_time", "tuple_column",
        "null_column", "rows", "empty_rows", "null"])
def test_txs_from_json_refuses_a_list_off_the_column_layout(edit, why):
    """Only columns have these faults: ragged columns, a missing or unknown
    column, a column that is not a list, and transactions given as rows."""
    obj = txs_to_json([regular_tx(A, B, 1, n) for n in range(2)])
    assert len(txs_from_json(obj)) == 2
    with pytest.raises(ValueError, match=re.escape(why)):
        txs_from_json(edit(obj))


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
                       ("balance", -5), ("balance", "-5.0"), ("balance", "-\u0665"),
                       ("balance", "--5"), ("balance", "-"), ("balance", "-" + "9" * 5000),
                       ("nonce", 9.5), ("nonce", "9")]:
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
    tx = txs_to_json([regular_tx(A, B)])
    for kind in ("relay", None, ["regular"]):
        with pytest.raises(ValueError, match="unknown kind"):
            txs_from_json({**tx, "kind": [kind]})
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
        "f275e026238c94a4e79d96253e6bb5b604cc94cba2487cecc75ce4b31d8878e8")


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


def _swap_digit(text: str) -> str:
    return ("1" if text[0] != "1" else "2") + text[1:]


_FALSY = ("", False, 0, [], {})
# One field of one line, rewritten from its encoded form: forms a lax reading
# would take for the true value or nonce (so only the form check refuses
# them), out-of-range and malformed forms, a wrong hash, and the five falsy
# origins the per-field decoder read as null.
_MUTATIONS = [
    ("value", lambda v: str(int(v) + 1)),
    ("value", lambda v: "+" + v),
    ("value", lambda v: "0" + v),
    ("value", lambda v: v[:1] + "_" + v[1:]),
    ("value", lambda v: " " + v),
    ("value", lambda v: v.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                                                  "\u0664\u0665\u0666\u0667\u0668\u0669"))),
    ("value", lambda v: "-" + v),
    ("value", lambda v: ""),
    ("value", lambda v: "9" * 5000),
    ("nonce", lambda n: True),
    ("nonce", float),
    ("nonce", str),
    ("nonce", lambda n: -1),
    ("nonce", lambda n: 1 << 64),
    ("kind", lambda k: "relay"),
    ("kind", lambda k: [k]),
    ("origin_hash", lambda o: o and o.upper()),
    ("origin_hash", lambda o: o and o[:63]),
    ("inject_time", lambda t: float(t or 0)),
    ("hash", _swap_digit),
    ("payer", lambda a: [a]),
] + [("origin_hash", lambda o, raw=raw: raw) for raw in _FALSY]


def _decoded(decode):
    try:
        return decode()
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(st.lists(_txs, min_size=1, max_size=4), st.none() | st.sampled_from(_MUTATIONS),
       st.data())
def test_batch_decoder_matches_the_per_field_reference(txs, mutation, data):
    """``txs_from_json`` accepts what a per-field decoder of one row at a
    time accepts, with equal transactions, and refuses the rest with
    ``ValueError``. The one difference: a falsy origin_hash, which the
    per-field decoder reads as null."""
    obj = txs_to_json(txs)
    falsy_origin = False
    if mutation is not None:
        field, rewrite = mutation
        i = data.draw(st.integers(0, len(txs) - 1))
        obj[field][i] = rewrite(obj[field][i])
        falsy_origin = field == "origin_hash" and obj[field][i] in _FALSY
    rows = _rows(obj)
    want = _decoded(lambda: [reference_tx_from_json(row) for row in rows])
    got = _decoded(lambda: txs_from_json(obj))
    if falsy_origin:
        assert got is None
        assert want is None or want[i].origin_hash is None
        return
    assert got == want
    if mutation is None:
        assert got == txs
    if got is not None:
        assert [txs_from_json({k: [v] for k, v in row.items()})[0] for row in rows] == got


# Values and nonces as wide as their hashed fields (16 and 8 bytes), with
# both ends drawn often; null origins and inject times.
_VALUE_MAX = (1 << 128) - 1
_NONCE_MAX = (1 << 64) - 1
_edge_txs = st.builds(
    Transaction,
    payer=_addresses,
    payee=_addresses,
    value=st.sampled_from([0, _VALUE_MAX]) | st.integers(0, _VALUE_MAX),
    nonce=st.sampled_from([0, _NONCE_MAX]) | st.integers(0, _NONCE_MAX),
    kind=st.sampled_from(TxKind),
    origin_hash=st.none() | _digests,
    inject_time=st.none() | st.just(0) | st.integers(0, 1 << 62),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_edge_txs, max_size=6), st.none() | st.integers(0, 1 << 40))
def test_txs_json_round_trips_through_json_text(txs, confirm_time):
    """A list, empty or not, comes back equal from its columns' JSON text,
    and a block of it writes the line ``block_to_json`` gives."""
    assert txs_from_json(json.loads(json.dumps(txs_to_json(txs)))) == txs
    block = Block(shard_id=2, height=7, parent_hash=ZERO_DIGEST, state_root=ZERO_DIGEST,
                  proposer="2.1", block_kind=BlockKind.TX, txs=txs, timestamp=9)
    line = block_line(block, confirm_time)
    assert line == json.dumps(block_to_json(block, confirm_time))
    assert block_from_json(json.loads(line)).txs == txs


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
                    inject_time=None if i % 3 == 0 else 40 * i)
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


# --- no writes to transactions or account states ---

_RECORDS = (Transaction, AccountState)
_RECORD_FIELDS = {f.name for cls in _RECORDS for f in dataclasses.fields(cls)}


def _field_writes(source: str) -> list[str]:
    """Each statement of ``source`` that writes a field of a transaction or
    an account state: an assignment to an attribute of that name, or a
    ``setattr`` / ``object.__setattr__`` of it. Exempt are writes to
    ``self`` in the record classes' own construction (``__init__``,
    ``__post_init__``) and in any other class, whose own attribute it is."""
    records = {cls.__name__ for cls in _RECORDS}
    found = []

    def written(node) -> list:
        """The objects whose record field ``node`` writes."""
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if (name in ("setattr", "__setattr__") and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in _RECORD_FIELDS):
                return [node.args[0]]
            return []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return []
        return [sub.value for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Attribute) and sub.attr in _RECORD_FIELDS
                and isinstance(sub.ctx, ast.Store)]

    def exempt(obj, cls, method) -> bool:
        if not (isinstance(obj, ast.Name) and obj.id == "self") or cls is None:
            return False
        return cls not in records or method in ("__init__", "__post_init__")

    def visit(node, cls=None, method=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, method or child.name)
                continue
            if any(not exempt(obj, cls, method) for obj in written(child)):
                found.append(f"line {child.lineno}: {ast.unparse(child)}")
            visit(child, cls, method)

    visit(ast.parse(source))
    return found


def test_nothing_in_the_package_writes_a_transaction_or_account_field():
    """Transactions and account states are plain slots dataclasses, shared
    between pools, blocks and state trees; this scan stands in for
    ``frozen=True``, whose per-field ``object.__setattr__`` made each
    construction several times slower."""
    package = Path(shardemu.__file__).parent
    writes = {path.name: _field_writes(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}


@pytest.mark.parametrize("planted", [
    "tx.value = 5",
    "block.txs[0].inject_time = 3",
    "acct.balance += 1",
    "acct.nonce: int = 2",
    "object.__setattr__(acct, 'balance', 1)",
    "setattr(tx, 'hash', b'')",
    "def apply(state):\n    for a in state.entries.values():\n        a.balance, a.nonce = 0, 0",
    "class Pool:\n    def take(self, tx):\n        tx.kind = None",
    "class Transaction:\n    def relabel(self):\n        self.kind = None",
])
def test_the_field_write_scan_flags_a_planted_write(planted):
    assert len(_field_writes(planted)) == 1
    assert _field_writes("class Block:\n    def __post_init__(self):\n        self.hash = b''") == []


# --- node logic stays on one thread ---

_THREAD_MODULES = {"threading", "_thread", "queue", "concurrent"}


def _thread_imports(source: str) -> list[str]:
    """Each import in ``source``, at any depth, of a module that starts or
    coordinates threads (``_THREAD_MODULES``, or a submodule of one)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in _THREAD_MODULES for name in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_transports_import_thread_modules():
    """Every node's logic runs on one thread under both transports (the one
    event loop, ``SimNetwork.step``, which ``transport.TcpLoop`` runs on a
    wall clock), so no record replicas share needs a lock. Only
    ``transport`` (the mesh's accept and reader threads, and the TCP loop's
    inbox) and ``harness`` (the rebuild's check for other threads) may
    import a thread module."""
    package = Path(shardemu.__file__).parent
    imports = {path.stem: _thread_imports(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    assert {name for name, lines in imports.items() if lines} == {"transport", "harness"}


@pytest.mark.parametrize("planted", [
    "import threading",
    "import os, _thread",
    "from queue import SimpleQueue",
    "import concurrent.futures as cf",
    "from concurrent.futures import ThreadPoolExecutor",
    "def later():\n    from threading import Lock\n    return Lock()",
])
def test_the_thread_import_scan_flags_a_planted_import(planted):
    assert len(_thread_imports(planted)) == 1
    assert _thread_imports("import queueing\nfrom .queue import x\nimport os") == []

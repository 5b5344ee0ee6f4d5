"""Value types and pure state transitions for the sharded ledger.

Accounts, transactions, blocks, the per-shard account state, and the
account-to-shard partition map live here, together with the pure functions
the consensus and mechanism layers drive: shard resolution, the cross-shard
test, where a transaction executes and whether it is local to a shard,
block application, state-root computation, and block verification.
Nothing in this module owns a clock, a socket, or a file.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from typing import Iterable, Optional, Sequence

ADDRESS_SIZE = 20
DIGEST_SIZE = 32
# Suffix width used to map an address onto a shard.
SHARD_SUFFIX_BYTES = 8

VALUE_BITS = 128
BALANCE_BITS = 256

ZERO_DIGEST = b"\x00" * DIGEST_SIZE


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# Bound once for the state-root loops, which hash per leaf and per node.
_sha256 = hashlib.sha256


# Root of a state tree with no accounts.
EMPTY_TREE_ROOT = digest(b"")


class TxKind(Enum):
    """Lifecycle role of a transaction inside blocks and pools.

    REGULAR and ORIGINAL_CTX are injected kinds; the other four are derived
    from an original cross-shard transaction and always carry ``origin_hash``.
    Members hash by identity: the ``*_KINDS`` membership tests run per
    transaction, and ``Enum.__hash__`` is a Python-level call. Nothing may
    depend on the iteration order of a set of kinds, which therefore varies
    between processes.
    """

    __hash__ = object.__hash__

    REGULAR = "regular"
    ORIGINAL_CTX = "original_ctx"
    INTRA_RELAY = "intra_relay"
    INTER_RELAY = "inter_relay"
    BROKER_PAYER_HALF = "broker_payer_half"
    BROKER_PAYEE_HALF = "broker_payee_half"


# Stable one-byte tags for hashing; append-only.
_KIND_TAG = {
    TxKind.REGULAR: b"\x00",
    TxKind.ORIGINAL_CTX: b"\x01",
    TxKind.INTRA_RELAY: b"\x02",
    TxKind.INTER_RELAY: b"\x03",
    TxKind.BROKER_PAYER_HALF: b"\x04",
    TxKind.BROKER_PAYEE_HALF: b"\x05",
}

INJECTED_KINDS = frozenset({TxKind.REGULAR, TxKind.ORIGINAL_CTX})
DERIVED_KINDS = frozenset(
    {
        TxKind.INTRA_RELAY,
        TxKind.INTER_RELAY,
        TxKind.BROKER_PAYER_HALF,
        TxKind.BROKER_PAYEE_HALF,
    }
)
# Kinds that move value out of the payer account when applied.
DEBIT_KINDS = frozenset({TxKind.INTRA_RELAY, TxKind.BROKER_PAYER_HALF})
# Kinds that move value into the payee account when applied.
CREDIT_KINDS = frozenset({TxKind.INTER_RELAY, TxKind.BROKER_PAYEE_HALF})


class BlockKind(Enum):
    TX = "tx"
    MIGRATION = "migration"


class RejectReason(Enum):
    """Machine-readable outcome of a failed block verification."""

    BAD_HEIGHT = "bad_height"
    BAD_PARENT = "bad_parent"
    OVERSIZE = "oversize"
    WRONG_SHARD = "wrong_shard"
    BAD_STATE_ROOT = "bad_state_root"
    MALFORMED = "malformed"


def address_from_hex(text: str) -> bytes:
    """Parse a 40-hex-digit address, 0x prefix optional, case-insensitive."""
    if not isinstance(text, str):
        raise ValueError(f"bad address literal: {text!r}")
    body = text[2:] if text.startswith(("0x", "0X")) else text
    try:
        addr = bytes.fromhex(body)
    except ValueError:
        addr = b""
    # fromhex skips whitespace, so the text and the bytes are both checked.
    if len(body) != 2 * ADDRESS_SIZE or len(addr) != ADDRESS_SIZE:
        raise ValueError(f"bad address literal: {text!r}")
    return addr


def address_to_hex(addr: bytes) -> str:
    return "0x" + addr.hex()


class AddressTable(dict):
    """Address literal -> its bytes, for one parse pass (a dataset load, a
    block-file report). Each distinct literal is parsed once, and every
    spelling of one account maps to one ``bytes`` object, so the pass hands
    out one object per account: a dict or set probe with the stored key
    object stops at the identity check. A literal that ``address_from_hex``
    refuses raises its ``ValueError`` and is not stored."""

    __slots__ = ()

    def __missing__(self, text: str) -> bytes:
        addr = address_from_hex(text)
        addr = self.setdefault(addr, addr)
        self[text] = addr
        return addr


@dataclass(slots=True)
class Transaction:
    """A single transfer, possibly one half of a split cross-shard transfer.

    ``origin_hash`` links a derived half back to the original transaction it
    was split from; injected kinds carry ``None``. ``inject_time`` is the
    virtual millisecond at which the supervisor injected the original, and
    derived halves copy it. Nothing writes to a transaction after
    construction, so nodes and blocks share one object.
    """

    payer: bytes
    payee: bytes
    value: int
    nonce: int
    kind: TxKind
    origin_hash: Optional[bytes] = None
    inject_time: Optional[int] = None
    hash: bytes = b""

    def __post_init__(self) -> None:
        if not self.hash:
            self.hash = tx_digest(
                self.payer, self.payee, self.value, self.nonce, self.kind, self.origin_hash
            )


_hash_digest = type(_sha256()).digest


def tx_digests(payers: Iterable[bytes], payees: Iterable[bytes], values: Iterable[int],
               nonces: Iterable[int], kinds: Iterable[TxKind],
               origins: Iterable[bytes]) -> list[bytes]:
    """Hash of each transaction's identity fields, given as columns; timing
    fields are deliberately excluded. The one definition of the layout:
    payer, payee, value in 16 bytes and nonce in 8 (big-endian), the kind's
    tag and the origin hash, ``b""`` standing for none. Hashed in C loops
    with no bytecode per row. A column may be an endless ``repeat``; the
    shortest column sets the count. A value or nonce too wide for its field
    raises ``OverflowError``."""
    return list(map(_hash_digest, map(_sha256, map(b"".join, zip(
        payers,
        payees,
        map(int.to_bytes, values, repeat(VALUE_BITS // 8), repeat("big")),
        map(int.to_bytes, nonces, repeat(8), repeat("big")),
        map(_KIND_TAG.__getitem__, kinds),
        origins,
    )))))


def tx_digest(payer: bytes, payee: bytes, value: int, nonce: int, kind: TxKind,
              origin_hash: Optional[bytes]) -> bytes:
    """``tx_digests`` of one transaction."""
    return tx_digests((payer,), (payee,), (value,), (nonce,), (kind,), (origin_hash or b"",))[0]


def check_transfer(payer: bytes, payee: bytes, value: int) -> None:
    """Refuse a transfer whose accounts are not 20 bytes or whose value lies
    outside [0, 2**128): the checks ``make_transaction`` and the
    supervisor's stamping both apply to every original."""
    if len(payer) != ADDRESS_SIZE or len(payee) != ADDRESS_SIZE:
        raise ValueError("addresses must be 20 bytes")
    if not (0 <= value < (1 << VALUE_BITS)):
        raise ValueError("value out of range")


def check_transfers(payers: list[bytes], payees: list[bytes], values: list[int]) -> None:
    """``check_transfer`` over columns: raises what it raises for the first
    transfer it refuses. The batch is checked in C loops; only a batch with
    a refusal is walked one transfer at a time to find it."""
    lengths = set(map(len, payers))
    lengths.update(map(len, payees))
    if lengths <= {ADDRESS_SIZE} and (not values or (
            min(values) >= 0 and max(values) < 1 << VALUE_BITS)):
        return
    for payer, payee, value in zip(payers, payees, values):
        check_transfer(payer, payee, value)


def make_transaction(
    payer: bytes,
    payee: bytes,
    value: int,
    nonce: int,
    kind: TxKind = TxKind.REGULAR,
    origin_hash: Optional[bytes] = None,
    inject_time: Optional[int] = None,
) -> Transaction:
    check_transfer(payer, payee, value)
    if kind in DERIVED_KINDS and not origin_hash:
        raise ValueError(f"{kind.value} requires an origin_hash")
    if kind in INJECTED_KINDS and origin_hash:
        raise ValueError(f"{kind.value} must not carry an origin_hash")
    return Transaction(payer, payee, value, nonce, kind, origin_hash, inject_time)


@dataclass(slots=True)
class AccountState:
    """Balance and nonce of one account inside one shard.

    Balances are signed: relay and broker halves debit and credit
    independently, so a shard-local balance may go below zero while the
    global sum stays conserved. Nothing writes to an account state after
    construction, so state trees share one object (a tier-1 test scans the
    package for such writes).
    """

    address: bytes
    balance: int = 0
    nonce: int = 0


@dataclass(slots=True)
class Block:
    """One consensus decision: either a batch of transactions or a
    partition-migration checkpoint.

    Migration blocks carry no transactions; instead ``migration_installs``
    holds inbound account states to adopt and ``migration_departures`` lists
    addresses whose state leaves this shard. ``timestamp`` is the proposer's
    virtual clock at proposal time and is part of the hash.

    ``post`` holds (pre-state root, post-state) once the block has been
    applied (see ``apply_block_to_state``), ``verdict`` the outcome of the
    checks ``verify_block`` makes on the block's content alone, with the
    map and size limit they ran under, ``relays`` the credit halves of its
    debit halves batched per destination shard as ``relay_ctx`` bodies,
    with the map they were routed under (see ``mechanisms.relay_bodies``),
    and ``pruned`` the hashes a commit drops from a pool (see
    ``pbft.Replica._commit_block``).
    None of these is hashed, compared, encoded or copied by ``replace``: a
    block decoded from a frame, or a copy of one, starts without them.
    """

    shard_id: int
    height: int
    parent_hash: bytes
    state_root: bytes
    proposer: str
    block_kind: BlockKind
    txs: list[Transaction] = field(default_factory=list)
    migration_installs: list[AccountState] = field(default_factory=list)
    migration_departures: list[bytes] = field(default_factory=list)
    timestamp: int = 0
    hash: bytes = b""
    post: Optional[tuple[bytes, StateTree]] = field(
        default=None, init=False, compare=False, repr=False)
    verdict: Optional[tuple[PartitionMap, int, Optional[RejectReason]]] = field(
        default=None, init=False, compare=False, repr=False)
    relays: Optional[tuple[PartitionMap, tuple]] = field(
        default=None, init=False, compare=False, repr=False)
    pruned: Optional[frozenset[bytes]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.hash:
            self.hash = block_digest(self)


def block_digest(block: Block) -> bytes:
    parts = [
        block.shard_id.to_bytes(4, "big"),
        block.height.to_bytes(8, "big"),
        block.parent_hash,
        block.state_root,
        block.proposer.encode(),
        bytes([0 if block.block_kind is BlockKind.TX else 1]),
        block.timestamp.to_bytes(8, "big"),
    ]
    for tx in block.txs:
        parts.append(tx.hash)
    for acct in block.migration_installs:
        parts.append(
            acct.address
            + acct.balance.to_bytes(BALANCE_BITS // 8, "big", signed=True)
            + acct.nonce.to_bytes(8, "big")
        )
    for addr in block.migration_departures:
        parts.append(addr)
    return digest(b"".join(parts))


def genesis_block(shard_id: int) -> Block:
    return Block(
        shard_id=shard_id,
        height=0,
        parent_hash=ZERO_DIGEST,
        state_root=EMPTY_TREE_ROOT,
        proposer="genesis",
        block_kind=BlockKind.TX,
        timestamp=0,
    )


class StateTree:
    """Account states of one shard, committed to by 256 address buckets
    under a two-level tree (``compute_state_root``).

    Instances are immutable snapshots once shared: transition functions
    copy, mutate the copy before anyone else sees it, and return it, so
    verification can run against the pre-state while a candidate post-state
    is built. A post-state is shared by every replica that holds its block
    (see ``apply_block_to_state``), so nothing may write to a tree after it
    has been returned, except ``compute_state_root``.

    Rooting sets, once, the 256 buckets (``_buckets``), the 16 middle
    digests (``_middles``) and then the root. Bucket ``i`` holds the
    accounts whose address starts with byte ``i`` as a tuple of their
    addresses in order, one ``bytes`` of their leaf digests joined in that
    order, and its digest. A tree that ``apply_txs`` or ``apply_migration``
    derived from a rooted tree carries that base and the addresses it wrote
    (``_delta``) until it is rooted itself, which rebuilds only the buckets
    those addresses fall in and then drops both. Nothing is written to a
    rooted tree or to a bucket.
    """

    __slots__ = ("entries", "_root", "_buckets", "_middles", "_delta")

    def __init__(self, entries: Optional[dict[bytes, AccountState]] = None) -> None:
        self.entries: dict[bytes, AccountState] = entries if entries is not None else {}
        self._root: Optional[bytes] = None
        self._buckets: Sequence[tuple[tuple[bytes, ...], bytes, bytes]] = ()
        self._middles: Sequence[bytes] = ()
        self._delta: Optional[tuple[StateTree, set[bytes]]] = None

    def get(self, addr: bytes) -> AccountState:
        acct = self.entries.get(addr)
        return acct if acct is not None else AccountState(address=addr)

    def __len__(self) -> int:
        return len(self.entries)


def _derived(base: StateTree, entries: dict[bytes, AccountState],
             written: set[bytes]) -> StateTree:
    """A tree of ``entries``, which differ from ``base``'s only at
    ``written``. It remembers a rooted base, so that rooting it reuses the
    base's buckets; a child of an unrooted tree is rooted from scratch."""
    out = StateTree(entries)
    if base._root is not None:
        out._delta = (base, written)
    return out


def _leaf_hash(acct: AccountState) -> bytes:
    return _sha256(
        acct.address
        + acct.balance.to_bytes(BALANCE_BITS // 8, "big", signed=True)
        + acct.nonce.to_bytes(8, "big")
    ).digest()


# The buckets and middle digests of a tree with no accounts: an empty
# bucket hashes ``b""``, a middle node the 16 bucket digests below it.
_EMPTY_BUCKETS = (((), b"", digest(b"")),) * 256
_EMPTY_MIDDLES = (digest(digest(b"") * 16),) * 16


def compute_state_root(state: StateTree) -> bytes:
    """The root of a two-level tree over 256 address buckets. Bucket ``i``
    holds the accounts whose address starts with byte ``i``; its digest
    hashes their leaf digests joined in address order. Each of 16 middle
    digests hashes 16 consecutive bucket digests, and the root hashes the
    16 middle digests. A tree with no accounts has ``EMPTY_TREE_ROOT``.

    One loop roots every tree. It starts from a rooted base's buckets with
    the addresses the tree wrote, or else from empty buckets with every
    address it holds. In each bucket a written address falls in, its leaf
    is inserted or rewritten, or dropped if ``entries`` no longer holds it
    (a departure). Then those buckets, their middle digests and the root
    are hashed."""
    if state._root is not None:
        return state._root
    entries = state.entries
    delta = state._delta
    if delta is None:
        buckets, middles, written = list(_EMPTY_BUCKETS), list(_EMPTY_MIDDLES), entries
    else:
        base, written = delta
        buckets, middles = list(base._buckets), list(base._middles)
    dirty: dict[int, list[bytes]] = {}
    for addr in written:
        dirty.setdefault(addr[0], []).append(addr)
    for i, addrs in dirty.items():
        keys, leaves, _ = buckets[i]
        keys, leaves = list(keys), bytearray(leaves)
        for addr in addrs:
            at = bisect_left(keys, addr)
            held = at < len(keys) and keys[at] == addr
            acct = entries.get(addr)
            if acct is not None:
                # Over an empty slice for a new address: an insertion.
                leaves[at * DIGEST_SIZE:(at + held) * DIGEST_SIZE] = _leaf_hash(acct)
                if not held:
                    keys.insert(at, addr)
            elif held:
                del keys[at]
                del leaves[at * DIGEST_SIZE:(at + 1) * DIGEST_SIZE]
        buckets[i] = (tuple(keys), bytes(leaves), _sha256(leaves).digest())
    for m in {i >> 4 for i in dirty}:
        middles[m] = _sha256(b"".join([b[2] for b in buckets[16 * m:16 * m + 16]])).digest()
    state._buckets = buckets
    state._middles = middles
    state._root = _sha256(b"".join(middles)).digest() if entries else EMPTY_TREE_ROOT
    state._delta = None
    return state._root


class ShardTable(dict):
    """The shards resolved under one map, by account. A missing account is
    resolved on first lookup: its override, else its address suffix modulo
    the shard count."""

    __slots__ = ("overrides", "n_shards")

    def __init__(self, overrides: dict[bytes, int], n_shards: int) -> None:
        self.overrides = overrides
        self.n_shards = n_shards

    def __missing__(self, addr: bytes) -> int:
        shard = self.overrides.get(addr)
        if shard is None:
            shard = int.from_bytes(addr[-SHARD_SUFFIX_BYTES:], "big") % self.n_shards
        self[addr] = shard
        return shard


@dataclass(frozen=True, slots=True)
class PartitionMap:
    """Versioned account-to-shard assignment.

    The default placement hashes nothing: the last ``SHARD_SUFFIX_BYTES``
    bytes of the address, taken as a big-endian integer, are reduced modulo
    the shard count. ``overrides`` pins individual accounts elsewhere and
    grows as repartitioning runs. ``brokers`` are accounts considered
    present in every shard at once.

    ``_shard_of`` holds every shard resolved under this map (a
    ``ShardTable``, read only by this module); ``updated`` seeds a child's
    table from its parent's. It is correct only because nothing writes a
    map, or its ``overrides``, after construction: a new version is a new
    map.

    ``_children`` keeps, per version, the last child ``updated`` built and
    the assignments it pinned, so every holder of this map that adopts the
    same move gets the same object, and followers share ``Block.verdict``
    and one table. A map therefore keeps the later versions built from it
    alive.
    """

    n_shards: int
    version: int = 0
    overrides: dict[bytes, int] = field(default_factory=dict)
    brokers: frozenset[bytes] = field(default_factory=frozenset)
    _shard_of: ShardTable = field(init=False, compare=False, repr=False)
    _children: dict[int, tuple[dict[bytes, int], "PartitionMap"]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_shard_of", ShardTable(self.overrides, self.n_shards))

    def updated(self, version: int, assignments: dict[bytes, int],
                brokers: Optional[Iterable[bytes]] = None) -> "PartitionMap":
        """The next version: ``assignments`` pinned over this map, built
        once per version, assignments and brokers. Only an assigned account
        can change shard, so the child's table starts as a copy of this one
        with the assignments written over it."""
        brokers = frozenset(brokers) if brokers is not None else self.brokers
        known = self._children.get(version)
        if known is not None and known[0] == assignments and known[1].brokers == brokers:
            return known[1]
        merged = dict(self.overrides)
        merged.update(assignments)
        child = PartitionMap(
            n_shards=self.n_shards, version=version, overrides=merged, brokers=brokers)
        child._shard_of.update(self._shard_of)
        child._shard_of.update(assignments)
        self._children[version] = (dict(assignments), child)
        return child


def address_to_shard(addr: bytes, pmap: PartitionMap) -> int:
    """The shard owning ``addr`` under ``pmap``: its override, else its
    address suffix modulo the shard count. Resolved once per map."""
    return pmap._shard_of[addr]


def crossings(payers: Sequence[bytes], payees: Sequence[bytes], pmap: PartitionMap
              ) -> list[bool]:
    """Whether each transfer spans two shards under ``pmap``: neither
    account is a broker and their shards differ. The one definition of a
    cross-shard transfer, over a batch given as columns."""
    brokers, shard_of = pmap.brokers, pmap._shard_of.__getitem__
    return [payer not in brokers and payee not in brokers and a != b
            for payer, payee, a, b in zip(payers, payees, map(shard_of, payers),
                                          map(shard_of, payees))]


def home_accounts(txs: Iterable[Transaction], brokers: frozenset[bytes]) -> list[bytes]:
    """The account whose shard executes each transaction, in order: the
    payee of a credit half, the payer of a debit half, and the payer of an
    injected transfer, unless a broker pays a non-broker: that transfer
    executes at its payee (BrokerChain's rule).

    The one definition of where a transaction executes. It takes a batch:
    packing, eviction, shipping and stamping each apply it to a whole
    block, pool or batch at once."""
    credit, debit = CREDIT_KINDS, DEBIT_KINDS
    return [tx.payee if tx.kind in credit or (
                tx.payer in brokers and tx.payee not in brokers and tx.kind not in debit)
            else tx.payer for tx in txs]


def home_shards(txs: Iterable[Transaction], pmap: PartitionMap) -> list[int]:
    """The shard of each transaction's home account (``home_accounts``)
    under ``pmap``, in order."""
    return list(map(pmap._shard_of.__getitem__, home_accounts(txs, pmap.brokers)))


def tx_local_to_shard(tx: Transaction, shard_id: int, pmap: PartitionMap) -> bool:
    """True when every account the transaction touches for execution lives in
    ``shard_id``. Brokers count as local everywhere, so a transfer between
    two brokers is local to every shard. A transaction is packed whole in
    its home shard (``home_shards``) only if it is local there."""
    kind, table = tx.kind, pmap._shard_of
    if kind in CREDIT_KINDS:
        return table[tx.payee] == shard_id
    if kind in DEBIT_KINDS:
        return table[tx.payer] == shard_id
    if kind is TxKind.REGULAR:
        brokers = pmap.brokers
        return ((tx.payer in brokers or table[tx.payer] == shard_id)
                and (tx.payee in brokers or table[tx.payee] == shard_id))
    return False


def apply_txs(state: StateTree, txs: Iterable[Transaction]) -> StateTree:
    """Pure application of executable transactions to a snapshot.

    Regular transfers debit the payer and credit the payee. A debit half
    only debits, a credit half only credits; the matching half settles in
    the counterpart shard. No overdraft rule exists, balances may go
    negative. Each payer's nonce advances once per transaction it pays.

    The block's balance changes and nonce advances are summed per account
    first, and each written account then gets one new state; accounts new
    to the tree are added in the order the block first touches them.
    """
    moved: dict[bytes, int] = {}
    sent: dict[bytes, int] = {}
    # Bound once: these run per transaction, or per written account.
    moved_of, sent_of = moved.get, sent.get
    regular = TxKind.REGULAR
    for tx in txs:
        kind = tx.kind
        if kind is regular:
            payer, payee, value = tx.payer, tx.payee, tx.value
            moved[payer] = moved_of(payer, 0) - value
            sent[payer] = sent_of(payer, 0) + 1
            moved[payee] = moved_of(payee, 0) + value
        elif kind in DEBIT_KINDS:
            payer = tx.payer
            moved[payer] = moved_of(payer, 0) - tx.value
            sent[payer] = sent_of(payer, 0) + 1
        elif kind in CREDIT_KINDS:
            payee = tx.payee
            moved[payee] = moved_of(payee, 0) + tx.value
        else:
            raise ValueError(f"block carries unexecutable kind {kind.value}")
    entries = dict(state.entries)
    held = entries.get
    for addr, change in moved.items():
        acct = held(addr)
        if acct is None:
            entries[addr] = AccountState(addr, change, sent_of(addr, 0))
        else:
            entries[addr] = AccountState(addr, acct.balance + change,
                                         acct.nonce + sent_of(addr, 0))
    return _derived(state, entries, set(moved))


def apply_migration(
    state: StateTree,
    installs: Iterable[AccountState],
    departures: Iterable[bytes],
) -> StateTree:
    """Install inbound account states verbatim and drop departing ones."""
    entries = dict(state.entries)
    written: set[bytes] = set()
    for acct in installs:
        entries[acct.address] = acct
        written.add(acct.address)
    for addr in departures:
        entries.pop(addr, None)
        written.add(addr)
    return _derived(state, entries, written)


def apply_block_to_state(state: StateTree, block: Block) -> StateTree:
    """The post-state of ``block`` on ``state``; the input is left untouched.

    The only producer of a block's post-state. The result is kept on the
    block with the root of the state it was applied to, so every replica
    that holds the block and the same pre-state shares one tree, and a
    replica whose pre-state differs applies the block itself."""
    root = compute_state_root(state)
    if block.post is not None and block.post[0] == root:
        return block.post[1]
    if block.block_kind is BlockKind.MIGRATION:
        post = apply_migration(state, block.migration_installs, block.migration_departures)
    else:
        post = apply_txs(state, block.txs)
    block.post = (root, post)
    return post


def _content_reject(block: Block, pmap: PartitionMap, theta: int) -> Optional[RejectReason]:
    """The first failing check on the block's content alone: a migration
    block with transactions, a transaction block with migration entries,
    more than ``theta`` transactions, an injected original, a derived half
    without its origin, or a transaction not local to the block's shard
    under ``pmap``."""
    if block.block_kind is BlockKind.MIGRATION:
        return RejectReason.MALFORMED if block.txs else None
    if block.migration_installs or block.migration_departures:
        return RejectReason.MALFORMED
    if len(block.txs) > theta:
        return RejectReason.OVERSIZE
    shard = block.shard_id
    for tx in block.txs:
        if tx.kind in INJECTED_KINDS and tx.kind is not TxKind.REGULAR:
            return RejectReason.MALFORMED
        if tx.kind in DERIVED_KINDS and not tx.origin_hash:
            return RejectReason.MALFORMED
        if not tx_local_to_shard(tx, shard, pmap):
            return RejectReason.WRONG_SHARD
    return None


def verify_block(
    block: Block,
    head: Block,
    state: StateTree,
    pmap: PartitionMap,
    theta: int,
) -> Optional[RejectReason]:
    """Check a proposed block against the local chain head and pre-state.

    Returns None when acceptable, otherwise the first failing reason, in
    this order: shard, height and parent against ``head``; the block's
    content (``_content_reject``); its state root.

    The content checks depend only on the block, ``pmap`` and ``theta``.
    Their verdict is kept on the block (``Block.verdict``) with the map
    object and ``theta`` it was reached under, so every replica that holds
    the same block object and the same map shares one check, and a replica
    under another map object checks again. The head checks and the state
    root are made on every call. The post-state comes from
    ``apply_block_to_state``, possibly applied by another replica that
    holds the same block, so a forged root is rejected by every replica.
    """
    if block.shard_id != head.shard_id:
        return RejectReason.WRONG_SHARD
    if block.height != head.height + 1:
        return RejectReason.BAD_HEIGHT
    if block.parent_hash != head.hash:
        return RejectReason.BAD_PARENT
    verdict = block.verdict
    if verdict is None or verdict[0] is not pmap or verdict[1] != theta:
        verdict = block.verdict = (pmap, theta, _content_reject(block, pmap, theta))
    if verdict[2] is not None:
        return verdict[2]
    if compute_state_root(apply_block_to_state(state, block)) != block.state_root:
        return RejectReason.BAD_STATE_ROOT
    return None


# --- canonical JSON layouts (wire and disk share these) ---


# The columns of an encoded transaction list, in the order they are written.
TX_COLUMNS = ("hash", "payer", "payee", "value", "nonce", "kind", "origin_hash", "inject_time")
_TX_COLUMN_KEYS = dict.fromkeys(TX_COLUMNS).keys()
# Each kind's JSON value, and the member each value decodes to.
_KIND_VALUE = {k: k.value for k in TxKind}
_TX_KIND_OF = {k.value: k for k in TxKind}
_BLOCK_KIND_OF = {k.value: k for k in BlockKind}


def txs_to_json(txs: Sequence[Transaction]) -> dict:
    """A transaction list as one object of equal-length arrays, one per
    ``TX_COLUMNS`` entry: hashes and origin hashes as ``bytes.hex`` writes
    them (a null origin for an injected kind), addresses as
    ``address_to_hex`` writes them, values as decimal strings, so parsers
    without big integers survive, nonces and inject times (or null) as
    integers, kinds by value. A block's commit time is its own field."""
    return {
        "hash": [tx.hash.hex() for tx in txs],
        "payer": [f"0x{tx.payer.hex()}" for tx in txs],
        "payee": [f"0x{tx.payee.hex()}" for tx in txs],
        "value": [str(tx.value) for tx in txs],
        "nonce": [tx.nonce for tx in txs],
        "kind": [_KIND_VALUE[tx.kind] for tx in txs],
        "origin_hash": [o.hex() if (o := tx.origin_hash) else None for tx in txs],
        "inject_time": [tx.inject_time for tx in txs],
    }


def _member(table: dict, raw):
    try:
        return table[raw]
    except (KeyError, TypeError):
        raise ValueError(f"unknown kind {raw!r}") from None


def _int(raw, name: str) -> int:
    """A JSON integer; a bool, a float or a string is refused."""
    if type(raw) is not int:
        raise ValueError(f"{name} must be an integer, not {raw!r}")
    return raw


def _decimal(raw, name: str, signed: bool = False) -> int:
    """A quoted decimal exactly as ``str(int)`` writes it, with a minus sign
    only where ``signed``: ASCII digits, no leading zero and no padding,
    underscore or plus sign. A form ``int`` refuses for its length (over
    4,300 digits) raises its ``ValueError``."""
    digits = raw[1:] if signed and type(raw) is str and raw[:1] == "-" and raw != "-0" else raw
    if (type(digits) is str and digits.isdigit() and digits.isascii()
            and (digits[0] != "0" or len(digits) == 1)):
        return int(raw)
    raise ValueError(f"{name} must be a decimal string, not {raw!r}")


_HEX_DIGITS = frozenset("0123456789abcdef")


def _digest(raw, name: str) -> bytes:
    """A 32-byte digest exactly as ``bytes.hex`` writes it: 64 lowercase
    hex digits, no prefix, spaces or upper case."""
    if type(raw) is str and len(raw) == 2 * DIGEST_SIZE and _HEX_DIGITS.issuperset(raw):
        return bytes.fromhex(raw)
    raise ValueError(f"{name} must be {2 * DIGEST_SIZE} lowercase hex digits, not {raw!r}")


def _refuse(check, column: list, name: str):
    """Raise what ``check(raw, name)`` raises for the first entry of
    ``column`` it refuses: the message of a batch check that failed."""
    for raw in column:
        check(raw, name)
    raise ValueError(f"{name} column refused")


def _inject_time(raw, name: str) -> None:
    if raw is not None and type(raw) is not int:
        raise ValueError(f"{name} must be an integer or null, not {raw!r}")


def _origin(raw, name: str) -> None:
    if raw is not None:
        _digest(raw, name)


_NULL_OR_INT = {int, type(None)}
_NULL_OR_STR = {str, type(None)}


def _digests_of(texts: list[str]) -> Optional[list[bytes]]:
    """The digests ``texts`` spell, each as ``bytes.hex`` writes it, or None
    where any is not: one length test, one parse and one re-encoding over
    the joined column."""
    if not set(map(len, texts)) <= {2 * DIGEST_SIZE}:
        return None
    joined = "".join(texts)
    try:
        raw = bytes.fromhex(joined)
    except ValueError:
        return None
    if raw.hex() != joined:  # fromhex takes upper case and skips spaces
        return None
    return list(map(bytes.fromhex, texts))


def txs_from_json(obj: dict, addresses: Optional[AddressTable] = None) -> list[Transaction]:
    """Decode and hash-check a transaction list in ``txs_to_json``'s
    layout: the one transaction decoder, for block files and wire frames.

    ``addresses``, an ``AddressTable`` shared by one parse pass, maps each
    address literal to the pass's object for that account; without it the
    list gets a table of its own. The object must hold exactly the
    ``TX_COLUMNS`` keys, each a list, all of one length. ``value`` is taken
    only as ``str(int)`` writes it, ``nonce`` only as a JSON integer,
    ``origin_hash`` only as null or a digest as ``bytes.hex`` writes it,
    ``inject_time`` only as an integer or null. Every check runs over a
    whole column in C loops; only a column that fails one is walked to name
    its first bad entry. The columns are hashed in one ``tx_digests`` call,
    and the hash column must spell those hashes. Anything else raises
    ``ValueError``."""
    if type(obj) is not dict:
        raise ValueError(f"txs must be an object of columns, not {type(obj).__name__}")
    if obj.keys() != _TX_COLUMN_KEYS:
        missing = [name for name in TX_COLUMNS if name not in obj]
        extra = [name for name in obj if name not in _TX_COLUMN_KEYS]
        raise ValueError(f"txs columns must be {list(TX_COLUMNS)}: "
                         f"missing {missing}, unknown {extra}")
    columns = list(map(obj.__getitem__, TX_COLUMNS))
    if set(map(type, columns)) != {list}:
        raise ValueError("every txs column must be a list")
    if len(set(map(len, columns))) != 1:
        raise ValueError(f"txs columns differ in length: {dict(zip(TX_COLUMNS, map(len, columns)))}")
    hashes, payers, payees, values, nonces, kinds, origins, injects = columns
    if addresses is None:
        addresses = AddressTable()
    try:
        payers = list(map(addresses.__getitem__, payers))
        payees = list(map(addresses.__getitem__, payees))
    except TypeError:  # an unhashable literal
        raise ValueError("bad address literal in the payer or payee column") from None
    if not set(map(type, values)) <= {str}:
        _refuse(_decimal, values, "value")
    try:
        numbers = list(map(int, values))
    except ValueError:
        _refuse(_decimal, values, "value")
    # ``str`` gives back only the canonical form; a minus sign stays.
    if list(map(str, numbers)) != values or "-" in "".join(values):
        _refuse(_decimal, values, "value")
    if not set(map(type, nonces)) <= {int}:
        _refuse(_int, nonces, "nonce")
    try:
        kinds = list(map(_TX_KIND_OF.__getitem__, kinds))
    except (KeyError, TypeError):
        _refuse(lambda raw, _: _member(_TX_KIND_OF, raw), kinds, "kind")
    if not set(map(type, injects)) <= _NULL_OR_INT:
        _refuse(_inject_time, injects, "inject_time")
    if not set(map(type, origins)) <= _NULL_OR_STR:
        _refuse(_origin, origins, "origin_hash")
    texts = list(filter(None, origins))
    digests = _digests_of(texts)
    # ``filter`` also drops "", which only the count tells from a null.
    if digests is None or len(texts) + origins.count(None) != len(origins):
        _refuse(_origin, origins, "origin_hash")
    origin_of = dict(zip(texts, digests))
    try:
        keys = tx_digests(payers, payees, numbers, nonces, kinds,
                          map(origin_of.get, origins, repeat(b"")))
    except OverflowError as exc:  # a value or nonce too wide for its hashed field
        raise ValueError(f"transaction field out of range: {exc}") from None
    if (not set(map(type, hashes)) <= {str} or not set(map(len, hashes)) <= {2 * DIGEST_SIZE}
            or "".join(hashes) != b"".join(keys).hex()):
        raise ValueError("transaction hash mismatch in serialized form")
    return list(map(Transaction, payers, payees, numbers, nonces, kinds,
                    map(origin_of.get, origins), injects, keys))


def account_to_json(acct: AccountState) -> dict:
    return {
        "address": address_to_hex(acct.address),
        "balance": str(acct.balance),
        "nonce": acct.nonce,
    }


def account_from_json(obj: dict, addresses: Optional[AddressTable] = None) -> AccountState:
    address = address_from_hex if addresses is None else addresses.__getitem__
    return AccountState(
        address(obj["address"]),
        _decimal(obj["balance"], "balance", signed=True),
        _int(obj["nonce"], "nonce"),
    )


def block_to_json(block: Block, confirm_time: Optional[int] = None) -> dict:
    return {
        "shard_id": block.shard_id,
        "height": block.height,
        "parent_hash": block.parent_hash.hex(),
        "state_root": block.state_root.hex(),
        "proposer": block.proposer,
        "block_kind": block.block_kind.value,
        "txs": txs_to_json(block.txs),
        "migration_installs": [account_to_json(a) for a in block.migration_installs],
        "migration_departures": [address_to_hex(a) for a in block.migration_departures],
        "timestamp": block.timestamp,
        "commit_time": confirm_time,
        "hash": block.hash.hex(),
    }


# JSON tokens for ``block_line``: each kind's value, quotes included, and
# the separators between quoted column entries.
_KIND_TOKEN = {k: f'"{k.value}"' for k in TxKind}
_QUOTED = '", "'
_ADDRESSES = '", "0x'


def _txs_line(txs: Sequence[Transaction]) -> str:
    """``json.dumps(txs_to_json(txs))``, built column by column: one
    comprehension reads each field, and its entries are formatted and
    joined with their separators in C. None of the entries needs escaping;
    a list of ints and None prints as JSON once None reads null."""
    if not txs:
        return json.dumps(txs_to_json(txs))
    origins = ", ".join([f'"{o.hex()}"' if (o := tx.origin_hash) else "null" for tx in txs])
    return (
        f'{{"hash": ["{_QUOTED.join([tx.hash.hex() for tx in txs])}"], '
        f'"payer": ["0x{_ADDRESSES.join([tx.payer.hex() for tx in txs])}"], '
        f'"payee": ["0x{_ADDRESSES.join([tx.payee.hex() for tx in txs])}"], '
        f'"value": ["{_QUOTED.join([str(tx.value) for tx in txs])}"], '
        f'"nonce": {[tx.nonce for tx in txs]}, '
        f'"kind": [{", ".join([_KIND_TOKEN[tx.kind] for tx in txs])}], '
        f'"origin_hash": [{origins}], '
        f'"inject_time": {str([tx.inject_time for tx in txs]).replace("None", "null")}}}'
    )


def block_line(block: Block, confirm_time: Optional[int] = None) -> str:
    """The string ``json.dumps(block_to_json(block, confirm_time))`` returns,
    built without the dicts: one block-file line.

    Every block and transaction field is a digest, an address, an int or
    an enum value, whose JSON form needs no escaping; ``proposer``, the one
    free-form string, and ``confirm_time``, taken as the caller gives it,
    go through ``json.dumps``. The transactions are written as
    ``txs_to_json``'s columns (``_txs_line``); balances are quoted
    decimals, as in ``account_to_json``.
    """
    confirm = json.dumps(confirm_time)
    installs = ", ".join([
        f'{{"address": "0x{a.address.hex()}", "balance": "{a.balance}", "nonce": {a.nonce}}}'
        for a in block.migration_installs
    ])
    departures = ", ".join([f'"0x{a.hex()}"' for a in block.migration_departures])
    return (
        f'{{"shard_id": {block.shard_id}, "height": {block.height}, '
        f'"parent_hash": "{block.parent_hash.hex()}", "state_root": "{block.state_root.hex()}", '
        f'"proposer": {json.dumps(block.proposer)}, "block_kind": "{block.block_kind.value}", '
        f'"txs": {_txs_line(block.txs)}, "migration_installs": [{installs}], '
        f'"migration_departures": [{departures}], "timestamp": {block.timestamp}, '
        f'"commit_time": {confirm}, "hash": "{block.hash.hex()}"}}'
    )


def block_from_json(obj: dict, addresses: Optional[AddressTable] = None) -> Block:
    """Decode and hash-check one block, its transactions and accounts.
    Every address literal goes through ``addresses``, the pass's table, or
    through a table of this block's own when none is given."""
    if addresses is None:
        addresses = AddressTable()
    try:
        block = Block(
            shard_id=_int(obj["shard_id"], "shard_id"),
            height=_int(obj["height"], "height"),
            parent_hash=_digest(obj["parent_hash"], "parent_hash"),
            state_root=_digest(obj["state_root"], "state_root"),
            proposer=obj["proposer"],
            block_kind=_member(_BLOCK_KIND_OF, obj["block_kind"]),
            txs=txs_from_json(obj["txs"], addresses),
            migration_installs=[account_from_json(a, addresses)
                                for a in obj["migration_installs"]],
            migration_departures=[addresses[a] for a in obj["migration_departures"]],
            timestamp=_int(obj["timestamp"], "timestamp"),
        )
    except OverflowError as exc:  # a height, shard, time or balance too wide for its hashed field
        raise ValueError(f"block field out of range: {exc}") from None
    if block.hash.hex() != obj["hash"]:
        raise ValueError("block hash mismatch in serialized form")
    return block


def replace_tx_list(txs: Iterable[Transaction]) -> list[Transaction]:
    """Fresh copies of transaction objects. The emulator itself never
    copies a transaction, since none is written after construction."""
    return [replace(t) for t in txs]

"""Value types and pure state transitions for the sharded ledger.

Accounts, transactions, blocks, the per-shard account state, and the
account-to-shard partition map live here, together with the pure functions
the consensus and mechanism layers drive: shard resolution, transaction
classification, block application, state-root computation, and block
verification. Nothing in this module owns a clock, a socket, or a file.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional

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


class TxClass(Enum):
    """Classification of an injected transaction against a partition map."""

    REGULAR = "regular"
    CROSS_SHARD = "cross_shard"
    BROKER_INVOLVED = "broker_involved"


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
    derived halves copy it. ``fee`` only matters under the fee-priority pool
    policy and defaults to zero. Nothing writes to a transaction after
    construction, so nodes and blocks share one object.
    """

    payer: bytes
    payee: bytes
    value: int
    nonce: int
    kind: TxKind
    origin_hash: Optional[bytes] = None
    fee: int = 0
    inject_time: Optional[int] = None
    hash: bytes = b""

    def __post_init__(self) -> None:
        if not self.hash:
            self.hash = tx_digest(
                self.payer, self.payee, self.value, self.nonce, self.kind, self.origin_hash
            )


def tx_digest(
    payer: bytes,
    payee: bytes,
    value: int,
    nonce: int,
    kind: TxKind,
    origin_hash: Optional[bytes],
) -> bytes:
    """Hash of the identity fields; timing fields deliberately excluded."""
    return _sha256(b"".join((
        payer,
        payee,
        value.to_bytes(VALUE_BITS // 8, "big"),
        nonce.to_bytes(8, "big"),
        _KIND_TAG[kind],
        origin_hash or b"",
    ))).digest()


def make_transaction(
    payer: bytes,
    payee: bytes,
    value: int,
    nonce: int,
    kind: TxKind = TxKind.REGULAR,
    origin_hash: Optional[bytes] = None,
    fee: int = 0,
    inject_time: Optional[int] = None,
) -> Transaction:
    if len(payer) != ADDRESS_SIZE or len(payee) != ADDRESS_SIZE:
        raise ValueError("addresses must be 20 bytes")
    if not (0 <= value < (1 << VALUE_BITS)):
        raise ValueError("value out of range")
    if kind in DERIVED_KINDS and not origin_hash:
        raise ValueError(f"{kind.value} requires an origin_hash")
    if kind in INJECTED_KINDS and origin_hash:
        raise ValueError(f"{kind.value} must not carry an origin_hash")
    return Transaction(payer, payee, value, nonce, kind, origin_hash, fee, inject_time)


@dataclass(frozen=True, slots=True)
class AccountState:
    """Balance and nonce of one account inside one shard.

    Balances are signed: relay and broker halves debit and credit
    independently, so a shard-local balance may go below zero while the
    global sum stays conserved.
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
    applied (see ``apply_block_to_state``), and ``halves`` the credit halves
    that the proposer's split built (see ``mechanisms.credit_halves``).
    Neither is hashed, compared, encoded or copied by ``replace``: a block
    decoded from a frame, or a copy of one, starts without them.
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
    halves: Optional[tuple[Transaction, ...]] = field(
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
    """Account states of one shard with a Merkle root over sorted entries.

    Instances are immutable snapshots once shared: transition functions
    copy, mutate the copy before anyone else sees it, and return it, so
    verification can run against the pre-state while a candidate post-state
    is built. A post-state is shared by every replica that holds its block
    (see ``apply_block_to_state``), so nothing may write to a tree after it
    has been returned, except ``compute_state_root``.

    Rooting sets, once, the root, the addresses in sorted order (``_keys``)
    and every level of the Merkle tree (``_levels``, leaves first, each one
    byte string of 32-byte digests, the last holding the root). A tree that
    ``apply_txs`` or ``apply_migration`` derived from a rooted tree carries
    that base and the addresses it wrote (``_delta``) until it is rooted
    itself, which rehashes only what the base does not already hold and
    then drops both. Nothing is written to a rooted tree.
    """

    __slots__ = ("entries", "_root", "_keys", "_levels", "_delta")

    def __init__(self, entries: Optional[dict[bytes, AccountState]] = None) -> None:
        self.entries: dict[bytes, AccountState] = entries if entries is not None else {}
        self._root: Optional[bytes] = None
        self._keys: list[bytes] = []
        self._levels: list = []
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
    base's tree; a child of an unrooted tree is rooted from scratch."""
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


def _merkle_levels(leaves) -> list:
    """Every level of the tree over ``leaves``, leaves first: each node
    hashes its two children, and a last, unpaired node is promoted
    unchanged."""
    levels = [leaves]
    while len(levels[-1]) > DIGEST_SIZE:
        below = memoryview(levels[-1])
        end = len(below)
        above = b"".join([_sha256(below[i:i + 2 * DIGEST_SIZE]).digest()
                          for i in range(0, end - DIGEST_SIZE, 2 * DIGEST_SIZE)])
        if end % (2 * DIGEST_SIZE):
            above += below[end - DIGEST_SIZE:]
        levels.append(above)
    return levels


def _splice(keys: list[bytes], leaves, added: list[bytes]) -> tuple[list[bytes], bytearray]:
    """``keys`` with the sorted new addresses ``added`` inserted, and
    ``leaves`` with a zero placeholder at each insertion, so that every
    other leaf stays next to its key."""
    out_keys: list[bytes] = []
    out_leaves = bytearray()
    view = memoryview(leaves)
    prev = 0
    for addr in added:
        at = bisect_left(keys, addr, prev)
        out_keys += keys[prev:at]
        out_keys.append(addr)
        out_leaves += view[prev * DIGEST_SIZE:at * DIGEST_SIZE]
        out_leaves += ZERO_DIGEST
        prev = at
    out_keys += keys[prev:]
    out_leaves += view[prev * DIGEST_SIZE:]
    return out_keys, out_leaves


def compute_state_root(state: StateTree) -> bytes:
    """Merkle root over entries sorted by address; an odd node is promoted
    unchanged to the next level. The empty tree hashes the empty string.

    A tree derived from a rooted base starts from the base's tree. If it
    adds no address, it copies the base's levels and rehashes the written
    leaves and their ancestors. If it does, the new addresses are inserted
    into the base's keys and leaves, the written leaves are rehashed, and
    the inner levels are rebuilt. Any other tree is hashed from scratch."""
    if state._root is not None:
        return state._root
    entries = state.entries
    delta = state._delta
    if delta is None:
        keys = sorted(entries)
        levels = _merkle_levels(b"".join([_leaf_hash(entries[a]) for a in keys]))
    else:
        base, written = delta
        added = sorted(a for a in written if a not in base.entries)
        if added:
            keys, leaves = _splice(base._keys, base._levels[0], added)
            for addr in written:
                at = bisect_left(keys, addr) * DIGEST_SIZE
                leaves[at:at + DIGEST_SIZE] = _leaf_hash(entries[addr])
            levels = _merkle_levels(leaves)
        else:
            keys = base._keys
            levels = [bytearray(level) for level in base._levels]
            dirty = sorted({bisect_left(keys, addr) for addr in written})
            leaves = levels[0]
            for i in dirty:
                leaves[i * DIGEST_SIZE:(i + 1) * DIGEST_SIZE] = _leaf_hash(entries[keys[i]])
            for below, above in zip(levels, levels[1:]):
                dirty = sorted({i >> 1 for i in dirty})
                end = len(below)
                for i in dirty:
                    at = 2 * i * DIGEST_SIZE
                    pair = below[at:at + 2 * DIGEST_SIZE]
                    above[i * DIGEST_SIZE:(i + 1) * DIGEST_SIZE] = (
                        _sha256(pair).digest() if len(pair) > DIGEST_SIZE else pair)
    state._keys = keys
    state._levels = levels
    state._root = bytes(levels[-1]) if keys else EMPTY_TREE_ROOT
    state._delta = None
    return state._root


@dataclass(frozen=True, slots=True)
class PartitionMap:
    """Versioned account-to-shard assignment.

    The default placement hashes nothing: the last ``SHARD_SUFFIX_BYTES``
    bytes of the address, taken as a big-endian integer, are reduced modulo
    the shard count. ``overrides`` pins individual accounts elsewhere and
    grows as repartitioning runs. ``brokers`` are accounts considered
    present in every shard at once.

    ``_shard_of`` holds every shard ``address_to_shard`` has resolved under
    this map; ``updated`` seeds a child's table from its parent's. It is
    correct only because nothing writes a map, or its ``overrides``, after
    construction: a new version is a new map. Replicas of one process may
    share a map across threads; a lookup and an insertion are each atomic
    under the interpreter lock and every entry is a pure function of the
    map, so a race only resolves an account twice.
    """

    n_shards: int
    version: int = 0
    overrides: dict[bytes, int] = field(default_factory=dict)
    brokers: frozenset[bytes] = field(default_factory=frozenset)
    _shard_of: dict[bytes, int] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def updated(self, version: int, assignments: dict[bytes, int],
                brokers: Optional[Iterable[bytes]] = None) -> "PartitionMap":
        """The next version: ``assignments`` pinned over this map. Only an
        assigned account can change shard, so the child's table starts as a
        copy of this one with the assignments written over it."""
        merged = dict(self.overrides)
        merged.update(assignments)
        child = PartitionMap(
            n_shards=self.n_shards,
            version=version,
            overrides=merged,
            brokers=frozenset(brokers) if brokers is not None else self.brokers,
        )
        child._shard_of.update(self._shard_of)
        child._shard_of.update(assignments)
        return child


def address_to_shard(addr: bytes, pmap: PartitionMap) -> int:
    """The shard owning ``addr`` under ``pmap``: its override, else its
    address suffix modulo the shard count. Resolved once per map."""
    table = pmap._shard_of
    shard = table.get(addr)
    if shard is None:
        shard = pmap.overrides.get(addr)
        if shard is None:
            shard = int.from_bytes(addr[-SHARD_SUFFIX_BYTES:], "big") % pmap.n_shards
        table[addr] = shard
    return shard


def classify_transfer(payer: bytes, payee: bytes, pmap: PartitionMap) -> TxClass:
    """Classify a transfer between two accounts against ``pmap``."""
    if payer in pmap.brokers or payee in pmap.brokers:
        return TxClass.BROKER_INVOLVED
    if address_to_shard(payer, pmap) == address_to_shard(payee, pmap):
        return TxClass.REGULAR
    return TxClass.CROSS_SHARD


def classify_transaction(tx: Transaction, pmap: PartitionMap) -> TxClass:
    """Classify an injected transaction; derived kinds are already routed."""
    if tx.kind not in INJECTED_KINDS:
        raise ValueError(f"cannot classify derived kind {tx.kind.value}")
    return classify_transfer(tx.payer, tx.payee, pmap)


def tx_local_to_shard(tx: Transaction, shard_id: int, pmap: PartitionMap) -> bool:
    """True when every account the transaction touches for execution lives in
    ``shard_id``. Brokers count as local everywhere."""
    if tx.kind in CREDIT_KINDS:
        return address_to_shard(tx.payee, pmap) == shard_id
    if tx.kind in DEBIT_KINDS:
        return address_to_shard(tx.payer, pmap) == shard_id
    if tx.kind is TxKind.REGULAR:
        payer_ok = tx.payer in pmap.brokers or address_to_shard(tx.payer, pmap) == shard_id
        payee_ok = tx.payee in pmap.brokers or address_to_shard(tx.payee, pmap) == shard_id
        return payer_ok and payee_ok
    return False


def apply_txs(state: StateTree, txs: Iterable[Transaction]) -> StateTree:
    """Pure application of executable transactions to a snapshot.

    Regular transfers debit the payer and credit the payee. A debit half
    only debits, a credit half only credits; the matching half settles in
    the counterpart shard. No overdraft rule exists, balances may go
    negative.
    """
    entries = dict(state.entries)
    written: set[bytes] = set()
    for tx in txs:
        kind = tx.kind
        if kind is TxKind.REGULAR:
            payer = entries.get(tx.payer) or AccountState(address=tx.payer)
            entries[tx.payer] = AccountState(tx.payer, payer.balance - tx.value, payer.nonce + 1)
            payee = entries.get(tx.payee) or AccountState(address=tx.payee)
            entries[tx.payee] = AccountState(tx.payee, payee.balance + tx.value, payee.nonce)
            written.add(tx.payer)
            written.add(tx.payee)
        elif kind in DEBIT_KINDS:
            payer = entries.get(tx.payer) or AccountState(address=tx.payer)
            entries[tx.payer] = AccountState(tx.payer, payer.balance - tx.value, payer.nonce + 1)
            written.add(tx.payer)
        elif kind in CREDIT_KINDS:
            payee = entries.get(tx.payee) or AccountState(address=tx.payee)
            entries[tx.payee] = AccountState(tx.payee, payee.balance + tx.value, payee.nonce)
            written.add(tx.payee)
        else:
            raise ValueError(f"block carries unexecutable kind {kind.value}")
    return _derived(state, entries, written)


def apply_migration(
    state: StateTree,
    installs: Iterable[AccountState],
    departures: Iterable[bytes],
) -> StateTree:
    """Install inbound account states verbatim and drop departing ones. A
    post-state that lost an account is rooted from scratch."""
    entries = dict(state.entries)
    written: set[bytes] = set()
    for acct in installs:
        entries[acct.address] = acct
        written.add(acct.address)
    departed = [a for a in departures if entries.pop(a, None) is not None]
    if departed:
        return StateTree(entries)
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


def verify_block(
    block: Block,
    head: Block,
    state: StateTree,
    pmap: PartitionMap,
    theta: int,
) -> Optional[RejectReason]:
    """Check a proposed block against the local chain head and pre-state.

    Returns None when acceptable, otherwise the first failing reason. The
    post-state comes from ``apply_block_to_state``, possibly applied by
    another replica that holds the same block; its root is compared with
    ``block.state_root`` on every call, so a forged root is rejected by
    every replica.
    """
    if block.shard_id != head.shard_id:
        return RejectReason.WRONG_SHARD
    if block.height != head.height + 1:
        return RejectReason.BAD_HEIGHT
    if block.parent_hash != head.hash:
        return RejectReason.BAD_PARENT
    if block.block_kind is BlockKind.MIGRATION:
        if block.txs:
            return RejectReason.MALFORMED
    else:
        if block.migration_installs or block.migration_departures:
            return RejectReason.MALFORMED
        if len(block.txs) > theta:
            return RejectReason.OVERSIZE
        for tx in block.txs:
            if tx.kind in INJECTED_KINDS and tx.kind is not TxKind.REGULAR:
                return RejectReason.MALFORMED
            if tx.kind in DERIVED_KINDS and not tx.origin_hash:
                return RejectReason.MALFORMED
            if not tx_local_to_shard(tx, block.shard_id, pmap):
                return RejectReason.WRONG_SHARD
    if compute_state_root(apply_block_to_state(state, block)) != block.state_root:
        return RejectReason.BAD_STATE_ROOT
    return None


# --- canonical JSON layouts (wire and disk share these) ---


def tx_to_json(tx: Transaction, confirm_time: Optional[int] = None) -> dict:
    """Values are decimal strings so parsers without big integers survive."""
    return {
        "hash": tx.hash.hex(),
        "payer": address_to_hex(tx.payer),
        "payee": address_to_hex(tx.payee),
        "value": str(tx.value),
        "nonce": tx.nonce,
        "kind": tx.kind.value,
        "origin_hash": tx.origin_hash.hex() if tx.origin_hash else None,
        "fee": tx.fee,
        "inject_time": tx.inject_time,
        "confirm_time": confirm_time,
    }


# Value -> member tables for decoding: a dict hit instead of ``Enum``'s
# call, once per transaction line.
_TX_KIND_OF = {k.value: k for k in TxKind}
_BLOCK_KIND_OF = {k.value: k for k in BlockKind}


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
    only where ``signed``: no padding, underscores, plus sign or leading
    zeros."""
    if type(raw) is str and (signed or raw[:1] != "-"):
        try:
            n = int(raw)
        except ValueError:
            pass
        else:
            if str(n) == raw:
                return n
    raise ValueError(f"{name} must be a decimal string, not {raw!r}")


def tx_from_json(obj: dict, addresses: Optional[AddressTable] = None) -> Transaction:
    """Decode and hash-check one transaction. ``addresses``, an
    ``AddressTable`` shared by one parse pass, maps each address literal to
    the pass's object for that account; without it each literal is parsed
    afresh."""
    address = address_from_hex if addresses is None else addresses.__getitem__
    inject_time = obj.get("inject_time")
    if inject_time is not None and type(inject_time) is not int:
        raise ValueError(f"inject_time must be an integer or null, not {inject_time!r}")
    try:
        tx = Transaction(
            address(obj["payer"]),
            address(obj["payee"]),
            _decimal(obj["value"], "value"),
            _int(obj["nonce"], "nonce"),
            _member(_TX_KIND_OF, obj["kind"]),
            bytes.fromhex(obj["origin_hash"]) if obj.get("origin_hash") else None,
            _int(obj.get("fee", 0), "fee"),
            inject_time,
        )
    except OverflowError as exc:  # a value or nonce too wide for its hashed field
        raise ValueError(f"transaction field out of range: {exc}") from None
    if tx.hash.hex() != obj["hash"]:
        raise ValueError("transaction hash mismatch in serialized form")
    return tx


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
        "txs": [tx_to_json(tx, confirm_time) for tx in block.txs],
        "migration_installs": [account_to_json(a) for a in block.migration_installs],
        "migration_departures": [address_to_hex(a) for a in block.migration_departures],
        "timestamp": block.timestamp,
        "commit_time": confirm_time,
        "hash": block.hash.hex(),
    }


# Each kind's JSON token, quotes included, for ``block_line``.
_KIND_TOKEN = {k: f'"{k.value}"' for k in TxKind}


def block_line(block: Block, confirm_time: Optional[int] = None) -> str:
    """The string ``json.dumps(block_to_json(block, confirm_time))`` returns,
    built without the dicts: one block-file line.

    Every block and transaction field is a digest, an address, an int or
    an enum value, whose JSON form needs no escaping; ``proposer``, the one
    free-form string, and ``confirm_time``, taken as the caller gives it,
    go through ``json.dumps``. Values and balances are quoted decimals, as
    in ``tx_to_json`` and ``account_to_json``.
    """
    confirm = json.dumps(confirm_time)
    end = f', "confirm_time": {confirm}}}'
    kind_token = _KIND_TOKEN
    txs = []
    for tx in block.txs:
        origin = tx.origin_hash
        origin = f'"{origin.hex()}"' if origin else "null"
        inject = tx.inject_time
        inject = "null" if inject is None else inject
        txs.append(
            f'{{"hash": "{tx.hash.hex()}", "payer": "0x{tx.payer.hex()}", '
            f'"payee": "0x{tx.payee.hex()}", "value": "{tx.value}", "nonce": {tx.nonce}, '
            f'"kind": {kind_token[tx.kind]}, "origin_hash": {origin}, "fee": {tx.fee}, '
            f'"inject_time": {inject}{end}'
        )
    installs = ", ".join([
        f'{{"address": "0x{a.address.hex()}", "balance": "{a.balance}", "nonce": {a.nonce}}}'
        for a in block.migration_installs
    ])
    departures = ", ".join([f'"0x{a.hex()}"' for a in block.migration_departures])
    return (
        f'{{"shard_id": {block.shard_id}, "height": {block.height}, '
        f'"parent_hash": "{block.parent_hash.hex()}", "state_root": "{block.state_root.hex()}", '
        f'"proposer": {json.dumps(block.proposer)}, "block_kind": "{block.block_kind.value}", '
        f'"txs": [{", ".join(txs)}], "migration_installs": [{installs}], '
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
            parent_hash=bytes.fromhex(obj["parent_hash"]),
            state_root=bytes.fromhex(obj["state_root"]),
            proposer=obj["proposer"],
            block_kind=_member(_BLOCK_KIND_OF, obj["block_kind"]),
            txs=[tx_from_json(t, addresses) for t in obj["txs"]],
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

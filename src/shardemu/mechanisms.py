"""Cross-shard mechanisms, partition policies, and account migration.

Two mechanism families plug into the consensus hooks:

* relay: a cross-shard transfer is packed as a debit half in the payer's
  shard; on commit the matching credit half is forwarded to the payee's
  shard and packed there later. Atomicity is eventual, via the shared
  origin hash.
* broker: a cross-shard transfer is rewritten at injection into two
  independent, locally executable halves against a well-known intermediary
  account; transfers that already touch a broker stay single regular
  transactions.

Partitioning is either the static address-suffix map or constrained label
propagation over the observed transfer graph, with lock-based account
migration riding the normal consensus path as dedicated blocks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Optional

from .config import ClpaConfig
from .core import (
    CREDIT_KINDS,
    INJECTED_KINDS,
    Block,
    BlockKind,
    PartitionMap,
    RejectReason,
    Transaction,
    TxClass,
    TxKind,
    address_to_shard,
    apply_block_to_state,
    apply_migration,
    apply_txs,
    classify_transaction,
    compute_state_root,
    make_transaction,
    tx_local_to_shard,
    verify_block,
)
from .transport import (
    AccountMigrate,
    BlockInfo,
    Envelope,
    InjectTxs,
    MigratedAccount,
    PartitionResult,
    RelayCtx,
    shard_of,
)

log = logging.getLogger(__name__)


class NotCrossShard(ValueError):
    """Split requested for a transfer that both parties share a shard for."""


class NoBrokers(RuntimeError):
    """Broker mechanism configured without any broker accounts."""


# --- relay primitives ---


def relay_split(tx: Transaction, pmap: PartitionMap) -> tuple[Transaction, Transaction]:
    """Split an original transfer into its debit and credit halves.

    Both halves inherit value, nonce and inject_time and point back at the
    original through origin_hash. The debit half belongs in the payer's
    shard, the credit half in the payee's. The proposer's split is the one
    place a credit half is built: ``op_mining`` keeps it on the block for
    the commit (see ``credit_halves``).
    """
    if tx.kind not in INJECTED_KINDS:
        raise NotCrossShard(f"cannot split derived kind {tx.kind.value}")
    intra = make_transaction(
        tx.payer, tx.payee, tx.value, tx.nonce,
        kind=TxKind.INTRA_RELAY, origin_hash=tx.hash, fee=tx.fee,
        inject_time=tx.inject_time,
    )
    return intra, inter_from_intra(intra)


def inter_from_intra(intra: Transaction) -> Transaction:
    """The credit half of a debit half. ``relay_split`` builds it this way,
    and ``credit_halves`` rebuilds it for a block that carries no halves."""
    return make_transaction(
        intra.payer, intra.payee, intra.value, intra.nonce,
        kind=TxKind.INTER_RELAY, origin_hash=intra.origin_hash, fee=intra.fee,
        inject_time=intra.inject_time,
    )


def credit_halves(block: Block) -> tuple[Transaction, ...]:
    """The credit half of every debit half in ``block``, in block order.

    ``op_mining`` keeps the halves that the proposer's split built on the
    block, so every replica that holds the block commits from that one
    build. A block decoded from a frame carries none; its halves are
    rebuilt from the debit halves and kept on it. The halves are a pure
    function of the block's transactions, timing fields included; routing
    stays with each replica's map."""
    if block.halves is None:
        block.halves = tuple(
            inter_from_intra(tx) for tx in block.txs if tx.kind is TxKind.INTRA_RELAY
        )
    return block.halves


def relay_validate(body: RelayCtx, sender: str) -> Optional[str]:
    """Structural checks on an inbound relay batch; None when acceptable."""
    src = shard_of(sender)
    if src is None or src != body.source_shard:
        return f"sender {sender} does not belong to claimed shard {body.source_shard}"
    for tx in body.txs:
        if tx.kind not in CREDIT_KINDS:
            return f"relay batch carries non-credit kind {tx.kind.value}"
        if not tx.origin_hash:
            return "relay half missing origin hash"
    return None


# --- broker primitives ---


def pick_broker(pmap: PartitionMap) -> bytes:
    """Deterministic choice: the lowest broker address."""
    if not pmap.brokers:
        raise NoBrokers("no broker accounts configured")
    return min(pmap.brokers)


def broker_transform(tx: Transaction, pmap: PartitionMap) -> tuple[Transaction, Transaction]:
    """Rewrite a cross-shard transfer into two broker-bridged halves.

    The payer half (payer pays the broker) belongs in the payer's shard,
    the payee half (broker pays the payee) in the payee's shard. Both are
    locally executable on arrival and settle independently.
    """
    if classify_transaction(tx, pmap) is not TxClass.CROSS_SHARD:
        raise NotCrossShard("broker transform only applies to cross-shard transfers")
    broker = pick_broker(pmap)
    origin = tx.hash
    payer_half = make_transaction(
        tx.payer, broker, tx.value, tx.nonce,
        kind=TxKind.BROKER_PAYER_HALF, origin_hash=origin, fee=tx.fee,
        inject_time=tx.inject_time,
    )
    payee_half = make_transaction(
        broker, tx.payee, tx.value, tx.nonce,
        kind=TxKind.BROKER_PAYEE_HALF, origin_hash=origin, fee=tx.fee,
        inject_time=tx.inject_time,
    )
    return payer_half, payee_half


def exec_home_account(tx: Transaction, pmap: PartitionMap) -> bytes:
    """Account whose shard executes a queued transaction.

    Credit halves execute where the payee lives; everything else where the
    payer lives, falling back to the payee when the payer is a broker.
    ``BaseMechanism.evict_misplaced`` applies this rule inline.
    """
    if tx.kind in CREDIT_KINDS or (tx.payer in pmap.brokers and tx.payee not in pmap.brokers):
        return tx.payee
    return tx.payer


def exec_home_shard(tx: Transaction, pmap: PartitionMap) -> int:
    """Shard where a queued transaction must execute under ``pmap``."""
    return address_to_shard(exec_home_account(tx, pmap), pmap)


def forward(node: Any, by_dest: dict[int, list[Transaction]]) -> list:
    """Envelopes that hand transactions to other shards, in ascending shard
    order. Credit halves ride ``relay_ctx``, where the receiver drops
    duplicates by origin; everything else re-enters as ``inject_txs``."""
    outs = []
    for dest in sorted(by_dest):
        relays = [t for t in by_dest[dest] if t.kind in CREDIT_KINDS]
        raws = [t for t in by_dest[dest] if t.kind not in CREDIT_KINDS]
        if relays:
            body = RelayCtx(source_shard=node.shard_id, txs=relays)
            outs.append((("shard_all", dest), Envelope("relay_ctx", node.nid, body)))
        if raws:
            env = Envelope("inject_txs", node.nid, InjectTxs(txs=raws))
            outs.append((("shard_all", dest), env))
    return outs


# --- constrained label propagation ---


class AccountGraph:
    """Undirected weighted transfer graph folded from committed blocks.

    Vertex weight counts transfers touching the account; edge weight counts
    transfers between the pair. Credit halves are skipped during folding so
    a relayed transfer contributes one edge, not two.
    """

    def __init__(self) -> None:
        self.vertex_weight: dict[bytes, int] = {}
        self.adj: dict[bytes, dict[bytes, int]] = {}
        self.edge_count = 0

    def add_edge(self, a: bytes, b: bytes, w: int = 1) -> None:
        if a == b:
            return
        self.vertex_weight[a] = self.vertex_weight.get(a, 0) + w
        self.vertex_weight[b] = self.vertex_weight.get(b, 0) + w
        row = self.adj.setdefault(a, {})
        if b not in row:
            self.edge_count += 1
        row[b] = row.get(b, 0) + w
        row = self.adj.setdefault(b, {})
        row[a] = row.get(a, 0) + w

    def add_vertex(self, a: bytes, w: int = 0) -> None:
        self.vertex_weight.setdefault(a, w)
        self.adj.setdefault(a, {})

    @property
    def vertices(self) -> list[bytes]:
        return list(self.vertex_weight)

    def __len__(self) -> int:
        return len(self.vertex_weight)


def shard_loads(
    graph: AccountGraph, labels: dict[bytes, int], n_shards: int
) -> list[int]:
    loads = [0] * n_shards
    for v, w in graph.vertex_weight.items():
        loads[labels[v]] += w
    return loads


def clpa_partition(
    graph: AccountGraph,
    pmap: PartitionMap,
    params: ClpaConfig,
) -> tuple[PartitionMap, dict[bytes, int]]:
    """Relabel accounts to soak up cross-shard edges without piling load.

    Vertices are visited in ascending address order; each adopts the shard
    maximizing affinity times the load damping factor, ties resolved toward
    the lowest shard id. Shard loads are frozen for the duration of a round
    and recomputed between rounds. Isolated vertices and brokers keep their
    current shard. Returns the bumped map and the dirty set: accounts whose
    label changed, mapped to their new shard.

    A round is a pure function of the labelling it starts from, so once a
    start-of-round labelling repeats, the rest of the ``rho`` rounds only
    go round that cycle (a fixed point is a cycle of period 1). Propagation
    stops at the first repeat and returns the labelling that ``rho`` rounds
    reach on the cycle, the same result as running every round.
    """
    n = pmap.n_shards
    beta, rho = params.beta, params.rho
    labels = {v: address_to_shard(v, pmap) for v in graph.vertex_weight}
    order = sorted(labels)
    total_weight = sum(graph.vertex_weight.values())
    mean = total_weight / n if total_weight else 1.0
    seen: dict[tuple[int, ...], int] = {}  # start labelling -> its round
    for r in range(rho):
        start = tuple(labels[v] for v in order)
        first = seen.setdefault(start, r)
        if first != r:
            final = list(seen)[first + (rho - first) % (r - first)]
            for v, k in zip(order, final):
                labels[v] = k
            break
        loads = shard_loads(graph, labels, n)
        factors = [1.0 - beta * loads[k] / mean for k in range(n)]
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
            labels[v] = best_k
    dirty = {v: k for v, k in labels.items() if k != address_to_shard(v, pmap)}
    new_map = pmap.updated(pmap.version + 1, dirty)
    return new_map, dirty


# --- migration ---


@dataclass
class PendingPartition:
    version: int
    assignments: dict[bytes, int]
    brokers: list[bytes]


class MigrationController:
    """Per-replica state machine for one lock-based account migration.

    Lifecycle: a partition announcement locks the pool (uninvolved shards
    just adopt the map), the node quiesces once no round of its own is in
    flight, the leader then extracts displaced pool entries and ships
    account states, and a dedicated block commits the handover, switches
    the map, and unlocks.
    """

    def __init__(self) -> None:
        self.pending: Optional[PendingPartition] = None
        self.quiesced = False
        self.shipped = False
        self.outbound: dict[bytes, int] = {}
        self.inbound_expected: set[bytes] = set()
        self.inbound_states: dict[bytes, Any] = {}
        self.inbound_txs: dict[int, list[Transaction]] = {}
        self.extracted: list[Transaction] = []
        self.early: dict[int, list[tuple[str, AccountMigrate]]] = {}

    @property
    def active(self) -> bool:
        return self.pending is not None

    def new_shard_of(self, addr: bytes, pmap: PartitionMap) -> int:
        assert self.pending is not None
        got = self.pending.assignments.get(addr)
        return got if got is not None else address_to_shard(addr, pmap)

    def on_partition_result(self, node: Any, body: PartitionResult, now: int) -> list:
        if body.version <= node.pmap.version or self.active:
            return []
        me = node.shard_id
        outbound = {
            a: s
            for a, s in body.overrides.items()
            if address_to_shard(a, node.pmap) == me and s != me
        }
        inbound = {
            a
            for a, s in body.overrides.items()
            if s == me and address_to_shard(a, node.pmap) != me
        }
        if not outbound and not inbound:
            # Nothing moves through this shard; adopt the map right away so
            # routing decisions use fresh assignments.
            node.pmap = node.pmap.updated(body.version, body.overrides, body.brokers)
            return []
        self.pending = PendingPartition(body.version, dict(body.overrides), list(body.brokers))
        self.outbound = outbound
        self.inbound_expected = inbound
        node.pool.lock()
        for sender, early_body in self.early.pop(body.version, []):
            self.on_account_migrate(node, sender, early_body, now)
        self.early.clear()
        if node.phase.value == "idle":
            return self.quiesce(node, now)
        return []

    def quiesce(self, node: Any, now: int) -> list:
        """Extract displaced pool entries once no round is in flight.

        Every node prunes its own pool; only the leader ships the result,
        so follower pools converge to the leader's view through the same
        broadcast that feeds the target shard.
        """
        if self.quiesced or not self.active:
            return []
        self.quiesced = True
        dirty = set(self.pending.assignments)
        self.extracted = node.pool.extract_for_migration(dirty)
        return self.ensure_shipped(node, now)

    def ensure_shipped(self, node: Any, now: int) -> list:
        if self.shipped or not self.quiesced or not self.active:
            return []
        if not node.is_leader:
            return []
        self.shipped = True
        bundles: dict[int, dict[bytes, MigratedAccount]] = {}

        def bundle_for(target: int, addr: bytes) -> MigratedAccount:
            per = bundles.setdefault(target, {})
            acct = per.get(addr)
            if acct is None:
                acct = MigratedAccount(state=node.state.get(addr), pending_txs=[])
                per[addr] = acct
            return acct

        for addr in sorted(self.outbound):
            bundle_for(self.outbound[addr], addr)
        for tx in self.extracted:
            home = exec_home_account(tx, node.pmap)
            target = self.new_shard_of(home, node.pmap)
            bundle_for(target, home).pending_txs.append(tx)
        outs = []
        for target in sorted(bundles):
            accounts = [bundles[target][a] for a in sorted(bundles[target])]
            env = Envelope(
                "account_migrate",
                node.nid,
                AccountMigrate(version=self.pending.version, accounts=accounts),
            )
            outs.append((("shard_all", target), env))
        return outs

    def on_account_migrate(self, node: Any, sender: str, body: AccountMigrate, now: int) -> list:
        if not self.active or body.version != self.pending.version:
            if body.version > node.pmap.version:
                # Transfer outran the announcement; replay once it lands.
                self.early.setdefault(body.version, []).append((sender, body))
            return []
        src = shard_of(sender)
        txs = self.inbound_txs.setdefault(src, [])
        for acct in body.accounts:
            self.inbound_states[acct.state.address] = acct.state
            # A leader change mid-session can ship the same entries twice;
            # the pool queues a hash once.
            txs.extend(acct.pending_txs)
        return []

    def ready(self, node: Any) -> bool:
        return (
            self.active
            and self.quiesced
            and self.inbound_expected.issubset(self.inbound_states)
        )

    def build_block(self, node: Any, now: int) -> Block:
        installs = [self.inbound_states[a] for a in sorted(self.inbound_states)]
        departures = sorted(self.outbound)
        applied = apply_migration(node.state, installs, departures)
        block = Block(
            shard_id=node.shard_id,
            height=node.next_height,
            parent_hash=node.head.hash,
            state_root=compute_state_root(applied),
            proposer=node.nid,
            block_kind=BlockKind.MIGRATION,
            migration_installs=installs,
            migration_departures=departures,
            timestamp=now,
        )
        block.post = (compute_state_root(node.state), applied)
        return block

    def on_commit(self, mech: "BaseMechanism", node: Any, block: Block, now: int) -> list:
        """Switch to the announced map, unlock, requeue displaced entries,
        and evict anything the new map re-homes elsewhere."""
        pending = self.pending
        node.pmap = node.pmap.updated(pending.version, pending.assignments, pending.brokers)
        node.pool.unlock()
        for src in sorted(self.inbound_txs):
            batch = self.inbound_txs[src]
            node.pool.requeue(batch)
            for tx in batch:
                # Register migrated credit halves so a straggling duplicate
                # of the same relay is dropped rather than double-queued.
                if tx.kind in CREDIT_KINDS and tx.origin_hash:
                    node.relay_seen.add(tx.origin_hash)
        outs = mech.evict_misplaced(node, now)
        self.pending = None
        self.quiesced = False
        self.shipped = False
        self.outbound = {}
        self.inbound_expected = set()
        self.inbound_states = {}
        self.inbound_txs = {}
        self.extracted = []
        return outs


# --- consensus hooks ---


class BaseMechanism:
    """Shared packing, verification, and commit logic for one replica."""

    name = "base"

    def __init__(self) -> None:
        self.migration = MigrationController()

    # - packing -

    def op_mining(self, node: Any, now: int) -> tuple[Optional[Block], list]:
        outs: list = []
        if self.migration.active:
            outs.extend(self.migration.ensure_shipped(node, now))
            if self.migration.ready(node):
                return self.migration.build_block(node, now), outs
        if node.pool.locked:
            return None, outs
        packed = node.pool.pack_block_txs(node.theta)
        if not packed:
            return None, outs
        chosen: list[Transaction] = []
        halves: list[Transaction] = []
        forwards: dict[int, list[Transaction]] = {}
        for tx in packed:
            keep, route, half = self._place(tx, node)
            if keep is not None:
                chosen.append(keep)
            if route is not None:
                forwards.setdefault(route[0], []).append(route[1])
            if half is not None:
                halves.append(half)
        outs.extend(forward(node, forwards))
        if not chosen:
            return None, outs
        applied = apply_txs(node.state, chosen)
        block = Block(
            shard_id=node.shard_id,
            height=node.next_height,
            parent_hash=node.head.hash,
            state_root=compute_state_root(applied),
            proposer=node.nid,
            block_kind=BlockKind.TX,
            txs=chosen,
            timestamp=now,
        )
        block.post = (compute_state_root(node.state), applied)
        block.halves = tuple(halves)
        return block, outs

    def _place(self, tx: Transaction, node: Any) -> tuple[
        Optional[Transaction], Optional[tuple[int, Transaction]], Optional[Transaction]
    ]:
        """Decide what a packed pool entry becomes under the current map.

        Returns (transaction to include in the block, (shard, transaction)
        to forward now, credit half to emit when the block commits). A
        migration can re-home accounts while entries wait, so the execution
        home is re-derived at packing time: an entry another shard executes
        is forwarded there, a local one is kept whole, and a transfer that
        is cross-shard here is split by the mechanism.
        """
        home = exec_home_shard(tx, node.pmap)
        if home != node.shard_id:
            return None, (home, tx), None
        if tx_local_to_shard(tx, home, node.pmap):
            return tx, None, None
        return self._pack_cross(tx, node)

    def _pack_cross(self, tx: Transaction, node: Any) -> tuple[
        Transaction, Optional[tuple[int, Transaction]], Optional[Transaction]
    ]:
        raise NotImplementedError

    # - verification -

    def op_verification(self, node: Any, block: Block) -> Optional[RejectReason]:
        if block.block_kind is BlockKind.MIGRATION and not self.migration.active:
            return RejectReason.MALFORMED
        return verify_block(block, node.head, node.state, node.pmap, node.theta)

    # - confirmation -

    def op_confirmation(self, node: Any, block: Block, now: int) -> list:
        """Adopt the block's post-state, then return what the commit sends;
        migration shipping reads the post-commit state."""
        node.state = apply_block_to_state(node.state, block)
        outs: list = []
        if block.block_kind is BlockKind.TX:
            outs.extend(self._commit_emissions(node, block, now))
            if self.migration.active and not self.migration.quiesced:
                outs.extend(self.migration.quiesce(node, now))
        else:
            outs.extend(self.migration.on_commit(self, node, block, now))
        info = BlockInfo(block, now, len(node.pool), node.pmap.version)
        outs.append((("supervisor",), Envelope("block_info", node.nid, info)))
        return outs

    def _commit_emissions(self, node: Any, block: Block, now: int) -> list:
        return []

    def evict_misplaced(self, node: Any, now: int) -> list:
        """After a map switch, re-home queued entries the shard no longer
        owns. Every node drops them; only the leader forwards, so exactly
        one copy travels.

        One pass over the live queue, with ``exec_home_account``'s rule and
        the map's resolved-shard table inline: this runs on every replica at
        every migration commit, over the whole pool. A test pins it to
        ``exec_home_shard`` entry by entry."""
        gone: dict[int, list[Transaction]] = {}
        pmap = node.pmap
        brokers = pmap.brokers
        resolved = pmap._shard_of
        me = node.shard_id
        for tx in node.pool:
            if tx.kind in CREDIT_KINDS or (tx.payer in brokers and tx.payee not in brokers):
                home = tx.payee
            else:
                home = tx.payer
            shard = resolved.get(home)
            if shard is None:
                shard = address_to_shard(home, pmap)
            if shard != me:
                gone.setdefault(shard, []).append(tx)
        if not gone:
            return []
        node.pool.discard({t.hash for txs in gone.values() for t in txs})
        if not node.is_leader:
            return []
        return forward(node, gone)

    # - inter-shard dispatch -

    def handle_inter_shard_msg(self, node: Any, env: Envelope, now: int) -> list:
        if env.msg_type == "relay_ctx":
            return self._on_relay(node, env, now)
        if env.msg_type == "partition_result":
            return self.migration.on_partition_result(node, env.body, now)
        if env.msg_type == "account_migrate":
            return self.migration.on_account_migrate(node, env.sender, env.body, now)
        raise ValueError(f"not an inter-shard message: {env.msg_type}")

    def _on_relay(self, node: Any, env: Envelope, now: int) -> list:
        problem = relay_validate(env.body, env.sender)
        if problem is not None:
            log.warning("%s rejects relay batch: %s", node.nid, problem)
            return []
        accept: list[Transaction] = []
        misrouted: dict[int, list[Transaction]] = {}
        for tx in env.body.txs:
            if tx.origin_hash in node.relay_seen:
                continue
            home = exec_home_shard(tx, node.pmap)
            if home == node.shard_id:
                node.relay_seen.add(tx.origin_hash)
                accept.append(tx)
            else:
                misrouted.setdefault(home, []).append(tx)
        if accept:
            node.pool.append_relays(accept, node.pmap)
        if not node.is_leader:
            return []
        # A migration moved the payee while this batch was in flight.
        return forward(node, misrouted)


class RelayMechanism(BaseMechanism):
    """Debit half commits at the payer's shard, credit half rides a
    relay message and commits at the payee's shard later."""

    name = "relay"

    def _pack_cross(self, tx, node):
        intra, inter = relay_split(tx, node.pmap)
        return intra, None, inter

    def _commit_emissions(self, node: Any, block: Block, now: int) -> list:
        """Send the block's credit halves to their payees' shards. The
        halves come from ``credit_halves``, built once per block; each
        replica routes them under its own map."""
        batches: dict[int, list[Transaction]] = {}
        for inter in credit_halves(block):
            batches.setdefault(exec_home_shard(inter, node.pmap), []).append(inter)
        return forward(node, batches)


class BrokerMechanism(BaseMechanism):
    """Cross-shard transfers are bridged through a broker account at
    injection; the shard side only has to handle strays that a migration
    turned cross-shard after the fact."""

    name = "broker"

    def _pack_cross(self, tx, node):
        payer_half, payee_half = broker_transform(tx, node.pmap)
        return payer_half, (exec_home_shard(payee_half, node.pmap), payee_half), None


def make_mechanism(name: str) -> BaseMechanism:
    if name == "relay":
        return RelayMechanism()
    if name == "broker":
        return BrokerMechanism()
    raise ValueError(f"unknown mechanism {name!r}")

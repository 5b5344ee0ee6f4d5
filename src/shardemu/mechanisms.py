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
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Any, Collection, Iterable, Optional, Sequence

from .config import ClpaConfig
from .core import (
    CREDIT_KINDS,
    Block,
    BlockKind,
    PartitionMap,
    RejectReason,
    Transaction,
    TxKind,
    address_to_shard,
    apply_block_to_state,
    apply_migration,
    apply_txs,
    compute_state_root,
    crossings,
    home_accounts,
    home_shards,
    tx_digests,
    tx_local_to_shard,
    verify_block,
)
from .pbft import Phase
from .transport import (
    SUPERVISOR_ID,
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


def _halves(payers: Sequence[bytes], payees: Sequence[bytes], values: Sequence[int],
            nonces: Sequence[int], kind: TxKind, origins: Sequence[bytes],
            injects: Sequence[Optional[int]]) -> list[Transaction]:
    """Derived halves of one kind, given as columns, hashed in one batch
    (``core.tx_digests``). Their fields come from checked transactions, so
    the halves are built directly. A payer or payee column may be an
    endless ``repeat``."""
    kinds = repeat(kind)
    keys = tx_digests(payers, payees, values, nonces, kinds, origins)
    return list(map(Transaction, payers, payees, values, nonces, kinds, origins, injects, keys))


def debits_of(originals: Sequence[Transaction]) -> list[Transaction]:
    """The debit half of each original, for its payer's shard, in order.
    Each inherits value, nonce and inject_time and points back at its
    original through origin_hash. Its credit half is built only once the
    block carrying it commits (``credit_halves``)."""
    return _halves([tx.payer for tx in originals], [tx.payee for tx in originals],
                   [tx.value for tx in originals], [tx.nonce for tx in originals],
                   TxKind.INTRA_RELAY, [tx.hash for tx in originals],
                   [tx.inject_time for tx in originals])


def credits_of(debits: Sequence[Transaction]) -> list[Transaction]:
    """The credit half of each debit half, for its payee's shard, in order."""
    return _halves([tx.payer for tx in debits], [tx.payee for tx in debits],
                   [tx.value for tx in debits], [tx.nonce for tx in debits],
                   TxKind.INTER_RELAY, [tx.origin_hash for tx in debits],
                   [tx.inject_time for tx in debits])


def credit_halves(block: Block) -> tuple[Transaction, ...]:
    """The credit half of every debit half in ``block``, in block order.

    The one place a credit half is built: the first replica to commit a
    block object builds its halves and keeps them on it, so every replica
    that holds the same object commits from that one build, and a block
    decoded from a frame gets its own. The halves are a pure function of
    the block's transactions, timing fields included; ``relay_bodies``
    routes them under a replica's map. Every committed block passes
    through here, a broker block too, so the enum member is looked up once,
    not per transaction."""
    if block.halves is None:
        debit = TxKind.INTRA_RELAY
        block.halves = tuple(credits_of([tx for tx in block.txs if tx.kind is debit]))
    return block.halves


def relay_bodies(block: Block, pmap: PartitionMap) -> tuple[tuple[int, RelayCtx], ...]:
    """The ``relay_ctx`` bodies a commit of ``block`` sends under ``pmap``:
    its credit halves batched by their payees' shards, as (shard, body) in
    ascending shard order, each batch in block order.

    Kept on the block (``Block.relays``) with the map object they were
    routed under, so every replica that commits the same block object under
    the same map object sends the same bodies, and a replica under another
    map object routes afresh. Nothing but the receivers' memo
    (``RelayCtx.taken``) writes to a body once it is built."""
    routed = block.relays
    if routed is None or routed[0] is not pmap:
        by_dest: dict[int, list[Transaction]] = {}
        for inter in credit_halves(block):
            by_dest.setdefault(address_to_shard(inter.payee, pmap), []).append(inter)
        bodies = tuple((dest, RelayCtx(source_shard=block.shard_id, txs=by_dest[dest]))
                       for dest in sorted(by_dest))
        routed = block.relays = (pmap, bodies)
    return routed[1]


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


def broker_split(originals: Sequence[Transaction], broker: bytes) -> list[Transaction]:
    """The payer half, then the payee half, of each cross-shard original
    bridged through ``broker``, in order. The payer half (payer pays the
    broker) belongs in the payer's shard, the payee half (broker pays the
    payee) in the payee's shard; both are locally executable on arrival and
    settle independently. The caller has classified the originals as
    crossing shards, and the broker account passed its checks with them."""
    values = [tx.value for tx in originals]
    nonces = [tx.nonce for tx in originals]
    origins = [tx.hash for tx in originals]
    injects = [tx.inject_time for tx in originals]
    halves: list = [None] * (2 * len(originals))
    halves[0::2] = _halves([tx.payer for tx in originals], repeat(broker), values, nonces,
                           TxKind.BROKER_PAYER_HALF, origins, injects)
    halves[1::2] = _halves(repeat(broker), [tx.payee for tx in originals], values, nonces,
                           TxKind.BROKER_PAYEE_HALF, origins, injects)
    return halves


def forward(node: Any, by_dest: dict[int, list[Transaction]]) -> None:
    """Hand transactions to every replica of their shards, in ascending
    shard order. Credit halves ride ``relay_ctx``, where the receiver drops
    duplicates by origin; everything else re-enters as ``inject_txs``."""
    for dest in sorted(by_dest):
        relays = [t for t in by_dest[dest] if t.kind in CREDIT_KINDS]
        raws = [t for t in by_dest[dest] if t.kind not in CREDIT_KINDS]
        if relays:
            env = Envelope("relay_ctx", node.nid, RelayCtx(source_shard=node.shard_id, txs=relays))
            node.net.broadcast_shard(dest, env, include_self=True)
        if raws:
            env = Envelope("inject_txs", node.nid, InjectTxs(txs=raws))
            node.net.broadcast_shard(dest, env, include_self=True)


def misplaced(queue: Collection[Transaction], where: tuple[PartitionMap, int]) -> tuple[
    list[Transaction], dict[int, list[Transaction]]
]:
    """``BaseMechanism.evict_misplaced``'s rule: the queued entries whose
    home shard (``core.home_shards``) under ``pmap`` is not ``me`` (``where``
    is the pair), taken, and returned by their home shards, each list in
    queue order."""
    pmap, me = where
    gone: dict[int, list[Transaction]] = {}
    shards = home_shards(queue, pmap)
    if shards.count(me) != len(shards):  # most passes find every entry at home
        for tx, shard in zip(queue, shards):
            if shard != me:
                gone.setdefault(shard, []).append(tx)
    return [t for txs in gone.values() for t in txs], gone


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


@dataclass(slots=True)
class Migration:
    """One announced partition version on one replica of an involved shard:
    the announced map and the assignments it pins, the accounts leaving and
    expected in, what has arrived, and how far the handover has got.
    Dropped whole when its migration block commits."""

    pmap: PartitionMap
    assignments: dict[bytes, int]
    outbound: dict[bytes, int]
    inbound_expected: set[bytes]
    inbound_states: dict[bytes, Any] = field(default_factory=dict)
    inbound_txs: dict[int, list[Transaction]] = field(default_factory=dict)
    extracted: list[Transaction] = field(default_factory=list)
    quiesced: bool = False
    shipped: bool = False


class MigrationController:
    """Per-replica state machine for one lock-based account migration.

    Lifecycle: a partition announcement locks the pool (uninvolved shards
    just adopt the map), the node quiesces once no round of its own is in
    flight, the leader then extracts displaced pool entries and ships
    account states, and a dedicated block commits the handover, switches
    the map, and unlocks. ``session`` holds the migration in progress;
    ``early`` holds transfers that arrived before their announcement.
    Whatever a step sends goes out through ``node.net`` as it happens.
    """

    def __init__(self) -> None:
        self.session: Optional[Migration] = None
        self.early: dict[int, list[tuple[str, AccountMigrate]]] = {}

    @property
    def active(self) -> bool:
        return self.session is not None

    def on_partition_result(self, node: Any, body: PartitionResult, now: int) -> None:
        if body.version <= node.pmap.version or self.active:
            return
        announced = node.pmap.updated(body.version, body.overrides, body.brokers)
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
            node.pmap = announced
            return
        self.session = Migration(announced, dict(body.overrides), outbound, inbound)
        node.pool.lock()
        for sender, early_body in self.early.pop(body.version, []):
            self.on_account_migrate(node, sender, early_body, now)
        self.early.clear()
        if node.phase is Phase.IDLE:
            self.quiesce(node, now)

    def quiesce(self, node: Any, now: int) -> None:
        """Extract displaced pool entries once no round is in flight.

        Every node prunes its own pool; only the leader ships the result,
        so follower pools converge to the leader's view through the same
        broadcast that feeds the target shard.
        """
        mig = self.session
        if mig is None or mig.quiesced:
            return
        mig.quiesced = True
        mig.extracted = node.pool.extract_for_migration(set(mig.assignments))
        self.ensure_shipped(node, now)

    def ensure_shipped(self, node: Any, now: int) -> None:
        """Once quiesced, the leader sends each shard the account states
        leaving for it and the extracted entries it executes under the
        announced map, one ``account_migrate`` per shard, ascending."""
        mig = self.session
        if mig is None or mig.shipped or not mig.quiesced or not node.is_leader:
            return
        mig.shipped = True
        bundles: dict[int, dict[bytes, MigratedAccount]] = {}

        def bundle_for(target: int, addr: bytes) -> MigratedAccount:
            per = bundles.setdefault(target, {})
            acct = per.get(addr)
            if acct is None:
                acct = MigratedAccount(state=node.state.get(addr), pending_txs=[])
                per[addr] = acct
            return acct

        for addr in sorted(mig.outbound):
            bundle_for(mig.outbound[addr], addr)
        # Entries are grouped by home account first, so each home's shard
        # and bundle are looked up once; each keeps its extraction order.
        by_home: dict[bytes, list[Transaction]] = {}
        for tx, home in zip(mig.extracted, home_accounts(mig.extracted, mig.pmap.brokers)):
            by_home.setdefault(home, []).append(tx)
        for home, txs in by_home.items():
            bundle_for(address_to_shard(home, mig.pmap), home).pending_txs.extend(txs)
        for target in sorted(bundles):
            accounts = [bundles[target][a] for a in sorted(bundles[target])]
            body = AccountMigrate(version=mig.pmap.version, accounts=accounts)
            node.net.broadcast_shard(target, Envelope("account_migrate", node.nid, body),
                                     include_self=True)

    def on_account_migrate(self, node: Any, sender: str, body: AccountMigrate, now: int) -> None:
        mig = self.session
        if mig is None or body.version != mig.pmap.version:
            if body.version > node.pmap.version:
                # Transfer outran the announcement; replay once it lands.
                self.early.setdefault(body.version, []).append((sender, body))
            return
        src = shard_of(sender)
        txs = mig.inbound_txs.setdefault(src, [])
        for acct in body.accounts:
            mig.inbound_states[acct.state.address] = acct.state
            # A leader change mid-session can ship the same entries twice;
            # the pool queues a hash once.
            txs.extend(acct.pending_txs)

    def ready(self, node: Any) -> bool:
        mig = self.session
        return (
            mig is not None
            and mig.quiesced
            and mig.inbound_expected.issubset(mig.inbound_states)
        )

    def build_block(self, node: Any, now: int) -> Block:
        mig = self.session
        installs = [mig.inbound_states[a] for a in sorted(mig.inbound_states)]
        departures = sorted(mig.outbound)
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

    def on_commit(self, mech: "BaseMechanism", node: Any, block: Block, now: int) -> None:
        """Switch to the announced map, unlock, requeue displaced entries
        (by source shard, ascending), and evict anything the new map
        re-homes elsewhere."""
        mig = self.session
        node.pmap = mig.pmap
        node.pool.unlock()
        requeue = [tx for src in sorted(mig.inbound_txs) for tx in mig.inbound_txs[src]]
        # Register migrated credit halves, by this replica's bit in the
        # shard's record, so a straggling duplicate of the same relay is
        # dropped rather than double-queued.
        seen, bit = node.relay_seen, node.relay_bit
        with seen.guard:
            for tx in requeue:
                if tx.kind in CREDIT_KINDS and tx.origin_hash:
                    seen[tx.origin_hash] = seen.get(tx.origin_hash, 0) | bit
        mech.evict_misplaced(node, now, requeue)
        self.session = None


# --- consensus hooks ---


class BaseMechanism:
    """Shared packing, verification, and commit logic for one replica."""

    name = "base"

    def __init__(self) -> None:
        self.migration = MigrationController()

    # - packing -

    def op_mining(self, node: Any, now: int) -> Optional[Block]:
        """The next block to propose, if any. Packed entries another shard
        executes, and broker payee halves, are sent on before the block is
        built."""
        if self.migration.active:
            self.migration.ensure_shipped(node, now)
            if self.migration.ready(node):
                return self.migration.build_block(node, now)
        if node.pool.locked:
            return None
        packed = node.pool.pack_block_txs(node.theta)
        if not packed:
            return None
        # A migration can re-home accounts while entries wait, so the home
        # is re-derived at packing time: an entry another shard executes is
        # forwarded there, a local one is kept whole, and the transfers that
        # are cross-shard here (strays) are split by the mechanism, all at
        # once, and placed in packing order.
        pmap, me = node.pmap, node.shard_id
        homes = home_shards(packed, pmap)
        astray = [home == me and not tx_local_to_shard(tx, me, pmap)
                  for tx, home in zip(packed, homes)]
        splits = iter(self._split_strays(list(compress(packed, astray)), pmap)
                      if any(astray) else ())
        chosen: list[Transaction] = []
        forwards: dict[int, list[Transaction]] = {}
        for tx, home, stray in zip(packed, homes, astray):
            if stray:
                half, route = next(splits)
                chosen.append(half)
                if route is not None:
                    forwards.setdefault(route[0], []).append(route[1])
            elif home != me:
                forwards.setdefault(home, []).append(tx)
            else:
                chosen.append(tx)
        forward(node, forwards)
        if not chosen:
            return None
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
        return block

    def _split_strays(self, strays: Sequence[Transaction], pmap: PartitionMap) -> Iterable[
        tuple[Transaction, Optional[tuple[int, Transaction]]]
    ]:
        """What each transfer packed in its home shard but not local there
        becomes, in order: (the half to include in the block, (shard, half)
        to forward now, or None). Called once per block that has strays."""
        raise NotImplementedError

    # - verification -

    def op_verification(self, node: Any, block: Block) -> Optional[RejectReason]:
        if block.block_kind is BlockKind.MIGRATION and not self.migration.active:
            return RejectReason.MALFORMED
        return verify_block(block, node.head, node.state, node.pmap, node.theta)

    # - confirmation -

    def op_confirmation(self, node: Any, block: Block, now: int) -> None:
        """Adopt the block's post-state, then send what the commit owes:
        the block's credit halves to their payees' shards (a broker block
        has none), routed under the replica's own map (``relay_bodies``),
        in one envelope of this replica's per body; any migration shipping,
        which reads the post-commit state; and last the block's report to
        the supervisor."""
        node.state = apply_block_to_state(node.state, block)
        if block.block_kind is BlockKind.TX:
            for dest, body in relay_bodies(block, node.pmap):
                node.net.broadcast_shard(dest, Envelope("relay_ctx", node.nid, body),
                                         include_self=True)
            self.migration.quiesce(node, now)
        else:
            self.migration.on_commit(self, node, block, now)
        info = BlockInfo(block, now, len(node.pool), node.pmap.version)
        node.net.send(SUPERVISOR_ID, Envelope("block_info", node.nid, info))

    def evict_misplaced(self, node: Any, now: int, requeue: Sequence[Transaction] = ()) -> None:
        """After a map switch, requeue ``requeue`` at the pool's tail, then
        re-home queued entries the shard no longer owns. Every node drops
        them; only the leader forwards, so exactly one copy travels.

        Both steps are one ``TxPool.split`` under the ``misplaced`` rule,
        keyed by the map and the shard, so the replicas of a shard whose
        pools are equal run the pass once between them."""
        gone = node.pool.split(misplaced, (node.pmap, node.shard_id), requeue)
        if gone and node.is_leader:
            forward(node, gone)

    # - inter-shard dispatch -

    def handle_inter_shard_msg(self, node: Any, env: Envelope, now: int) -> None:
        if env.msg_type == "relay_ctx":
            self._on_relay(node, env, now)
        elif env.msg_type == "partition_result":
            self.migration.on_partition_result(node, env.body, now)
        elif env.msg_type == "account_migrate":
            self.migration.on_account_migrate(node, env.sender, env.body, now)
        else:
            raise ValueError(f"not an inter-shard message: {env.msg_type}")

    def _on_relay(self, node: Any, env: Envelope, now: int) -> None:
        body = env.body
        seen, bit = node.relay_seen, node.relay_bit
        # A batch this replica took whole has nothing left for it: bits in
        # the record are never cleared. The sender is still checked, so a
        # sender outside the batch's shard is warned about as before.
        taken = body.taken
        if (taken is not None and taken[0] is seen and taken[1] & bit
                and shard_of(env.sender) == body.source_shard):
            return
        problem = relay_validate(body, env.sender)
        if problem is not None:
            log.warning("%s rejects relay batch: %s", node.nid, problem)
            return
        accept: list[Transaction] = []
        misrouted: dict[int, list[Transaction]] = {}
        pmap, me = node.pmap, node.shard_id
        # A half is new to this replica when its bit in the shard's record
        # is clear; the guard keeps each check and set exact between the
        # replicas' threads over TCP.
        get = seen.get
        with seen.guard:
            for tx in body.txs:
                origin = tx.origin_hash
                bits = get(origin, 0)
                if bits & bit:
                    continue
                # A credit half (relay_validate checked the kind) executes
                # where its payee lives.
                home = address_to_shard(tx.payee, pmap)
                if home == me:
                    seen[origin] = bits | bit
                    accept.append(tx)
                else:
                    misrouted.setdefault(home, []).append(tx)
            if not misrouted:
                # A misrouted half is walked, and forwarded by the leader,
                # on every delivery, so only a whole take is remembered. A
                # memo naming another shard's record is replaced.
                taken = body.taken
                body.taken = (seen, taken[1] | bit if taken is not None and taken[0] is seen
                              else bit)
        if accept:
            node.pool.append_relays(accept, pmap)
        if node.is_leader:
            # A migration moved the payee while this batch was in flight.
            forward(node, misrouted)


class RelayMechanism(BaseMechanism):
    """Debit half commits at the payer's shard, credit half rides a
    relay message and commits at the payee's shard later."""

    name = "relay"

    def _split_strays(self, strays, pmap):
        return zip(debits_of(strays), repeat(None))


class BrokerMechanism(BaseMechanism):
    """Cross-shard transfers are bridged through a broker account at
    injection; the shard side only has to handle strays that a migration
    turned cross-shard after the fact."""

    name = "broker"

    def _split_strays(self, strays, pmap):
        if not all(crossings([tx.payer for tx in strays], [tx.payee for tx in strays], pmap)):
            raise NotCrossShard("a broker split only applies to cross-shard transfers")
        halves = broker_split(strays, pick_broker(pmap))
        payee_halves = halves[1::2]
        return zip(halves[0::2], zip(home_shards(payee_halves, pmap), payee_halves))


def make_mechanism(name: str) -> BaseMechanism:
    if name == "relay":
        return RelayMechanism()
    if name == "broker":
        return BrokerMechanism()
    raise ValueError(f"unknown mechanism {name!r}")

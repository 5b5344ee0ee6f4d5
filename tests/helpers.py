"""Shared builders for the test suite.

Addresses pinned to specific shards, transactions and committed blocks with
preset hashes, tiny CSV datasets, config dictionaries with sensible test
defaults, a four-node shard wired over the simulated network, a recorder of
the credit halves each replica queues and the check of the shards'
relay-dedupe records against it, the CLPA objective and cut weight used as
brute-force oracles, and an independent
copy of the execution-home, locality and cross-shard rules, one
transaction at a time, as the oracle for the batch rules in ``core``, the
split halves and the packing placement, one transaction at a time, as the
oracle for the batch splits in ``mechanisms``, and a per-field decoder of
one transaction, as the oracle for ``core.txs_from_json``. Nothing
here asserts; helpers stay dumb so failures point at the code under test.
"""

from __future__ import annotations

import socket
from typing import Optional

from shardemu.config import RunConfig, parse_config
from shardemu.core import (
    ADDRESS_SIZE,
    CREDIT_KINDS,
    DEBIT_KINDS,
    SHARD_SUFFIX_BYTES,
    ZERO_DIGEST,
    Block,
    BlockKind,
    PartitionMap,
    Transaction,
    TxKind,
    _digest,
    address_from_hex,
    address_to_shard,
    digest,
    make_transaction,
)
from shardemu.dataset import HEADER
from shardemu.mechanisms import (
    AccountGraph,
    BaseMechanism,
    NoBrokers,
    NotCrossShard,
    make_mechanism,
    shard_loads,
)
from shardemu.pbft import RelaySeen, Replica
from shardemu.transport import SUPERVISOR_ID, SimNetwork, node_id
from shardemu.txpool import TxPool


def suffix_shard(addr: bytes, n_shards: int) -> int:
    """The default (override-free) address-to-shard placement."""
    return int.from_bytes(addr[-SHARD_SUFFIX_BYTES:], "big") % n_shards


def addr(tag: str, shard: Optional[int] = None, n_shards: int = 2) -> bytes:
    """Deterministic 20-byte address, optionally pinned to ``shard`` under
    the default suffix placement for ``n_shards``."""
    i = 0
    while True:
        cand = digest(f"test-addr:{tag}:{i}".encode())[:ADDRESS_SIZE]
        if shard is None or suffix_shard(cand, n_shards) == shard:
            return cand
        i += 1


def regular_tx(payer: bytes, payee: bytes, value: int = 1, nonce: int = 0,
               inject_time: Optional[int] = 0) -> Transaction:
    return make_transaction(payer, payee, value, nonce, kind=TxKind.REGULAR,
                            inject_time=inject_time)


def exec_home_account(tx: Transaction, pmap: PartitionMap) -> bytes:
    """Oracle: the account whose shard executes a queued transaction.
    Credit halves execute where the payee lives, debit halves where the
    payer lives, and an injected transfer where its payer lives, falling
    back to the payee when a broker pays a non-broker."""
    if tx.kind in CREDIT_KINDS:
        return tx.payee
    if tx.kind in DEBIT_KINDS:
        return tx.payer
    if tx.payer in pmap.brokers and tx.payee not in pmap.brokers:
        return tx.payee
    return tx.payer


def exec_home_shard(tx: Transaction, pmap: PartitionMap) -> int:
    """Oracle: the shard where a queued transaction executes under ``pmap``."""
    return address_to_shard(exec_home_account(tx, pmap), pmap)


def local_to_shard(tx: Transaction, shard_id: int, pmap: PartitionMap) -> bool:
    """Oracle: every account the transaction touches for execution lives in
    ``shard_id``; brokers count as local everywhere."""
    if tx.kind in CREDIT_KINDS:
        return address_to_shard(tx.payee, pmap) == shard_id
    if tx.kind in DEBIT_KINDS:
        return address_to_shard(tx.payer, pmap) == shard_id
    if tx.kind is TxKind.REGULAR:
        payer_ok = tx.payer in pmap.brokers or address_to_shard(tx.payer, pmap) == shard_id
        payee_ok = tx.payee in pmap.brokers or address_to_shard(tx.payee, pmap) == shard_id
        return payer_ok and payee_ok
    return False


def crosses(payer: bytes, payee: bytes, pmap: PartitionMap) -> bool:
    """Oracle: a transfer spans two shards when neither account is a broker
    and their shards differ."""
    return (payer not in pmap.brokers and payee not in pmap.brokers
            and address_to_shard(payer, pmap) != address_to_shard(payee, pmap))


def relay_debit(tx: Transaction) -> Transaction:
    """Oracle: the debit half of an original, built and hashed on its own."""
    return Transaction(tx.payer, tx.payee, tx.value, tx.nonce, TxKind.INTRA_RELAY, tx.hash,
                       tx.inject_time)


def broker_pair(tx: Transaction, broker: bytes) -> tuple[Transaction, Transaction]:
    """Oracle: the payer half and the payee half of an original bridged
    through ``broker``, each built and hashed on its own."""
    return (Transaction(tx.payer, broker, tx.value, tx.nonce, TxKind.BROKER_PAYER_HALF,
                        tx.hash, tx.inject_time),
            Transaction(broker, tx.payee, tx.value, tx.nonce, TxKind.BROKER_PAYEE_HALF,
                        tx.hash, tx.inject_time))


def reference_pack(packed, pmap: PartitionMap, me: int, mechanism: str
                   ) -> tuple[list[Transaction], dict[int, list[Transaction]]]:
    """Oracle: where packing in shard ``me`` places each packed entry, one
    at a time, as (the block's txs, the entries forwarded per shard), each
    in packing order. An entry another shard executes is forwarded there
    whole, a local one kept whole; a stray (at home but not local) is kept
    as its relay debit half, or as its broker payer half with the payee
    half forwarded to the payee half's home. Under broker, a stray that
    does not cross shards raises ``NotCrossShard``; failing that, strays
    on a map without brokers raise ``NoBrokers``."""
    placed = []
    for tx in packed:
        home = exec_home_shard(tx, pmap)
        stray = home == me and not local_to_shard(tx, me, pmap)
        if stray and mechanism == "broker" and not crosses(tx.payer, tx.payee, pmap):
            raise NotCrossShard("stray does not cross shards")
        placed.append((tx, home, stray))
    if mechanism == "broker" and any(stray for _, _, stray in placed) and not pmap.brokers:
        raise NoBrokers("no broker accounts configured")
    chosen: list[Transaction] = []
    forwards: dict[int, list[Transaction]] = {}
    for tx, home, stray in placed:
        if stray and mechanism == "relay":
            chosen.append(relay_debit(tx))
        elif stray:
            payer_half, payee_half = broker_pair(tx, min(pmap.brokers))
            chosen.append(payer_half)
            forwards.setdefault(exec_home_shard(payee_half, pmap), []).append(payee_half)
        elif home == me:
            chosen.append(tx)
        else:
            forwards.setdefault(home, []).append(tx)
    return chosen, forwards


_KIND_OF = {k.value: k for k in TxKind}


def reference_tx_from_json(obj: dict) -> Transaction:
    """Oracle: a per-field decoder of one transaction, given as one entry
    of each column keyed by the column's name, as the decoder of the row
    layout read it. It parses each address afresh, takes ``value`` only if
    ``str(int(value))`` gives it back, and lets ``Transaction`` hash. It
    reads a falsy ``origin_hash`` ("", false, 0, [], {}) as null, which the
    column decoder refuses."""
    inject_time = obj.get("inject_time")
    if inject_time is not None and type(inject_time) is not int:
        raise ValueError(f"inject_time must be an integer or null, not {inject_time!r}")
    value = obj["value"]
    if type(value) is not str or value[:1] == "-":
        raise ValueError(f"value must be a decimal string, not {value!r}")
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"value must be a decimal string, not {value!r}") from None
    if str(number) != value:
        raise ValueError(f"value must be a decimal string, not {value!r}")
    nonce = obj["nonce"]
    if type(nonce) is not int:
        raise ValueError(f"nonce must be an integer, not {nonce!r}")
    try:
        kind = _KIND_OF[obj["kind"]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown kind {obj['kind']!r}") from None
    origin = _digest(obj["origin_hash"], "origin_hash") if obj.get("origin_hash") else None
    try:
        tx = Transaction(address_from_hex(obj["payer"]), address_from_hex(obj["payee"]),
                         number, nonce, kind, origin, inject_time)
    except OverflowError as exc:
        raise ValueError(f"transaction field out of range: {exc}") from None
    if tx.hash.hex() != obj["hash"]:
        raise ValueError("transaction hash mismatch in serialized form")
    return tx


def hashed_tx(tx_hash: bytes, kind: TxKind, origin_hash: Optional[bytes] = None) -> Transaction:
    """A transaction that carries ``tx_hash`` instead of its own digest."""
    return Transaction(b"\x0a" * ADDRESS_SIZE, b"\x0b" * ADDRESS_SIZE, 1, 0, kind,
                       origin_hash=origin_hash, inject_time=0, hash=tx_hash)


def committed_block(shard: int, height: int, txs=(),
                    kind: BlockKind = BlockKind.TX) -> Block:
    """A block as a replica reports it; parent and root are placeholders."""
    return Block(shard_id=shard, height=height, parent_hash=ZERO_DIGEST,
                 state_root=ZERO_DIGEST, proposer=f"{shard}.0", block_kind=kind,
                 txs=list(txs))


def free_ports(n: int) -> list[int]:
    """Distinct free loopback ports: every socket stays bound until all are
    chosen, so the kernel cannot hand out one port twice."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def write_dataset(path, rows) -> str:
    """Rows are (payer_bytes, payee_bytes, value) triples."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        for payer, payee, value in rows:
            fh.write(f"{payer.hex()},{payee.hex()},{value}\n")
    return str(path)


def cfg_dict(**over) -> dict:
    """A small, fast correctness-protocol config; override freely."""
    base = {
        "n_shards": 2,
        "nodes_per_shard": 4,
        "block_size": 10,
        "block_interval_ms": 100,
        "epoch_ms": 500,
        "mechanism": "relay",
        "partition": "static",
        "injection": {"prefill": True},
        "transport": {"sim": {"latency_ms": 5, "seed": 0}},
        "stop": {"drain": True},
    }
    base.update(over)
    return base


def build_cfg(**over) -> RunConfig:
    return parse_config(cfg_dict(**over))


class SupervisorSink:
    """Stands in for the supervisor when a test drives replicas directly."""

    def __init__(self) -> None:
        self.envelopes = []

    def on_envelope(self, env, now) -> None:
        self.envelopes.append((now, env))

    def on_timer(self, tag, data, now) -> None:
        pass


def build_shard(
    net: SimNetwork,
    shard_id: int = 0,
    n_nodes: int = 4,
    theta: int = 10,
    delta: int = 100,
    vc_timeout: int = 1000,
    n_shards: int = 1,
    mechanism: str = "relay",
    pmap: Optional[PartitionMap] = None,
) -> dict[str, Replica]:
    """One consensus group registered on ``net``, wired as ``build_nodes``
    wires a shard: pools start empty, and the replicas share one
    relay-dedupe record."""
    if pmap is None:
        pmap = PartitionMap(n_shards=n_shards)
    replicas: dict[str, Replica] = {}
    seen = RelaySeen()
    for i in range(n_nodes):
        nid = node_id(shard_id, i)
        replica = Replica(
            shard_id=shard_id,
            index=i,
            n_nodes=n_nodes,
            theta=theta,
            block_interval_ms=delta,
            vc_timeout_ms=vc_timeout,
            pool=TxPool(shard_id),
            pmap=pmap,
            hooks=make_mechanism(mechanism),
            net=net,
            relay_seen=seen,
        )
        replicas[nid] = replica
        net.register(nid, replica, shard=shard_id)
    return replicas


class CreditIntake:
    """Records the origin hash of every credit half each replica queues: a
    relay batch it accepts (``TxPool.append_relays``, by pool) and the
    credit halves a migration requeues (``BaseMechanism.evict_misplaced``,
    by node). Install it through ``monkeypatch`` before the run is wired;
    ``of(replica)`` gives one replica's origins. Both transports run every
    node on one thread, so the sets are never written at once."""

    def __init__(self, monkeypatch) -> None:
        self._by_pool: dict[int, set[bytes]] = {}
        self._by_node: dict[str, set[bytes]] = {}
        append, evict = TxPool.append_relays, BaseMechanism.evict_misplaced

        def append_relays(pool, relays, pmap):
            self._by_pool.setdefault(id(pool), set()).update(tx.origin_hash for tx in relays)
            return append(pool, relays, pmap)

        def evict_misplaced(mech, node, now, requeue=()):
            self._by_node.setdefault(node.nid, set()).update(
                tx.origin_hash for tx in requeue if tx.kind in CREDIT_KINDS)
            return evict(mech, node, now, requeue)

        monkeypatch.setattr(TxPool, "append_relays", append_relays)
        monkeypatch.setattr(BaseMechanism, "evict_misplaced", evict_misplaced)

    def of(self, replica: Replica) -> set[bytes]:
        return self._by_pool.get(id(replica.pool), set()) | self._by_node.get(replica.nid, set())


def relay_record_problems(replicas, intake: CreditIntake) -> list[str]:
    """One line per shard whose replicas do not all hold one relay-dedupe
    record, and per replica whose bits in it are not the origins of the
    credit halves it queued (``intake``)."""
    problems = []
    records: dict[int, set[int]] = {}
    for replica in replicas:
        records.setdefault(replica.shard_id, set()).add(id(replica.relay_seen))
        marked = {o for o, bits in replica.relay_seen.items() if bits & replica.relay_bit}
        queued = intake.of(replica)
        if marked != queued:
            problems.append(f"{replica.nid}: {len(marked - queued)} bits set without a queued "
                            f"credit half, {len(queued - marked)} queued without a bit")
    problems += [f"shard {k}: {len(ids)} records" for k, ids in records.items() if len(ids) != 1]
    return problems


def attach_sink(net: SimNetwork) -> SupervisorSink:
    sink = SupervisorSink()
    net.register(SUPERVISOR_ID, sink)
    return sink


def clpa_objective(
    graph: AccountGraph, labels: dict[bytes, int], beta: float, n_shards: int
) -> float:
    """Total load-damped within-shard affinity the propagation maximizes."""
    loads = shard_loads(graph, labels, n_shards)
    mean = sum(loads) / n_shards if any(loads) else 1.0
    total = 0.0
    for v, row in graph.adj.items():
        k = labels[v]
        internal = sum(w for u, w in row.items() if labels[u] == k)
        total += internal * (1.0 - beta * loads[k] / mean)
    return total


def cut_weight(graph: AccountGraph, labels: dict[bytes, int]) -> int:
    cut = 0
    for v, row in graph.adj.items():
        for u, w in row.items():
            if v < u and labels[v] != labels[u]:
                cut += w
    return cut

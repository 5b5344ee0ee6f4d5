"""Per-node transaction pool.

Every node of a shard mirrors the same pool content (injections and relays
are broadcast shard-wide), so any node that becomes leader can propose. The
pool is unbounded; back-pressure is an explicit non-goal, queue growth is
itself a measurement. The pool never writes to a transaction: the
supervisor stamps ``inject_time`` once, at injection.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from .core import (
    CREDIT_KINDS,
    PartitionMap,
    Transaction,
    address_to_shard,
)


class PoolError(Exception):
    pass


class PoolLocked(PoolError):
    """Packing or extraction attempted while a migration lock is held."""


class PoolNotLocked(PoolError):
    """Migration extraction requires the lock to be held first."""


class WrongShard(PoolError):
    """A relay half was appended to a shard that does not own its payee."""


class TxPool:
    """Queue of pending transactions for one shard, keyed by hash.

    The queue is an insertion-ordered dict, so a transaction is queued at
    most once: adding a hash that is already queued does nothing and is not
    counted. ``policy`` selects packing order: "fifo" takes the queue head,
    "fee" takes highest fee first with queue order breaking ties. During a
    migration lock injection still lands (clients do not pause) but packing
    and extraction order is frozen until unlock.
    """

    def __init__(self, shard_id: int, policy: str = "fifo") -> None:
        if policy not in ("fifo", "fee"):
            raise ValueError(f"unknown pool policy {policy!r}")
        self.shard_id = shard_id
        self.policy = policy
        self.locked = False
        self._queue: dict[bytes, Transaction] = {}
        # Accounting counters; size must always equal
        # injected + appended - packed - extracted - removed.
        self.injected = 0
        self.appended = 0
        self.packed = 0
        self.extracted = 0
        self.removed = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Transaction]:
        """The queued transactions in queue order, live: the pool must not
        change while the iterator is in use."""
        return iter(self._queue.values())

    def _add(self, txs: Iterable[Transaction]) -> int:
        queue = self._queue
        before = len(queue)
        for tx in txs:
            queue.setdefault(tx.hash, tx)
        return len(queue) - before

    def _pop(self, hashes: Iterable[bytes]) -> int:
        queue = self._queue
        before = len(queue)
        for h in hashes:
            queue.pop(h, None)
        return before - len(queue)

    def preload(self, txs: Iterable[Transaction]) -> int:
        """Queue client transactions as stamped by the supervisor, for the
        prefill and for live injection batches."""
        n = self._add(txs)
        self.injected += n
        return n

    def append_relays(self, relays: list[Transaction], pmap: PartitionMap) -> int:
        """Queue inbound credit halves behind everything already waiting.

        Relay halves keep the inject_time of their origin; latency is
        measured from first injection, not from the hop.
        """
        for tx in relays:
            if tx.kind not in CREDIT_KINDS:
                raise WrongShard(f"not a credit half: {tx.kind.value}")
            if address_to_shard(tx.payee, pmap) != self.shard_id:
                raise WrongShard(
                    f"payee of {tx.hash.hex()[:8]} maps off shard {self.shard_id}"
                )
        n = self._add(relays)
        self.appended += n
        return n

    def requeue(self, txs: Iterable[Transaction]) -> int:
        """Re-admit transactions displaced by a migration, at the tail.

        They keep their original inject_time; confirmation latency is
        measured from first injection.
        """
        n = self._add(txs)
        self.appended += n
        return n

    def discard(self, hashes: set[bytes]) -> int:
        """Drop queued transactions that no longer belong to this shard."""
        n = self._pop(hashes)
        self.extracted += n
        return n

    def pack_block_txs(self, theta: int) -> list[Transaction]:
        """Remove and return up to ``theta`` transactions in policy order."""
        if self.locked:
            raise PoolLocked(f"pool of shard {self.shard_id} is locked")
        queued = self._queue.values()
        if self.policy == "fee":
            # Stable, so equal fees keep queue order.
            queued = sorted(queued, key=lambda t: -t.fee)
        out = list(islice(queued, theta))
        self.packed += self._pop(t.hash for t in out)
        return out

    def lock(self) -> None:
        self.locked = True

    def unlock(self) -> None:
        self.locked = False

    def extract_for_migration(self, dirty: set[bytes]) -> list[Transaction]:
        """Pull every queued transaction touching a migrating account.

        Only legal while locked; the caller re-routes the result to the
        accounts' new shards.
        """
        if not self.locked:
            raise PoolNotLocked("extraction requires the migration lock")
        moved = [t for t in self._queue.values() if t.payer in dirty or t.payee in dirty]
        self.extracted += self._pop(t.hash for t in moved)
        return moved

    def remove_committed(self, hashes: set[bytes]) -> int:
        """Drop transactions that a committed block just executed."""
        n = self._pop(hashes)
        self.removed += n
        return n

    def snapshot(self) -> list[Transaction]:
        """Read-only view in queue order, for audits and tests."""
        return list(self._queue.values())

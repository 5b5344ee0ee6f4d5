"""Per-node transaction pool.

Every node of a shard mirrors the same pool content (injections and relays
are broadcast shard-wide), so any node that becomes leader can propose. The
pool is unbounded; back-pressure is an explicit non-goal, queue growth is
itself a measurement. The pool never writes to a transaction: the
supervisor stamps ``inject_time`` once, at injection.

A migration runs whole-pool passes on every replica of a shard: extraction
at quiesce, and at the migration block's commit the requeue of displaced
entries followed by the eviction of what the new map re-homes. The copies
of one pool (``TxPool.copy``) share a record of the last such pass per rule
(``TxPool.split``), and a copy whose queue, key and requeued entries equal
the record's adopts its result instead of running the pass again.

A shard's replicas start from one prefilled queue: the copies of a pool
share its queue dict until each first writes to it (``TxPool.copy``).
"""

from __future__ import annotations

import copy
import threading
from itertools import islice
from typing import Any, Callable, Collection, Iterable, Iterator, Optional, Sequence

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


class Split:
    """One whole-pool pass as the pool that ran it saw it: the key and the
    entries requeued ahead of the pass, the queue it started from (before
    the requeue, in order), and what it left: the kept queue, the rule's
    result and the two counter changes. Complete before it is published,
    and then only ``adopted`` is written: the copies that took it over.
    (A plain slotted class: a dataclass costs the import more than the
    rest of the module.)"""

    __slots__ = ("key", "requeued", "before", "kept", "result", "appended", "extracted",
                 "adopted")

    def __init__(self, key: Any, requeued: list[Transaction], before: list[Transaction],
                 kept: dict[bytes, Transaction], result: Any, appended: int,
                 extracted: int) -> None:
        self.key = key
        self.requeued = requeued
        self.before = before
        self.kept = kept
        self.result = result
        self.appended = appended
        self.extracted = extracted
        self.adopted = 0


class Splits(dict):
    """The last ``Split`` per rule, shared by the copies of one pool, how
    many copies share it (``copies``), and the lock (``guard``) under which
    a copy takes up or gives up its hold on a shared queue. Over TCP the
    replicas are threads of one process, and two of them may write their
    first entries at once; a sim run takes it uncontended."""

    def __init__(self) -> None:
        super().__init__()
        self.copies = 1
        self.guard = threading.Lock()


class TxPool:
    """Queue of pending transactions for one shard, keyed by hash.

    The queue is an insertion-ordered dict, so a transaction is queued at
    most once: adding a hash that is already queued does nothing and is not
    counted. Packing takes the queue head. During a migration lock
    injection still lands (clients do not pause) but packing and extraction
    order is frozen until unlock.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.locked = False
        self._queue: dict[bytes, Transaction] = {}
        # How many copies hold ``_queue``, a one-item list they share; None
        # while the queue is this pool's own.
        self._holders: Optional[list[int]] = None
        # Accounting counters; size must always equal
        # injected + appended - packed - extracted - removed.
        self.injected = 0
        self.appended = 0
        self.packed = 0
        self.extracted = 0
        self.removed = 0
        # The last ``split`` per rule, shared by every copy of this pool.
        self._splits = Splits()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Transaction]:
        """The queued transactions in queue order, live: the pool must not
        change while the iterator is in use."""
        return iter(self._queue.values())

    def _unshare(self, keep: bool = True) -> None:
        """Give up this pool's hold on a queue it shares with other copies,
        if it holds one, before it writes to or replaces its queue. With
        ``keep`` it keeps the entries: the last holder takes the dict
        itself, any other a copy, made before its hold is given up, so no
        later holder takes the dict while it is being copied."""
        holders = self._holders
        if holders is None:
            return
        self._holders = None
        with self._splits.guard:
            if keep and holders[0] > 1:
                self._queue = self._queue.copy()
            holders[0] -= 1

    def _add(self, txs: Iterable[Transaction]) -> int:
        self._unshare()
        queue = self._queue
        before = len(queue)
        for tx in txs:
            queue.setdefault(tx.hash, tx)
        return len(queue) - before

    def _pop(self, hashes: Iterable[bytes]) -> int:
        self._unshare()
        queue = self._queue
        before = len(queue)
        for h in hashes:
            queue.pop(h, None)
        if not queue:
            # A dict never shrinks on deletion: a drained pool hands its
            # table back instead of keeping one sized for its peak.
            self._queue = {}
        return before - len(queue)

    def preload(self, txs: Iterable[Transaction]) -> int:
        """Queue client transactions as stamped by the supervisor, for the
        prefill and for live injection batches."""
        n = self._add(txs)
        self.injected += n
        return n

    def copy(self) -> "TxPool":
        """A pool with this one's queue, order, lock and counters: a
        replica's copy of its shard's prefill. The two share the queue dict
        until each first writes to it (``_add``, ``_pop`` or ``split``),
        when it takes a copy of its own, or the dict itself if no other
        pool holds it any more; reads share it. Every copy shares the
        record of the last ``split`` per rule."""
        with self._splits.guard:
            if self._holders is None:
                self._holders = [1]
            self._holders[0] += 1
            self._splits.copies += 1
        return copy.copy(self)

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

    def pack_block_txs(self, theta: int) -> list[Transaction]:
        """Remove and return up to ``theta`` transactions in queue order."""
        if self.locked:
            raise PoolLocked(f"pool of shard {self.shard_id} is locked")
        out = list(islice(self._queue.values(), theta))
        self.packed += self._pop(t.hash for t in out)
        return out

    def lock(self) -> None:
        self.locked = True

    def unlock(self) -> None:
        self.locked = False

    def split(
        self,
        rule: Callable[[Collection[Transaction], Any], tuple[list[Transaction], Any]],
        key: Any,
        requeue: Sequence[Transaction] = (),
    ) -> Any:
        """Requeue ``requeue`` at the tail, then take out of the queue the
        entries ``rule(queue, key)`` picks, and return the rule's result.

        ``rule`` gets a view of the queue in order and ``key``, and returns
        the entries to take and its result; both must be a function of those
        two alone. Requeued entries count as appended, taken ones as
        extracted, and requeued entries keep their original inject_time:
        confirmation latency is measured from first injection.

        The copies of a pool share the last split per rule. A pool whose
        queue equals, in order, the queue that split started from, under an
        equal key and equal requeued entries, adopts its result, a copy of
        its kept queue and its counter changes without running the rule;
        any other runs the rule and records its own split. The key and the
        result are shared with every adopter, so nothing may write to them.
        Once every other copy has adopted a split, it is let go, so a
        finished migration keeps no entries alive. Copies in other threads
        that race on a split can at worst miss it, and run the rule.
        """
        requeue = list(requeue)
        before = list(self._queue.values())
        splits = self._splits
        done = splits.get(rule)
        if (done is not None and done.key == key and done.requeued == requeue
                and done.before == before):
            self._unshare(keep=False)
            self._queue = done.kept.copy()
            done.adopted += 1
            if done.adopted + 1 >= splits.copies and splits.get(rule) is done:
                splits.pop(rule, None)
        else:
            appended = self._add(requeue)
            taken, result = rule(self._queue.values(), key)
            extracted = self._pop(t.hash for t in taken)
            done = splits[rule] = Split(key, requeue, before, self._queue.copy(),
                                        result, appended, extracted)
        self.appended += done.appended
        self.extracted += done.extracted
        return done.result

    def extract_for_migration(self, dirty: set[bytes]) -> list[Transaction]:
        """Pull every queued transaction touching a migrating account, as a
        ``split``, so the result is shared and must not be written to.

        Only legal while locked; the caller re-routes the result to the
        accounts' new shards.
        """
        if not self.locked:
            raise PoolNotLocked("extraction requires the migration lock")
        return self.split(touching, dirty)

    def remove_committed(self, hashes: Iterable[bytes]) -> int:
        """Drop transactions that a committed block just executed."""
        n = self._pop(hashes)
        self.removed += n
        return n

    def snapshot(self) -> list[Transaction]:
        """Read-only view in queue order, for audits and tests."""
        return list(self._queue.values())


def touching(queue: Collection[Transaction], dirty: set[bytes]) -> tuple[
    list[Transaction], list[Transaction]
]:
    """``TxPool.extract_for_migration``'s rule: the queued entries whose
    payer or payee is in ``dirty``, in queue order, taken and returned."""
    moved = [t for t in queue if t.payer in dirty or t.payee in dirty]
    return moved, moved

"""The control node: transaction injection, epoch control, and metrics.

One supervisor per run plays both control roles: it feeds dataset rows into
shard pools (classifying each transfer and applying the mechanism-specific
transformation up front), and it observes committed blocks to drive
metrics, the account graph, partition reconfiguration, and the stop
decision. It participates in no consensus.

It is also the one writer of the block files: every (shard, height) the
ledger accepts goes to ``blocks_shard<k>.jsonl`` with the commit time the
ledger counted, so ``shardemu report`` rebuilds exactly the live reports.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterable, Optional

from .config import RunConfig
from .core import (
    CREDIT_KINDS,
    BlockKind,
    PartitionMap,
    Transaction,
    TxKind,
    address_to_shard,
    block_line,
    check_transfers,
    crossings,
    home_shards,
    original_digests,
)
from .dataset import DatasetReader, RowBatch
from .mechanisms import AccountGraph, broker_split, clpa_partition, pick_broker
from .metrics import MetricsLedger
from .oracle import (
    MismatchedProtocol,
    expected_metrics,
    input_from_config,
    proximity_report,
)
from .transport import SUPERVISOR_ID, BlockInfo, Envelope, InjectTxs, PartitionResult

log = logging.getLogger(__name__)

# A reconfiguration that produced no migration block for this long has
# lost a shard; the run is stopped and marked degraded.
STALL_FACTOR_DELTA = 10
STALL_FACTOR_EPOCH = 2

# Quiet window: pools empty and no commit for this many block intervals.
QUIET_INTERVALS = 3


@dataclass(slots=True)
class PendingMigration:
    """An announced map, the involved shards whose migration block has not
    been seen yet, and the announcement time in ms."""

    pmap: PartitionMap
    waiting: set[int]
    since: int


class Supervisor:
    def __init__(
        self,
        cfg: RunConfig,
        pmap: PartitionMap,
        net: Any,
        rows: DatasetReader,
    ) -> None:
        self.cfg = cfg
        self.pmap = pmap
        self.net = net
        self.rows = rows
        self.ledger = MetricsLedger(cfg.n_shards, cfg.epoch_ms)
        self.graph = AccountGraph()
        self.est_pool: dict[int, int] = {k: 0 for k in range(cfg.n_shards)}
        self.injection_done = False
        self.stopped = False
        self.reconfig_count = 0
        self.pending_migration: Optional[PendingMigration] = None
        self._carry = 0.0
        self.block_files: list = []
        if cfg.output_dir is not None:
            os.makedirs(cfg.output_dir, exist_ok=True)
            self.block_files = [
                open(os.path.join(cfg.output_dir, f"blocks_shard{k}.jsonl"), "w", encoding="utf-8")
                for k in range(cfg.n_shards)
            ]

    # -- injection --

    def stamp_rows(self, rows: RowBatch, now: int) -> dict[int, list[Transaction]]:
        """Classify raw transfers, apply the mechanism transformation, and
        route the results to their execution shards, recording the originals
        in the ledger. Used both for pool pre-fill and live batches. This is
        the only place ``inject_time`` is set: every transaction, and every
        half later derived from it, carries ``now`` from here on.

        The batch is refused as ``check_transfers`` refuses it, classified
        by ``crossings``, hashed by ``original_digests``, and each original
        built once and banked once, all column by column. The originals are
        then queued by ``home_shards``. A brokered transfer leaves as its
        payer half, then its payee half, the batch's halves built and
        hashed at once (``mechanisms.broker_split``)."""
        pmap = self.pmap
        payers, payees, values, nonces = rows.payers, rows.payees, rows.values, rows.nonces
        check_transfers(payers, payees, values)
        regular, ctx = TxKind.REGULAR, TxKind.ORIGINAL_CTX
        kinds = [ctx if cross else regular for cross in crossings(payers, payees, pmap)]
        keys = original_digests(payers, payees, values, nonces, kinds)
        queued = originals = list(map(Transaction, payers, payees, values, nonces, kinds,
                                      repeat(None), repeat(now), keys))
        if self.cfg.mechanism == "broker" and ctx in kinds:
            # Each ORIGINAL_CTX here was classified under ``pmap`` just
            # above, so its halves skip ``broker_transform``'s re-check; the
            # broker is picked once per batch.
            halves = iter(broker_split([tx for tx in originals if tx.kind is ctx],
                                       pick_broker(pmap)))
            queued = []
            for tx in originals:
                if tx.kind is ctx:
                    queued.append(next(halves))
                    queued.append(next(halves))
                else:
                    queued.append(tx)
        per_shard: dict[int, list[Transaction]] = {}
        for tx, shard in zip(queued, home_shards(queued, pmap)):
            per_shard.setdefault(shard, []).append(tx)
        self.ledger.record_originals(keys, kinds, payers, payees, now)
        return per_shard

    def prepare_prefill(self, rows: RowBatch) -> dict[int, list[Transaction]]:
        """Stamp the whole dataset, read in one call, into t=0 per-shard
        queues; the run injects nothing later."""
        per_shard = self.stamp_rows(rows, now=0)
        self.injection_done = True
        for k in range(self.cfg.n_shards):
            n = len(per_shard.get(k, ()))
            self.est_pool[k] = n
            self.ledger.record_pool_size(0, k, n)
        return per_shard

    def _inject_tick(self, now: int) -> None:
        if self.injection_done or self.stopped:
            return
        plan = self.cfg.injection
        epoch = now // self.cfg.epoch_ms
        rate = plan.base_rate + epoch * plan.ramp
        want = rate * plan.batch_interval_ms / 1000.0 + self._carry
        n = int(want)
        self._carry = want - n
        # The tick's rows are parsed now, not at set-up.
        batch = self.rows.read(n)
        if len(batch) < n:
            self.injection_done = True
        if batch:
            for shard, txs in sorted(self.stamp_rows(batch, now).items()):
                env = Envelope("inject_txs", SUPERVISOR_ID, InjectTxs(txs=txs))
                self.net.broadcast_shard(shard, env)
                self.est_pool[shard] += len(txs)
                self.ledger.record_pool_size(now, shard, self.est_pool[shard])
        if not self.injection_done:
            self.net.schedule(
                SUPERVISOR_ID, now + plan.batch_interval_ms, "inject", None
            )

    # -- observation --

    def on_envelope(self, env: Envelope, now: int) -> None:
        if env.msg_type != "block_info":
            raise ValueError(f"supervisor cannot handle {env.msg_type}")
        info: BlockInfo = env.body
        rec = self.ledger.record_block(info.block, info.commit_time, info.pool_size)
        if rec is None:
            return
        if self.block_files:
            self.block_files[rec.shard].write(block_line(info.block, info.commit_time) + "\n")
        self.est_pool[rec.shard] = rec.pool_size
        if rec.block_kind is BlockKind.MIGRATION:
            self._note_migration_block(rec.shard, info.version)
        elif self.cfg.partition == "clpa":
            self._fold(info)

    def _fold(self, info: BlockInfo) -> None:
        """Grow the transfer graph from a committed block.

        Only the debit side of a split transfer counts, so each original
        contributes exactly one edge however it committed.
        """
        originals = self.ledger.originals
        regular = TxKind.REGULAR
        for tx in info.block.txs:
            if tx.kind in CREDIT_KINDS:
                continue
            key = tx.hash if tx.kind is regular else tx.origin_hash
            rec = originals.get(key)
            if rec is None:
                continue
            self.graph.add_edge(rec.payer, rec.payee)

    def _note_migration_block(self, shard: int, version: int) -> None:
        pending = self.pending_migration
        if pending is None or version != pending.pmap.version:
            return
        pending.waiting.discard(shard)
        if not pending.waiting:
            self.pmap = pending.pmap
            self.pending_migration = None
            log.info("partition v%d fully adopted", version)

    # -- epoch control --

    def _epoch_tick(self, now: int) -> None:
        if self.stopped:
            return
        self.net.schedule(SUPERVISOR_ID, now + self.cfg.epoch_ms, "epoch", None)
        if self.cfg.partition != "clpa":
            return
        if self.pending_migration is not None:
            log.info("epoch tick at %d: previous migration unresolved, deferring", now)
            return
        if not len(self.graph):
            return
        new_map, dirty = clpa_partition(self.graph, self.pmap, self.cfg.clpa)
        self.reconfig_count += 1
        body = PartitionResult(
            version=new_map.version,
            overrides=dict(dirty),
            brokers=sorted(self.pmap.brokers),
        )
        self.net.broadcast_all(Envelope("partition_result", SUPERVISOR_ID, body))
        self.graph = AccountGraph()
        involved = set()
        for addr, dest in dirty.items():
            involved.add(address_to_shard(addr, self.pmap))
            involved.add(dest)
        if dirty:
            self.pending_migration = PendingMigration(new_map, involved, now)
        else:
            self.pmap = new_map

    # -- stop --

    def _stall_timeout(self) -> int:
        return max(
            STALL_FACTOR_DELTA * self.cfg.block_interval_ms,
            STALL_FACTOR_EPOCH * self.cfg.epoch_ms,
        )

    def _stop_check(self, now: int) -> None:
        if self.stopped:
            return
        pending = self.pending_migration
        if pending is not None and now - pending.since > self._stall_timeout():
            self.ledger.degraded = True
            self.ledger.notes.append(
                f"migration v{pending.pmap.version} stalled waiting on shards "
                f"{sorted(pending.waiting)}; stopped at {now} ms"
            )
            self._halt(now)
            return
        if self.cfg.stop.drain:
            quiet_ms = QUIET_INTERVALS * self.cfg.block_interval_ms
            drained = (
                self.injection_done
                and all(size == 0 for size in self.est_pool.values())
                and pending is None
                and now - self.ledger.last_commit_ms >= quiet_ms
            )
            if drained:
                self._halt(now)
                return
        self.net.schedule(
            SUPERVISOR_ID, now + self.cfg.block_interval_ms, "stopcheck", None
        )

    def _wall_stop(self, now: int) -> None:
        if self.stopped:
            return
        if self.cfg.stop.drain:
            # The wall here is a safety net; hitting it means the run never
            # drained and its metrics are partial.
            self.ledger.degraded = True
            self.ledger.notes.append(f"wall stop at {now} ms before drain completed")
        self._halt(now)

    def _halt(self, now: int) -> None:
        self.stopped = True
        self.net.broadcast_all(Envelope("stop", SUPERVISOR_ID, None))

    # -- lifecycle --

    def on_start(self, now: int) -> None:
        self.net.schedule(
            SUPERVISOR_ID, now + self.cfg.block_interval_ms, "stopcheck", None
        )
        if self.cfg.partition == "clpa":
            self.net.schedule(SUPERVISOR_ID, now + self.cfg.epoch_ms, "epoch", None)
        if not self.cfg.injection.prefill:
            self.net.schedule(SUPERVISOR_ID, now, "inject", None)
        if self.cfg.stop.wall_ms is not None:
            self.net.schedule(SUPERVISOR_ID, self.cfg.stop.wall_ms, "wall", None)

    def on_timer(self, tag: str, data: Any, now: int) -> None:
        if tag == "inject":
            self._inject_tick(now)
        elif tag == "epoch":
            self._epoch_tick(now)
        elif tag == "stopcheck":
            self._stop_check(now)
        elif tag == "wall":
            self._wall_stop(now)
        else:
            raise ValueError(f"unknown supervisor timer {tag}")

    # -- reports --

    def finalize(self, out_dir: Optional[str]) -> tuple[int, dict]:
        """Close the block files and, given a directory, write all report
        files there; returns (exit code, summary dict)."""
        for fh in self.block_files:
            fh.close()
        # Wall-only runs legitimately stop mid-stream; a drain run that
        # still has unconfirmed originals did not actually drain.
        if self.cfg.stop.drain and not self.ledger.degraded:
            unconfirmed = self.ledger.unconfirmed
            if unconfirmed:
                self.ledger.degraded = True
                self.ledger.notes.append(f"{unconfirmed} originals unconfirmed at stop")
        if out_dir is None:
            summary = self.ledger.summary(self.cfg.echo())
        else:
            summary = self.ledger.write_reports(out_dir, self.cfg.echo(), self._oracle)
        exit_code = 3 if summary["degraded"] else 0
        return exit_code, summary

    def _oracle(self, summary: dict, tcl_samples: Iterable[tuple[TxKind, int]]) -> dict:
        """The summary's distance from the closed-form expectation."""
        if not self.ledger.x:
            return {"skipped": "no transactions injected"}
        exp = expected_metrics(input_from_config(summary["config"], self.ledger.x))
        try:
            return proximity_report(summary, exp, tcl_samples)
        except MismatchedProtocol as exc:
            return {"skipped": f"protocol mismatch: {exc}"}

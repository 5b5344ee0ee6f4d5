"""Run accounting: counters, epoch throughput, latency, and report files.

The supervisor feeds every injection and every committed block into a
``MetricsLedger``; ``shardemu report`` feeds it the columns it keeps of the
blocks read back from the block files. Definitions used throughout:

* X: injected originals. A transfer split into halves before or during
  consensus still counts once, through its origin hash.
* Z: originals committed whole, as one regular transaction.
* V: committed debit halves (payer-side relay half or payer-to-broker half).
* U: committed credit halves (payee-side relay half or broker-to-payee half).
* Y: distinct originals whose debit and credit halves have both committed.
* W: total committed transactions, Z + U + V.

For a drained fault-free run Z + Y = X, Z + 2Y = W, and Y = U = V, whatever
the cross-shard mechanism.

Throughput is credited per committed transaction: a whole transfer is worth
1, each half 0.5, so a split transfer contributes 1 in total. Confirmation
latency of an original is its direct commit time, or the later of its two
halves' commit times.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    CREDIT_KINDS,
    DEBIT_KINDS,
    DERIVED_KINDS,
    INJECTED_KINDS,
    Block,
    BlockKind,
    Transaction,
    TxKind,
)

CREDIT_PER_KIND = {k: 1.0 for k in INJECTED_KINDS} | {k: 0.5 for k in DERIVED_KINDS}
# Each kind's value, for the per-row report lines: a dict hit instead of
# ``Enum.value``'s descriptor.
_KIND_VALUE = {k: k.value for k in TxKind}

# An epoch gets a phase label when one family dominates its commits.
PHASE_PURITY = 0.95


def original_hashes(txs: Iterable[Transaction]) -> list[Optional[bytes]]:
    """Each transaction's original's hash: the origin hash of a derived
    half, the transaction's own hash otherwise."""
    derived = DERIVED_KINDS
    return [tx.origin_hash if tx.kind in derived else tx.hash for tx in txs]


@dataclass(slots=True)
class InjectionRecord:
    hash: bytes
    kind: TxKind
    payer: bytes
    payee: bytes
    inject_ms: int
    direct_ms: Optional[int] = None
    debit_ms: Optional[int] = None
    credit_ms: Optional[int] = None

    @property
    def confirm_ms(self) -> Optional[int]:
        if self.direct_ms is not None:
            return self.direct_ms
        if self.debit_ms is not None and self.credit_ms is not None:
            return max(self.debit_ms, self.credit_ms)
        return None


@dataclass(slots=True)
class BlockRecord:
    shard: int
    height: int
    commit_ms: int
    pool_size: int
    block_kind: BlockKind
    kind_counts: dict[TxKind, int] = field(default_factory=dict)
    credit: float = 0.0
    n_txs: int = 0


class MetricsLedger:
    """Accumulates injection and commit events; computes all reports.

    Every committed block settles through one loop, ``settle_block``,
    which reads only two columns of the block: each transaction's kind and
    its original's hash. ``record_block`` takes a whole block from the
    supervisor, drops the other replicas' copies and hands the first
    copy's columns to that loop; ``shardemu report`` calls the loop with
    the columns it kept of each decoded block.
    """

    def __init__(self, n_shards: int, epoch_ms: int) -> None:
        self.n_shards = n_shards
        self.epoch_ms = epoch_ms
        self.originals: dict[bytes, InjectionRecord] = {}
        self.blocks: dict[tuple[int, int], BlockRecord] = {}
        self.pool_samples: dict[tuple[int, int], int] = {}
        self.z = 0
        self.u = 0
        self.v = 0
        self.ctx_injected = 0
        self.last_commit_ms = 0
        self.degraded = False
        self.notes: list[str] = []

    # -- ingestion --

    def record_injection(
        self,
        tx_hash: bytes,
        kind: TxKind,
        payer: bytes,
        payee: bytes,
        inject_ms: int,
    ) -> None:
        """Bank one original; its kind says whether it is cross-shard."""
        if tx_hash in self.originals:
            return
        self.originals[tx_hash] = InjectionRecord(tx_hash, kind, payer, payee, inject_ms)
        if kind is TxKind.ORIGINAL_CTX:
            self.ctx_injected += 1

    def record_originals(self, keys: Sequence[bytes], kinds: Sequence[TxKind],
                         payers: Sequence[bytes], payees: Sequence[bytes],
                         inject_ms: int) -> None:
        """Bank originals stamped at ``inject_ms``, given as columns (hash,
        kind, payer, payee) in order, each as ``record_injection`` banks it:
        the first record of a hash wins."""
        originals = self.originals
        ctx, n_ctx = TxKind.ORIGINAL_CTX, 0
        for key, kind, payer, payee in zip(keys, kinds, payers, payees):
            if key in originals:
                continue
            originals[key] = InjectionRecord(key, kind, payer, payee, inject_ms)
            if kind is ctx:
                n_ctx += 1
        self.ctx_injected += n_ctx

    def record_committed(self, columns: Iterable[tuple[Sequence, ...]]) -> None:
        """Bank the originals that committed transactions stand for, given
        per block as columns (kinds, originals' hashes, payers, payees,
        inject times), in order, each as ``record_injection`` banks it: a
        whole transaction stands for itself, of its own kind, and a half
        for its cross-shard original. Used by ``shardemu report``."""
        originals = self.originals
        derived, ctx = DERIVED_KINDS, TxKind.ORIGINAL_CTX
        n_ctx = 0
        for kinds, keys, payers, payees, injects in columns:
            for kind, key, payer, payee, inject in zip(kinds, keys, payers, payees, injects):
                if key in originals:
                    continue
                if kind in derived:
                    kind = ctx
                originals[key] = InjectionRecord(key, kind, payer, payee, inject)
                if kind is ctx:
                    n_ctx += 1
        self.ctx_injected += n_ctx

    def record_block(self, block: Block, commit_ms: int, pool_size: int) -> Optional[BlockRecord]:
        """Bank one committed block; duplicates (other replicas) return None."""
        if (block.shard_id, block.height) in self.blocks:
            return None
        return self.settle_block(
            block.shard_id, block.height, block.block_kind, commit_ms, pool_size,
            [tx.kind for tx in block.txs], original_hashes(block.txs),
        )

    def settle_block(
        self,
        shard: int,
        height: int,
        block_kind: BlockKind,
        commit_ms: int,
        pool_size: int,
        kinds: Sequence[TxKind],
        keys: Sequence[Optional[bytes]],
    ) -> BlockRecord:
        """Bank a block not banked yet, given its transactions as columns:
        each one's kind and its original's hash (``original_hashes``).
        Debit and credit halves and whole transactions settle their
        original's first commit of that side."""
        rec = BlockRecord(shard, height, commit_ms, pool_size, block_kind)
        counts = rec.kind_counts
        originals = self.originals
        credit = 0.0
        for kind, key in zip(kinds, keys):
            counts[kind] = counts.get(kind, 0) + 1
            credit += CREDIT_PER_KIND[kind]
            orig = originals.get(key)
            if kind in DEBIT_KINDS:
                self.v += 1
                if orig is not None and orig.debit_ms is None:
                    orig.debit_ms = commit_ms
            elif kind in CREDIT_KINDS:
                self.u += 1
                if orig is not None and orig.credit_ms is None:
                    orig.credit_ms = commit_ms
            else:
                self.z += 1
                if orig is not None and orig.direct_ms is None:
                    orig.direct_ms = commit_ms
        rec.credit = credit
        rec.n_txs = len(kinds)
        self.blocks[(shard, height)] = rec
        self.pool_samples[(commit_ms, shard)] = pool_size
        self.last_commit_ms = max(self.last_commit_ms, commit_ms)
        return rec

    def record_pool_size(self, time_ms: int, shard: int, size: int) -> None:
        self.pool_samples.setdefault((time_ms, shard), size)

    # -- counters --

    @property
    def x(self) -> int:
        return len(self.originals)

    def settled(self) -> tuple[int, int]:
        """(Y, originals unconfirmed), from one pass over the originals."""
        y = unconfirmed = 0
        for rec in self.originals.values():
            if rec.debit_ms is not None and rec.credit_ms is not None:
                y += 1
            elif rec.direct_ms is None:
                unconfirmed += 1
        return y, unconfirmed

    @property
    def y(self) -> int:
        return self.settled()[0]

    @property
    def w(self) -> int:
        return self.z + self.u + self.v

    def counters(self, y: Optional[int] = None) -> dict[str, int]:
        """X, Y, Z, U, V and W; ``y``, if given, is Y from ``settled``."""
        y = self.y if y is None else y
        return {"X": self.x, "Y": y, "Z": self.z, "U": self.u, "V": self.v, "W": self.w}

    @property
    def ctx_ratio(self) -> float:
        return self.ctx_injected / self.x if self.x else 0.0

    @property
    def unconfirmed(self) -> int:
        return self.settled()[1]

    # -- epoch table --

    def epoch_rows(self) -> list[dict]:
        """One row per epoch from 0 through the last commit, empty included."""
        if not self.blocks:
            return []
        n_epochs = self.last_commit_ms // self.epoch_ms + 1
        rows = [
            {
                "epoch": e,
                "start_ms": e * self.epoch_ms,
                "end_ms": (e + 1) * self.epoch_ms,
                "credit": 0.0,
                "tps": 0.0,
                "counts": {},
            }
            for e in range(n_epochs)
        ]
        for rec in self.blocks.values():
            row = rows[rec.commit_ms // self.epoch_ms]
            row["credit"] += rec.credit
            for kind, n in rec.kind_counts.items():
                row["counts"][kind] = row["counts"].get(kind, 0) + n
        for row in rows:
            row["tps"] = row["credit"] * 1000.0 / self.epoch_ms
            row["label"] = self._phase_label(row["counts"])
        return rows

    @staticmethod
    def _phase_label(counts: dict[TxKind, int]) -> str:
        total = sum(counts.values())
        if total == 0:
            return "empty"
        whole_or_debit = sum(n for k, n in counts.items() if k not in CREDIT_KINDS)
        credit = total - whole_or_debit
        if whole_or_debit > PHASE_PURITY * total:
            return "intake"
        if credit > PHASE_PURITY * total:
            return "settle"
        return "mixed"

    def phase_stats(self) -> dict:
        """Observed phase boundaries and per-phase credit totals.

        'intake' epochs commit whole transfers and debit halves straight
        from injection; 'settle' epochs commit only forwarded credit
        halves after the original queue ran dry.
        """
        rows = self.epoch_rows()
        credit_by_label: dict[str, float] = {}
        for row in rows:
            credit_by_label[row["label"]] = credit_by_label.get(row["label"], 0.0) + row["credit"]
        intake_end = 0
        per_shard_last: dict[int, int] = {}
        for rec in self.blocks.values():
            per_shard_last[rec.shard] = max(per_shard_last.get(rec.shard, 0), rec.commit_ms)
            if rec.block_kind is not BlockKind.TX:
                continue
            if any(k not in CREDIT_KINDS for k in rec.kind_counts):
                intake_end = max(intake_end, rec.commit_ms)
        return {
            "epoch_ms": self.epoch_ms,
            "intake_end_ms": intake_end,
            "last_commit_ms": self.last_commit_ms,
            "per_shard_last_commit_ms": {str(k): v for k, v in sorted(per_shard_last.items())},
            "credit_by_label": credit_by_label,
            "epochs": [
                {
                    "epoch": r["epoch"],
                    "start_ms": r["start_ms"],
                    "end_ms": r["end_ms"],
                    "credit": r["credit"],
                    "tps": r["tps"],
                    "label": r["label"],
                    "counts": {k.value: n for k, n in r["counts"].items()},
                }
                for r in rows
            ],
        }

    # -- latency and workload --

    def tcl_lines(self) -> Iterator[str]:
        """``tcl.csv``'s data lines, one per confirmed original in injection
        order, each formatted straight from its record: a fresh pass per
        call, which keeps no list of lines."""
        kind_value = _KIND_VALUE
        for rec in self.originals.values():
            # ``InjectionRecord.confirm_ms``, inlined.
            confirm = rec.direct_ms
            if confirm is None:
                debit, credit = rec.debit_ms, rec.credit_ms
                if debit is None or credit is None:
                    continue
                confirm = debit if debit > credit else credit
            inject = rec.inject_ms
            yield (f"{rec.hash.hex()},{kind_value[rec.kind]},{inject},{confirm},"
                   f"{confirm - inject}\n")

    def tcl_samples(self) -> Iterator[tuple[TxKind, int]]:
        """(kind, tcl_ms) of each confirmed original in injection order, as
        the oracle reads them: a fresh pass per call, no list kept."""
        for rec in self.originals.values():
            confirm = rec.confirm_ms
            if confirm is not None:
                yield rec.kind, confirm - rec.inject_ms

    def workload_rows(self) -> list[dict]:
        packed = [0] * self.n_shards
        for rec in self.blocks.values():
            packed[rec.shard] += rec.n_txs
        total = sum(packed)
        return [
            {
                "shard": k,
                "packed_txs": packed[k],
                "share": packed[k] / total if total else 0.0,
            }
            for k in range(self.n_shards)
        ]

    def pool_rows(self) -> list[dict]:
        return [
            {"time_ms": t, "shard": shard, "size": size}
            for (t, shard), size in sorted(self.pool_samples.items())
        ]

    # -- report files --

    def write_reports(
        self,
        out_dir: str,
        config_echo: dict,
        oracle: Optional[Callable[[dict, Iterable[tuple[TxKind, int]]], dict]] = None,
    ) -> dict:
        """Write every report file once and return the summary. ``oracle``,
        given the summary and its own pass over the latency samples
        (``tcl_samples``), builds its "oracle" section. ``tcl.csv`` is
        streamed from the records (``tcl_lines``)."""
        os.makedirs(out_dir, exist_ok=True)
        summary = self.summary(config_echo)
        with open(os.path.join(out_dir, "tps_epochs.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write("epoch,start_ms,end_ms,credit,tps\n")
            for row in summary["phases"]["epochs"]:
                fh.write(
                    f"{row['epoch']},{row['start_ms']},{row['end_ms']},"
                    f"{row['credit']:.1f},{row['tps']:.6f}\n"
                )
        with open(os.path.join(out_dir, "tcl.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write("tx_hash,kind,inject_ms,confirm_ms,tcl_ms\n")
            fh.writelines(self.tcl_lines())
        with open(os.path.join(out_dir, "pool_size.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write("time_ms,shard,size\n")
            for row in self.pool_rows():
                fh.write(f"{row['time_ms']},{row['shard']},{row['size']}\n")
        with open(os.path.join(out_dir, "workload.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write("shard,packed_txs,share\n")
            for row in self.workload_rows():
                fh.write(f"{row['shard']},{row['packed_txs']},{row['share']:.6f}\n")
        if oracle is not None:
            summary["oracle"] = oracle(summary, self.tcl_samples())
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return summary

    def summary(self, config_echo: dict) -> dict:
        y, unconfirmed = self.settled()
        return {
            "config": config_echo,
            "counters": self.counters(y),
            "ctx_ratio": self.ctx_ratio,
            "phases": self.phase_stats(),
            "degraded": self.degraded,
            "unconfirmed": unconfirmed,
            "notes": self.notes,
            "blocks_committed": len(self.blocks),
            "last_commit_ms": self.last_commit_ms,
        }

"""Metrics ledger: counters, epochs, phase labels, and report files."""

import json
import tracemalloc

import pytest

from helpers import addr, committed_block, hashed_tx
from shardemu.core import BlockKind, TxKind
from shardemu.metrics import CREDIT_PER_KIND, MetricsLedger, PHASE_PURITY

PA = addr("met-a")
PB = addr("met-b")


def _hash(i):
    return bytes([i]) * 32


def inject(ledger, i, *, cross=False, inject_ms=0):
    kind = TxKind.ORIGINAL_CTX if cross else TxKind.REGULAR
    ledger.record_injection(_hash(i), kind, PA, PB, inject_ms)


def tx(i, kind, origin=None):
    return hashed_tx(_hash(i), kind, origin)


def commit(ledger, shard, height, commit_ms, txs, *, pool=0, block_kind=BlockKind.TX):
    return ledger.record_block(committed_block(shard, height, txs, block_kind), commit_ms, pool)


def test_counter_identities_on_mixed_run():
    led = MetricsLedger(n_shards=2, epoch_ms=1000)
    for i in range(4):
        inject(led, i)                      # 4 whole transfers
    for i in range(4, 7):
        inject(led, i, cross=True)          # 3 split transfers
    commit(led, 0, 1, 500, [
        tx(0, TxKind.REGULAR),
        tx(1, TxKind.REGULAR),
        tx(10, TxKind.INTRA_RELAY, origin=_hash(4)),
        tx(11, TxKind.INTRA_RELAY, origin=_hash(5)),
    ])
    commit(led, 1, 1, 600, [
        tx(2, TxKind.REGULAR),
        tx(3, TxKind.REGULAR),
        tx(12, TxKind.INTER_RELAY, origin=_hash(4)),
    ])
    commit(led, 1, 2, 1600, [
        tx(13, TxKind.INTER_RELAY, origin=_hash(5)),
    ])

    counts = led.counters()
    assert counts == {"X": 7, "Y": 2, "Z": 4, "U": 2, "V": 2, "W": 8}
    assert counts["Z"] + counts["Y"] == 6, "one origin never completed"
    assert counts["Z"] + 2 * counts["Y"] == counts["W"]
    assert led.unconfirmed == 1
    assert led.ctx_ratio == pytest.approx(3 / 7)
    assert led.last_commit_ms == 1600


def test_duplicate_blocks_and_injections_ignored():
    led = MetricsLedger(n_shards=1, epoch_ms=1000)
    inject(led, 1)
    inject(led, 1)
    assert led.x == 1
    block = committed_block(0, 1, [tx(1, TxKind.REGULAR)])
    assert led.record_block(block, 100, 0) is not None
    assert led.record_block(block, 100, 0) is None, "replica echoes are dropped"
    assert led.z == 1


def test_split_confirmation_is_the_later_half():
    led = MetricsLedger(n_shards=2, epoch_ms=1000)
    inject(led, 1, cross=True, inject_ms=100)
    commit(led, 0, 1, 400, [tx(2, TxKind.INTRA_RELAY, origin=_hash(1))])
    assert led.unconfirmed == 1, "debit alone does not confirm"
    commit(led, 1, 1, 900, [tx(3, TxKind.INTER_RELAY, origin=_hash(1))])
    rec = led.originals[_hash(1)]
    assert rec.confirm_ms == 900
    (line,) = led.tcl_lines()
    assert line == f"{_hash(1).hex()},{TxKind.ORIGINAL_CTX.value},100,900,800\n"


def test_epoch_bucketing_is_contiguous():
    led = MetricsLedger(n_shards=1, epoch_ms=5000)
    inject(led, 1)
    commit(led, 0, 1, 12_300, [tx(1, TxKind.REGULAR)])
    rows = led.epoch_rows()
    assert [r["epoch"] for r in rows] == [0, 1, 2]
    assert rows[2]["start_ms"] == 10_000 and rows[2]["end_ms"] == 15_000
    assert rows[2]["credit"] == pytest.approx(1.0)
    assert rows[2]["tps"] == pytest.approx(1.0 * 1000 / 5000)
    assert rows[0]["label"] == "empty" and rows[0]["credit"] == 0.0


def test_credit_weights_wholes_and_halves():
    assert CREDIT_PER_KIND[TxKind.REGULAR] == 1.0
    assert CREDIT_PER_KIND[TxKind.INTRA_RELAY] == 0.5
    led = MetricsLedger(n_shards=1, epoch_ms=1000)
    commit(led, 0, 1, 100, [
        tx(1, TxKind.REGULAR),
        tx(2, TxKind.INTRA_RELAY, origin=_hash(9)),
        tx(3, TxKind.INTER_RELAY, origin=_hash(9)),
    ])
    assert led.epoch_rows()[0]["credit"] == pytest.approx(2.0)
    # migration blocks carry no transactions, hence no credit
    commit(led, 0, 2, 200, [], block_kind=BlockKind.MIGRATION)
    assert led.epoch_rows()[0]["credit"] == pytest.approx(2.0)


def test_phase_purity_is_strict():
    assert PHASE_PURITY == 0.95
    led = MetricsLedger(n_shards=1, epoch_ms=1000)
    txs = [tx(i, TxKind.REGULAR) for i in range(19)]
    txs.append(tx(40, TxKind.INTER_RELAY, origin=_hash(41)))
    commit(led, 0, 1, 100, txs)
    assert led.epoch_rows()[0]["label"] == "mixed", "19 of 20 is exactly the bar, not past it"

    pure = MetricsLedger(n_shards=1, epoch_ms=1000)
    txs = [tx(i, TxKind.REGULAR) for i in range(24)]
    txs.append(tx(40, TxKind.INTER_RELAY, origin=_hash(41)))
    commit(pure, 0, 1, 100, txs)
    assert pure.epoch_rows()[0]["label"] == "intake", "24 of 25 clears it"

    settle = MetricsLedger(n_shards=1, epoch_ms=1000)
    commit(settle, 0, 1, 100, [
        tx(i, TxKind.INTER_RELAY, origin=_hash(50 + i)) for i in range(3)
    ])
    assert settle.epoch_rows()[0]["label"] == "settle"


def test_pool_samples_prefer_commit_observations():
    led = MetricsLedger(n_shards=2, epoch_ms=1000)
    commit(led, 0, 1, 100, [], pool=7)
    led.record_pool_size(100, 0, 99)  # loses: a commit already sampled that instant
    led.record_pool_size(100, 1, 3)
    led.record_pool_size(50, 0, 12)
    assert led.pool_rows() == [
        {"time_ms": 50, "shard": 0, "size": 12},
        {"time_ms": 100, "shard": 0, "size": 7},
        {"time_ms": 100, "shard": 1, "size": 3},
    ]


def test_workload_shares_sum_to_one():
    led = MetricsLedger(n_shards=3, epoch_ms=1000)
    commit(led, 0, 1, 100, [tx(1, TxKind.REGULAR)])
    commit(led, 1, 1, 100, [tx(i, TxKind.REGULAR) for i in range(2, 5)])
    rows = led.workload_rows()
    assert [r["packed_txs"] for r in rows] == [1, 3, 0]
    assert sum(r["share"] for r in rows) == pytest.approx(1.0)


def test_phase_stats_structure():
    led = MetricsLedger(n_shards=2, epoch_ms=1000)
    inject(led, 1, cross=True)
    commit(led, 0, 1, 250, [tx(2, TxKind.INTRA_RELAY, origin=_hash(1))])
    commit(led, 1, 1, 900, [tx(3, TxKind.INTER_RELAY, origin=_hash(1))])
    stats = led.phase_stats()
    assert stats["intake_end_ms"] == 250, "credit-only commits do not extend intake"
    assert stats["last_commit_ms"] == 900
    assert stats["per_shard_last_commit_ms"] == {"0": 250, "1": 900}
    assert stats["epochs"][0]["label"] == "mixed"
    assert stats["credit_by_label"]["mixed"] == pytest.approx(1.0)


def test_write_reports_exact_formats(tmp_path):
    led = MetricsLedger(n_shards=2, epoch_ms=1000)
    inject(led, 1, inject_ms=10)
    commit(led, 0, 1, 700, [tx(1, TxKind.REGULAR)], pool=4)
    echo = {"n_shards": 2}
    summary_dict = led.write_reports(str(tmp_path), echo)

    tps = (tmp_path / "tps_epochs.csv").read_text().splitlines()
    assert tps[0] == "epoch,start_ms,end_ms,credit,tps"
    assert tps[1] == "0,0,1000,1.0,1.000000"

    tcl = (tmp_path / "tcl.csv").read_text().splitlines()
    assert tcl[0] == "tx_hash,kind,inject_ms,confirm_ms,tcl_ms"
    assert tcl[1] == f"{_hash(1).hex()},regular,10,700,690"

    pool = (tmp_path / "pool_size.csv").read_text().splitlines()
    assert pool[0] == "time_ms,shard,size"
    assert pool[1] == "700,0,4"

    work = (tmp_path / "workload.csv").read_text().splitlines()
    assert work[0] == "shard,packed_txs,share"
    assert work[1] == "0,1,1.000000" and work[2] == "1,0,0.000000"

    raw = (tmp_path / "summary.json").read_text()
    assert raw.endswith("\n")
    loaded = json.loads(raw)
    assert loaded == json.loads(json.dumps(summary_dict))
    assert loaded["config"] == echo
    assert loaded["counters"] == {"X": 1, "Y": 0, "Z": 1, "U": 0, "V": 0, "W": 1}
    assert loaded["degraded"] is False
    assert loaded["unconfirmed"] == 0
    assert loaded["blocks_committed"] == 1
    assert set(loaded) == {
        "config", "counters", "ctx_ratio", "phases", "degraded",
        "unconfirmed", "notes", "blocks_committed", "last_commit_ms",
    }


def test_tcl_lines_keep_injection_order():
    led = MetricsLedger(n_shards=1, epoch_ms=1000)
    for i in (5, 3, 9):
        inject(led, i, inject_ms=i)
    commit(led, 0, 1, 100, [
        tx(9, TxKind.REGULAR),
        tx(5, TxKind.REGULAR),
    ])
    rows = [line.split(",") for line in led.tcl_lines()]
    assert [r[2] for r in rows] == ["5", "9"], "unconfirmed rows drop out"
    assert [r[0] for r in rows] == [_hash(5).hex(), _hash(9).hex()]


def test_write_reports_keeps_no_per_row_copies(tmp_path):
    """tcl.csv and the oracle each take their own pass over the records,
    so writing reports holds no list of rows, however many there are."""
    led = MetricsLedger(n_shards=2, epoch_ms=1000)
    n = 20_000
    for i in range(n):
        led.record_injection(i.to_bytes(32, "big"), TxKind.ORIGINAL_CTX if i % 4 == 0
                             else TxKind.REGULAR, PA, PB, i // 100)
    for height, start in enumerate(range(0, n, 200), 1):
        txs = []
        for i in range(start, start + 200):
            h = i.to_bytes(32, "big")
            if i % 4 == 0:
                txs.append(hashed_tx(b"\x01" + h[1:], TxKind.INTRA_RELAY, h))
                txs.append(hashed_tx(b"\x02" + h[1:], TxKind.INTER_RELAY, h))
            else:
                txs.append(hashed_tx(h, TxKind.REGULAR))
        commit(led, 0, height, 100 + 10 * height, txs)
    assert led.unconfirmed == 0

    tracemalloc.start()
    try:
        summary = led.write_reports(
            str(tmp_path), {"n_shards": 2},
            oracle=lambda _summary, rows: {"rows": sum(1 for _ in rows)},
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"writing reports peaked at {peak} traced bytes"
    assert summary["oracle"] == {"rows": n}, "the oracle gets a full pass of its own"

    lines = (tmp_path / "tcl.csv").read_text().splitlines()
    assert lines[1:] == [line.rstrip("\n") for line in led.tcl_lines()]
    assert len(lines) == n + 1


def test_empty_ledger_reports(tmp_path):
    led = MetricsLedger(n_shards=1, epoch_ms=1000)
    assert led.epoch_rows() == []
    assert led.counters() == {"X": 0, "Y": 0, "Z": 0, "U": 0, "V": 0, "W": 0}
    assert led.ctx_ratio == 0.0
    led.write_reports(str(tmp_path), {})
    assert (tmp_path / "tps_epochs.csv").read_text() == "epoch,start_ms,end_ms,credit,tps\n"

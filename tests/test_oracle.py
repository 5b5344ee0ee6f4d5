"""Analytic oracle: closed forms, KS distance, and epoch proximity."""

import math

import pytest
from hypothesis import given, strategies as st

from shardemu.core import TxKind
from shardemu.oracle import (
    AnalyticInput,
    MismatchedProtocol,
    expected_metrics,
    input_from_config,
    ks_statistic,
    proximity_report,
)


def desk(theta=2000, delta_s=8.0, n=8, x=800_000):
    return expected_metrics(AnalyticInput(theta=theta, delta_s=delta_s, n_shards=n, n_txs=x))


def test_reference_scale():
    exp = desk()
    assert exp.phi == pytest.approx(2000.0)
    assert exp.e1 == pytest.approx(1125.0)
    assert exp.e2 == pytest.approx(1000.0)
    assert exp.e3 == pytest.approx(16000 / 15)  # ~1066.67
    assert exp.e3_naive == pytest.approx(8000.0)
    assert exp.t1_s == pytest.approx(400.0)
    assert exp.t3_s == pytest.approx(750.0)
    assert exp.tcl_whole_bounds == (0.0, pytest.approx(400.0))
    assert exp.tcl_split_bounds == (pytest.approx(400.0), pytest.approx(750.0))
    assert exp.expected_split == pytest.approx(700_000.0)
    assert exp.expected_whole == pytest.approx(100_000.0)


def test_desk_scale_boundaries():
    exp = desk(theta=200, delta_s=1.0, n=8, x=80_000)
    assert exp.t1_s == pytest.approx(50.0)
    assert exp.t3_s == pytest.approx(93.75)


def test_as_json_keys_and_naive_note():
    body = desk().as_json()
    assert set(body) == {
        "phi_tx_per_s", "tps_intake", "tps_settle", "tps_blended",
        "tps_blended_naive_form", "note", "phase_boundary_s",
        "drain_deadline_s", "tcl_whole_bounds_s", "tcl_split_bounds_s",
        "expected_split_count", "expected_whole_count",
    }
    assert body["tps_blended_naive_form"] > body["tps_intake"], \
        "the naive form exceeds even the intake rate, hence reference-only"
    assert "naive form" in body["note"]


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
def test_blend_sits_between_regimes(n):
    exp = desk(n=n)
    assert exp.e2 < exp.e3 < exp.e1
    # the blend is exactly the time-weighted mix of the two regimes
    blend = (exp.e1 * exp.t1_s + exp.e2 * (exp.t3_s - exp.t1_s)) / exp.t3_s
    assert exp.e3 == pytest.approx(blend)


def test_single_shard_has_no_split_phase():
    exp = desk(n=1)
    assert exp.t1_s == pytest.approx(exp.t3_s)
    assert exp.expected_split == 0.0
    assert exp.expected_whole == exp.expected_whole == pytest.approx(800_000.0)


@given(
    theta=st.integers(1, 5000),
    delta=st.floats(0.01, 60.0),
    n=st.integers(2, 128),
    x=st.integers(1, 10_000_000),
)
def test_analytic_invariants_hold_everywhere(theta, delta, n, x):
    exp = desk(theta=theta, delta_s=delta, n=n, x=x)
    assert exp.e2 < exp.e3 < exp.e1
    assert 0 < exp.t1_s <= exp.t3_s
    assert math.isclose(exp.tcl_split_bounds[1], exp.t3_s)
    assert math.isclose(exp.expected_split + exp.expected_whole, x)


@pytest.mark.parametrize("kwargs", [
    {"theta": 0}, {"delta_s": 0.0}, {"delta_s": -1.0}, {"n": 0}, {"x": 0},
])
def test_positivity_enforced(kwargs):
    base = {"theta": 100, "delta_s": 1.0, "n": 2, "x": 10}
    base.update(kwargs)
    with pytest.raises(ValueError):
        AnalyticInput(
            theta=base["theta"], delta_s=base["delta_s"],
            n_shards=base["n"], n_txs=base["x"],
        )


def test_input_from_config():
    echo = {"block_size": 200, "block_interval_ms": 500, "n_shards": 4}
    inp = input_from_config(echo, n_txs=1000)
    assert (inp.theta, inp.delta_s, inp.n_shards, inp.n_txs) == (200, 0.5, 4, 1000)


# --- KS statistic ---


def test_ks_on_uniform_grid_is_small():
    grid = [i / 1000 for i in range(1, 1001)]
    assert ks_statistic(grid, 0.0, 1.0) < 0.002


def test_ks_on_point_mass_is_one():
    assert ks_statistic([0.0] * 50, 0.0, 1.0) == pytest.approx(1.0)
    assert ks_statistic([1.0] * 50, 0.0, 1.0) == pytest.approx(1.0)


def test_ks_clamps_out_of_range_samples():
    d = ks_statistic([-5.0, 0.5, 9.0], 0.0, 1.0)
    assert 0.0 < d <= 1.0


def test_ks_rejects_bad_input():
    with pytest.raises(ValueError):
        ks_statistic([], 0.0, 1.0)
    with pytest.raises(ValueError):
        ks_statistic([0.5], 1.0, 1.0)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
def test_ks_is_a_distance(samples):
    d = ks_statistic(samples, 0.0, 1.0)
    assert 0.0 <= d <= 1.0


# --- proximity report ---


def _echo(**over):
    echo = {
        "injection": {"prefill": True},
        "mechanism": "relay",
        "partition": "static",
        "block_size": 10,
        "block_interval_ms": 1000,
        "n_shards": 2,
    }
    echo.update(over)
    return echo


def _summary(epochs, per_shard_last, last_commit):
    return {
        "config": _echo(),
        "phases": {
            "epochs": epochs,
            "last_commit_ms": last_commit,
            "per_shard_last_commit_ms": per_shard_last,
        },
    }


def _epoch(e, label, tps, epoch_ms=5000):
    return {
        "epoch": e, "label": label, "tps": tps,
        "start_ms": e * epoch_ms, "end_ms": (e + 1) * epoch_ms,
    }


def test_proximity_exclusion_ladder():
    exp = expected_metrics(AnalyticInput(theta=10, delta_s=1.0, n_shards=2, n_txs=400))
    # e1 = 15, e2 = 10 at this scale
    epochs = [
        _epoch(0, "intake", 14.0),   # warmup, despite a clean label
        _epoch(1, "intake", 15.0),   # included, distance 0
        _epoch(2, "mixed", 12.0),    # straddles the boundary
        _epoch(3, "settle", 9.0),    # included: before any shard drained
        _epoch(4, "settle", 5.0),    # after the first shard ran dry
        _epoch(5, "empty", 0.0),     # nothing committed
        _epoch(6, "settle", 2.0),    # cut short by the stop rule
    ]
    # shard 0 drains at 21s: epoch 3 (ends 20s) still measures the settle
    # regime, epoch 4 (ends 25s) no longer does
    summary = _summary(epochs, {"0": 21_000, "1": 26_000}, last_commit=26_000)
    report = proximity_report(summary, exp)

    reasons = [e["exclude_reason"] for e in report["epochs"]]
    assert reasons == [
        "warmup", None, "mixed", None, "drain_down", "empty", "incomplete_tail",
    ]
    assert report["included_epochs"] == 2
    assert report["max_pct_distance"]["intake"] == pytest.approx(0.0)
    assert report["max_pct_distance"]["settle"] == pytest.approx(10.0)
    assert report["mean_pct_distance"]["settle"] == pytest.approx(10.0)
    included = [e for e in report["epochs"] if e["included"]]
    assert [e["expected_tps"] for e in included] == [15.0, 10.0]


def test_proximity_requires_reference_protocol():
    exp = expected_metrics(AnalyticInput(theta=10, delta_s=1.0, n_shards=2, n_txs=400))
    for bad in (
        {"mechanism": "broker"},
        {"partition": "clpa"},
        {"injection": {"base_rate": 100.0}},
    ):
        summary = _summary([], {}, 0)
        summary["config"] = _echo(**bad)
        with pytest.raises(MismatchedProtocol):
            proximity_report(summary, exp)


def test_tcl_uniformity_split_by_kind():
    exp = expected_metrics(AnalyticInput(theta=10, delta_s=1.0, n_shards=2, n_txs=400))
    t1, t3 = exp.t1_s, exp.t3_s
    whole = [(TxKind.REGULAR, int(t1 * 1000 * f)) for f in (0.1, 0.5, 0.9)]
    split = [(TxKind.ORIGINAL_CTX, int((t1 + (t3 - t1) * f) * 1000)) for f in (0.25, 0.5, 0.75)]
    summary = _summary([], {}, 0)
    report = proximity_report(summary, exp, tcl_samples=whole + split)
    tcl = report["tcl"]
    assert tcl["whole"]["n"] == 3 and tcl["split"]["n"] == 3
    assert tcl["whole"]["bounds_s"] == [0.0, t1]
    assert tcl["split"]["bounds_s"] == [t1, t3]
    assert tcl["whole"]["mean_pct_distance"] == pytest.approx(0.0, abs=0.5)
    assert 0.0 <= tcl["split"]["ks_d"] <= 1.0

    none_given = proximity_report(summary, exp)
    assert "tcl" not in none_given
    empty = proximity_report(summary, exp, tcl_samples=[])
    assert empty["tcl"] == {"whole": {"n": 0}, "split": {"n": 0}}

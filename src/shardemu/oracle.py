"""Closed-form expectations for the pre-filled correctness protocol.

With pools filled before consensus starts (FIFO packing, relay mechanism,
static uniform partition), a run has two regimes. During intake, blocks
drain the original queue: a 1/N fraction commits whole (credit 1 each) and
the rest commit as debit halves (credit 0.5). Intake ends at the phase
boundary t1 = |X|·δ/(N·Θ). During settle, blocks carry only forwarded
credit halves (credit 0.5 each) until the backlog clears at t3.

Expected throughput in credit per second:

  capacity    φ  = Θ·N/δ                    (transactions packed per second)
  intake      E1 = Θ·(N+1)/(2δ)
  settle      E2 = Θ·N/(2δ)
  whole-run   E3 = N²·Θ/((2N−1)·δ)          (time-weighted blend of E1, E2)

E3 is also reported in a naive form, N²·Θ/(2δ), which ignores the (2N−1)
factor from t3 = δ·(2N−1)·|X|/(N²·Θ); that form exceeds both E1 and E2 and
cannot be their blend, so it is surfaced side by side rather than used.

Confirmation latency is uniform within each regime: whole transfers on
(0, t1), split transfers on (t1, t1 + |X|·δ·(N−1)/(Θ·N²)) = (t1, t3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import TxKind


class MismatchedProtocol(Exception):
    """The run was not the pre-filled FIFO relay+static protocol."""


@dataclass(frozen=True)
class AnalyticInput:
    theta: int  # block size
    delta_s: float  # block interval, seconds
    n_shards: int
    n_txs: int  # injected originals |X|

    def __post_init__(self) -> None:
        if min(self.theta, self.n_shards, self.n_txs) < 1 or self.delta_s <= 0:
            raise ValueError("all analytic inputs must be positive")


@dataclass(frozen=True)
class AnalyticExpectation:
    phi: float
    e1: float
    e2: float
    e3: float
    e3_naive: float
    t1_s: float
    t3_s: float
    tcl_whole_bounds: tuple[float, float]
    tcl_split_bounds: tuple[float, float]
    expected_split: float  # E|Y| under uniform assignment
    expected_whole: float  # E|Z|

    def as_json(self) -> dict:
        return {
            "phi_tx_per_s": self.phi,
            "tps_intake": self.e1,
            "tps_settle": self.e2,
            "tps_blended": self.e3,
            "tps_blended_naive_form": self.e3_naive,
            "note": (
                "blended rate uses the (2N-1) factor implied by the settle "
                "deadline; the naive form is shown for reference only"
            ),
            "phase_boundary_s": self.t1_s,
            "drain_deadline_s": self.t3_s,
            "tcl_whole_bounds_s": list(self.tcl_whole_bounds),
            "tcl_split_bounds_s": list(self.tcl_split_bounds),
            "expected_split_count": self.expected_split,
            "expected_whole_count": self.expected_whole,
        }


def expected_metrics(inp: AnalyticInput) -> AnalyticExpectation:
    theta, delta, n, x = inp.theta, inp.delta_s, inp.n_shards, inp.n_txs
    phi = theta * n / delta
    e1 = theta * (n + 1) / (2 * delta)
    e2 = theta * n / (2 * delta)
    e3 = n * n * theta / ((2 * n - 1) * delta)
    e3_naive = n * n * theta / (2 * delta)
    t1 = x * delta / (n * theta)
    t3 = delta * (2 * n - 1) * x / (n * n * theta)
    split_upper = t1 + x * delta * (n - 1) / (theta * n * n)
    exp = AnalyticExpectation(
        phi=phi,
        e1=e1,
        e2=e2,
        e3=e3,
        e3_naive=e3_naive,
        t1_s=t1,
        t3_s=t3,
        tcl_whole_bounds=(0.0, t1),
        tcl_split_bounds=(t1, split_upper),
        expected_split=(n - 1) / n * x,
        expected_whole=x / n,
    )
    if n >= 2:
        assert exp.e2 < exp.e3 < exp.e1, "blended rate must sit between the regimes"
    assert math.isclose(split_upper, t3), "split TCL upper bound equals the drain deadline"
    return exp


def ks_statistic(samples: Sequence[float], lo: float, hi: float) -> float:
    """Kolmogorov-Smirnov D against the uniform CDF on [lo, hi]."""
    if not samples:
        raise ValueError("KS statistic needs at least one sample")
    if hi <= lo:
        raise ValueError("degenerate interval")
    xs = sorted(samples)
    n = len(xs)
    width = hi - lo
    d = 0.0
    for i, x in enumerate(xs):
        cdf = min(1.0, max(0.0, (x - lo) / width))
        d = max(d, (i + 1) / n - cdf, cdf - i / n)
    return d


def _protocol_check(config_echo: dict) -> None:
    problems = []
    if not config_echo.get("injection", {}).get("prefill"):
        problems.append("injection is not prefill")
    if config_echo.get("mechanism") != "relay":
        problems.append("mechanism is not relay")
    if config_echo.get("partition") != "static":
        problems.append("partition is not static")
    if problems:
        raise MismatchedProtocol("; ".join(problems))


def input_from_config(config_echo: dict, n_txs: int) -> AnalyticInput:
    return AnalyticInput(
        theta=config_echo["block_size"],
        delta_s=config_echo["block_interval_ms"] / 1000.0,
        n_shards=config_echo["n_shards"],
        n_txs=n_txs,
    )


def proximity_report(
    summary: dict,
    expectation: AnalyticExpectation,
    tcl_samples: Optional[Iterable[tuple[TxKind, int]]] = None,
) -> dict:
    """Percent distance of each usable epoch from its regime expectation.

    Epochs are excluded (with the reason recorded) when they cannot be
    attributed to a single regime: the warm-up first epoch, epochs whose
    commit mix straddles the boundary, empty epochs, the incomplete tail
    epoch cut short by the stop rule, and settle epochs after the first
    shard ran dry. The settle rate assumes every shard still holds
    backlog; once one empties it stops committing entirely, so later
    epochs measure residual imbalance rather than the settle regime.
    """
    _protocol_check(summary["config"])
    delta_ms = summary["config"]["block_interval_ms"]
    last_commit = summary["phases"]["last_commit_ms"]
    shard_last = summary["phases"].get("per_shard_last_commit_ms", {})
    saturated_until = min(shard_last.values()) if shard_last else last_commit
    target = {"intake": expectation.e1, "settle": expectation.e2}
    epochs = []
    worst = {"intake": 0.0, "settle": 0.0}
    sums: dict[str, list[float]] = {"intake": [], "settle": []}
    for row in summary["phases"]["epochs"]:
        entry = {
            "epoch": row["epoch"],
            "label": row["label"],
            "tps": row["tps"],
            "included": False,
            "exclude_reason": None,
            "expected_tps": None,
            "pct_distance": None,
        }
        if row["epoch"] == 0:
            entry["exclude_reason"] = "warmup"
        elif row["label"] in ("mixed", "empty"):
            entry["exclude_reason"] = row["label"]
        elif row["end_ms"] > last_commit + delta_ms:
            entry["exclude_reason"] = "incomplete_tail"
        elif row["label"] == "settle" and row["end_ms"] > saturated_until:
            entry["exclude_reason"] = "drain_down"
        else:
            exp_tps = target[row["label"]]
            pct = abs(row["tps"] - exp_tps) / exp_tps * 100.0
            entry.update(
                included=True, expected_tps=exp_tps, pct_distance=pct
            )
            worst[row["label"]] = max(worst[row["label"]], pct)
            sums[row["label"]].append(pct)
        epochs.append(entry)
    report = {
        "expected": expectation.as_json(),
        "epochs": epochs,
        "included_epochs": sum(1 for e in epochs if e["included"]),
        "max_pct_distance": worst,
        "mean_pct_distance": {
            k: (sum(v) / len(v) if v else None) for k, v in sums.items()
        },
    }
    if tcl_samples is not None:
        report["tcl"] = _tcl_uniformity(tcl_samples, expectation)
    return report


def _tcl_uniformity(
    tcl_samples: Iterable[tuple[TxKind, int]], exp: AnalyticExpectation
) -> dict:
    """Latency of whole and split originals, given as (original's kind,
    tcl_ms) pairs, against each regime's uniform bounds."""
    whole = []
    split = []
    regular = TxKind.REGULAR
    for kind, tcl_ms in tcl_samples:
        (whole if kind is regular else split).append(tcl_ms / 1000.0)
    out: dict[str, dict] = {}
    for name, samples, bounds in (
        ("whole", whole, exp.tcl_whole_bounds),
        ("split", split, exp.tcl_split_bounds),
    ):
        if not samples:
            out[name] = {"n": 0}
            continue
        lo, hi = bounds
        mid = (lo + hi) / 2.0
        mean = sum(samples) / len(samples)
        out[name] = {
            "n": len(samples),
            "bounds_s": [lo, hi],
            "midpoint_s": mid,
            "mean_s": mean,
            "mean_pct_distance": abs(mean - mid) / mid * 100.0 if mid else None,
            "ks_d": ks_statistic(samples, lo, hi),
        }
    return out

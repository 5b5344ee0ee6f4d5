"""The research scripts under scripts/, run end to end at a tiny size."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
NOMINAL_S = runpy.run_path(str(ROOT / "perfbench" / "reference.py"))["NOMINAL_S"]


def _run(script, out_dir, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--out", str(out_dir), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_correctness_sweep_smoke(tmp_path):
    proc = _run("correctness_sweep.py", tmp_path, "--shards", "2", "--txs-per-shard", "500")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "conservation ok" in proc.stdout


def test_compare_mechanisms_smoke(tmp_path):
    proc = _run("compare_mechanisms.py", tmp_path, "--shards", "2", "--txs", "1000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "brokered settlement committed" in proc.stdout


def test_desk_bench_smoke(tmp_path):
    proc = _run("desk_bench.py", tmp_path, "--shards", "2", "--txs-per-shard", "200",
                "--repeat", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    rows = [line for line in lines if "runs" not in line]
    summaries = [line for line in lines if "runs" in line]
    assert lines == rows + summaries
    assert [row["output_dir"] for row in rows] == [True, False, True, False]
    for row in rows:
        assert row["shards"] == 2 and row["exit"] == 0
        assert row["rows"] > 0 and row["wall_s"] > 0 and row["peak_rss_mb"] > 0
        assert row["ref_s"] > 0
        # Both times are rounded to the millisecond before they are printed.
        assert row["scaled_wall_s"] == pytest.approx(
            row["wall_s"] * NOMINAL_S / row["ref_s"], rel=0.01, abs=0.002)
    assert len({row["rows"] for row in rows}) == 1
    assert [s["output_dir"] for s in summaries] == [True, False]
    for summary in summaries:
        assert summary["shards"] == 2 and summary["runs"] == 2
        for key in ("wall_s", "scaled_wall_s"):
            runs = sorted(r[key] for r in rows if r["output_dir"] is summary["output_dir"])
            got = summary[key]
            assert got["median"] == pytest.approx(sum(runs) / 2, abs=0.001)
            assert runs[0] <= got["q1"] <= got["median"] <= got["q3"] <= runs[1]
    assert (tmp_path / "run_2" / "summary.json").exists()

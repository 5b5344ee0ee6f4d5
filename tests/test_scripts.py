"""The research scripts under scripts/, run end to end at a tiny size."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    proc = _run("desk_bench.py", tmp_path, "--shards", "2", "--txs-per-shard", "200")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["output_dir"] for row in rows] == [True, False]
    for row in rows:
        assert row["shards"] == 2 and row["exit"] == 0
        assert row["rows"] > 0 and row["wall_s"] > 0 and row["peak_rss_mb"] > 0
    assert rows[0]["rows"] == rows[1]["rows"]
    assert (tmp_path / "run_2" / "summary.json").exists()

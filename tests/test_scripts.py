"""The research scripts under scripts/, run end to end at a tiny size."""

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

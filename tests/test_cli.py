"""Command-line surface: the four subcommands and their exit codes."""

import json
import os
import subprocess
import sys

import pytest

from helpers import cfg_dict
from shardemu import cli
from shardemu.cli import main


def write_cfg(path, **over):
    path.write_text(json.dumps(cfg_dict(**over)))
    return str(path)


def test_full_command_chain(tmp_path, capsys):
    dataset = tmp_path / "transfers.csv"
    rc = main([
        "gen-dataset", "--accounts", "40", "--txs", "200",
        "--skew", "zipf:1.1", "--seed", "6", "--out", str(dataset),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 200 rows over 40 accounts" in out
    assert "top-10 coverage:" in out

    run_dir = tmp_path / "run"
    cfg_path = write_cfg(
        tmp_path / "run.json", dataset_path=str(dataset), output_dir=str(run_dir)
    )
    rc = main(["run", "--config", cfg_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("exit=0 ")
    assert "  X=200" in out
    assert (run_dir / "summary.json").exists()

    rc = main(["oracle", "--config", cfg_path])
    out = capsys.readouterr().out
    assert rc == 0
    body = json.loads(out)
    # theta=10, delta=0.1s, N=2 at X=200 rows
    assert body["phi_tx_per_s"] == pytest.approx(200.0)
    assert body["tps_intake"] == pytest.approx(150.0)
    assert body["tps_settle"] == pytest.approx(100.0)
    assert body["phase_boundary_s"] == pytest.approx(1.0)
    assert body["drain_deadline_s"] == pytest.approx(1.5)

    rc = main(["report", "--run-dir", str(run_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"recomputed reports in {run_dir}/recomputed" in out
    counters = json.loads(out[: out.rindex("recomputed reports")])
    assert counters["X"] == 200
    assert (run_dir / "recomputed" / "tps_epochs.csv").exists()


def test_degraded_run_returns_three(tmp_path, capsys):
    dataset = tmp_path / "d.csv"
    main(["gen-dataset", "--accounts", "10", "--txs", "60", "--out", str(dataset)])
    capsys.readouterr()
    cfg_path = write_cfg(
        tmp_path / "cut.json",
        dataset_path=str(dataset),
        output_dir=str(tmp_path / "cut"),
        stop={"drain": True, "wall_ms": 150},
    )
    rc = main(["run", "--config", cfg_path])
    assert rc == 3
    assert capsys.readouterr().out.startswith("exit=3 ")


def test_report_refuses_a_run_dir_missing_a_block_file(tmp_path, capsys):
    dataset = tmp_path / "d.csv"
    main(["gen-dataset", "--accounts", "20", "--txs", "60", "--out", str(dataset)])
    run_dir = tmp_path / "run"
    cfg_path = write_cfg(
        tmp_path / "run.json", dataset_path=str(dataset), output_dir=str(run_dir)
    )
    assert main(["run", "--config", cfg_path]) == 0
    (run_dir / "blocks_shard1.jsonl").unlink()
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 2
    assert "blocks_shard1.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("argv_builder", [
    lambda d: ["run", "--config", str(d / "missing.json")],
    lambda d: ["oracle", "--config", str(d / "missing.json")],
    lambda d: ["report", "--run-dir", str(d / "nowhere")],
    lambda d: ["gen-dataset", "--accounts", "1", "--txs", "5", "--out", str(d / "x.csv")],
    lambda d: ["gen-dataset", "--accounts", "5", "--txs", "5",
               "--skew", "zipf:0", "--out", str(d / "x.csv")],
])
def test_bad_invocations_exit_two(tmp_path, capsys, argv_builder):
    assert main(argv_builder(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_config_problems_exit_two(tmp_path, capsys):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(cfg_dict(typo_key=1)))
    assert main(["run", "--config", str(unknown)]) == 2

    no_out = write_cfg(tmp_path / "noout.json", dataset_path="whatever.csv")
    assert main(["run", "--config", no_out]) == 2

    no_data = write_cfg(tmp_path / "nodata.json")
    assert main(["oracle", "--config", no_data]) == 2

    empty_csv = tmp_path / "empty.csv"
    empty_csv.write_text("from,to,value\n")
    with_empty = write_cfg(tmp_path / "empty.json", dataset_path=str(empty_csv))
    assert main(["oracle", "--config", with_empty]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_is_executable():
    # Run from the directory that holds the package, so the child finds it
    # whether or not it is installed.
    proc = subprocess.run(
        [sys.executable, "-m", "shardemu.cli", "--help"],
        capture_output=True, text=True, timeout=30,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0
    for sub in ("run", "oracle", "report", "gen-dataset"):
        assert sub in proc.stdout

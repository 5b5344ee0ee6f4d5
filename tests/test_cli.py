"""Command-line surface: the four subcommands and their exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from helpers import cfg_dict
from shardemu import cli
from shardemu.cli import main
from shardemu.core import block_from_json, block_line
from shardemu.dataset import gen_dataset
from shardemu.harness import BadBlockFile, report_from_blocks


def write_cfg(path, **over):
    path.write_text(json.dumps(cfg_dict(**over)))
    return str(path)


def write_dataset(directory):
    path = directory / "transfers.csv"
    gen_dataset(str(path), accounts=20, txs=40, skew="uniform", seed=1)
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


def _finished_run(tmp_path):
    dataset = tmp_path / "d.csv"
    main(["gen-dataset", "--accounts", "20", "--txs", "60", "--out", str(dataset)])
    run_dir = tmp_path / "run"
    cfg_path = write_cfg(
        tmp_path / "run.json", dataset_path=str(dataset), output_dir=str(run_dir)
    )
    assert main(["run", "--config", cfg_path]) == 0
    return run_dir


def test_report_refuses_a_run_dir_missing_a_block_file(tmp_path, capsys):
    run_dir = _finished_run(tmp_path)
    (run_dir / "blocks_shard1.jsonl").unlink()
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 2
    assert "blocks_shard1.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("text, cause", [
    ('{"config": {"n_shards": 2,', "JSONDecodeError"),
    ("{}", "KeyError: 'config'"),
    ('{"config": {"n_shards": 0, "epoch_ms": 1000}}', "n_shards must be a positive integer"),
], ids=["invalid_json", "no_config", "no_shards"])
def test_report_names_a_damaged_summary(tmp_path, capsys, text, cause):
    run_dir = _finished_run(tmp_path)
    (run_dir / "summary.json").write_text(text)
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "summary.json" in err and cause in err
    assert "Traceback" not in err


def _truncate_last(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]


def _edit_tx_hash(lines):
    obj = json.loads(lines[0])
    obj["txs"]["hash"][0] = "00" * 32
    lines[0] = json.dumps(obj)


def _text_inject_time(lines):
    obj = json.loads(lines[-1])
    obj["txs"]["inject_time"][-1] = "soon"
    lines[-1] = json.dumps(obj)


def _signed_value(lines):
    obj = json.loads(lines[-1])
    obj["txs"]["value"][-1] = "+" + obj["txs"]["value"][-1]
    lines[-1] = json.dumps(obj)


def _fee_column(lines):
    # The layout has no fee; a column the writer never writes is refused.
    obj = json.loads(lines[-1])
    obj["txs"]["fee"] = [0] * len(obj["txs"]["hash"])
    lines[-1] = json.dumps(obj)


def _ragged_columns(lines):
    obj = json.loads(lines[-1])
    obj["txs"]["nonce"].pop()
    lines[-1] = json.dumps(obj)


def _fractional_height(lines):
    obj = json.loads(lines[-1])
    obj["height"] += 0.5
    lines[-1] = json.dumps(obj)


def _text_commit_time(lines):
    obj = json.loads(lines[-1])
    obj["commit_time"] = "soon"
    lines[-1] = json.dumps(obj)


def _short_parent(lines):
    # A consistent line for a block whose parent is one byte long.
    obj = json.loads(lines[-1])
    block = dataclasses.replace(block_from_json(obj), parent_hash=b"\x01", hash=b"")
    lines[-1] = block_line(block, obj["commit_time"])


@pytest.mark.parametrize("damage, cause", [
    (_truncate_last, "invalid JSON"),
    (_edit_tx_hash, "transaction hash mismatch"),
    (_text_inject_time, "inject_time must be an integer or null"),
    (_signed_value, "value must be a decimal string"),
    (_fee_column, "unknown ['fee']"),
    (_ragged_columns, "txs columns differ in length"),
    (_fractional_height, "height must be an integer"),
    (_text_commit_time, "commit_time must be an integer or null"),
    (_short_parent, "parent_hash must be 64 lowercase hex digits"),
], ids=["truncated", "tx_hash", "inject_time", "value", "fee", "ragged", "height",
        "commit_time", "parent_hash"])
def test_report_names_the_damaged_block_file_line(tmp_path, capsys, damage, cause):
    run_dir = _finished_run(tmp_path)
    path = run_dir / "blocks_shard1.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) > 1 and all(json.loads(line)["txs"]["hash"] for line in (lines[0], lines[-1]))
    line_no = 1 if damage is _edit_tx_hash else len(lines)
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"blocks_shard1.jsonl line {line_no}: " in err and cause in err


# The row layout block files had before transactions were written as
# columns: one object per transaction, with an always-zero fee and the
# block's commit time repeated.
_ROW_KEYS = ("hash", "payer", "payee", "value", "nonce", "kind", "origin_hash", "fee",
             "inject_time", "confirm_time")


def test_report_refuses_a_row_layout_block_file(tmp_path, capsys):
    """No reader of the row layout is kept: its first line is refused."""
    run_dir = _finished_run(tmp_path)
    path = run_dir / "blocks_shard0.jsonl"
    rows = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        n = len(obj["txs"]["hash"])
        cols = {**obj["txs"], "fee": [0] * n, "confirm_time": [obj["commit_time"]] * n}
        obj["txs"] = [dict(zip(_ROW_KEYS, row)) for row in zip(*map(cols.get, _ROW_KEYS))]
        rows.append(json.dumps(obj) + "\n")
    assert json.loads(rows[0])["txs"], "line 1 carries transactions"
    path.write_text("".join(rows))
    with pytest.raises(BadBlockFile, match="blocks_shard0.jsonl line 1: ValueError: "
                                            "txs must be an object of columns, not list"):
        report_from_blocks(str(run_dir))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 2
    assert "blocks_shard0.jsonl line 1: " in capsys.readouterr().err


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


@pytest.mark.parametrize("argv_builder", [
    lambda d: ["run", "--config", write_cfg(d / "c.json", dataset_path=str(d / "none.csv"),
                                            output_dir=str(d / "out"))],
    lambda d: ["oracle", "--config", write_cfg(d / "c.json", dataset_path=str(d / "none.csv"))],
    lambda d: ["report", "--run-dir", write_cfg(d / "a_file.json")],
    lambda d: ["run", "--config", write_cfg(d / "c.json", dataset_path=write_dataset(d),
                                            output_dir=write_cfg(d / "a_file.json"))],
], ids=["run_missing_dataset", "oracle_missing_dataset", "report_run_dir_is_a_file",
        "run_output_dir_is_a_file"])
def test_unreadable_inputs_exit_two_with_one_line(tmp_path, capsys, argv_builder):
    assert main(argv_builder(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


_ROW = "0x" + "11" * 20 + ",0x" + "22" * 20 + ",5\n"


@pytest.mark.parametrize("text, named", [
    ("payer,payee,amount\n" + _ROW, "dataset line 1: expected header"),
    ("from,to,value\n" + _ROW + "not,a row\n" + _ROW, "dataset line 3: expected 3 columns"),
], ids=["bad_header", "bad_row"])
def test_oracle_refuses_a_dataset_a_run_would_refuse(tmp_path, capsys, text, named):
    """``oracle`` sizes the workload with the dataset parser a run reads
    with: a bad header or a bad row exits 2 and names its line."""
    data = tmp_path / "transfers.csv"
    data.write_text(text)
    cfg_path = write_cfg(tmp_path / "c.json", dataset_path=str(data))
    assert main(["oracle", "--config", cfg_path]) == 2
    assert named in capsys.readouterr().err


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

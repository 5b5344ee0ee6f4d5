"""The research scripts under scripts/, run end to end at a tiny size."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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
        assert 0 < row["setup_s"] <= row["wall_s"]
        # The rebuild is timed on its own, on runs that wrote block files.
        assert ("report_s" in row) is row["output_dir"]
        assert row.get("report_s", 1) > 0
    assert len({row["rows"] for row in rows}) == 1
    assert [s["output_dir"] for s in summaries] == [True, False]
    for summary in summaries:
        assert summary["shards"] == 2 and summary["runs"] == 2
        keys = ["wall_s", "setup_s", "peak_rss_mb"] + ["report_s"] * summary["output_dir"]
        assert ("report_s" in summary) is summary["output_dir"]
        for key in keys:
            runs = sorted(r[key] for r in rows if r["output_dir"] is summary["output_dir"])
            got = summary[key]
            assert got["median"] == pytest.approx(sum(runs) / 2, abs=0.001)
            assert runs[0] <= got["q1"] <= got["median"] <= got["q3"] <= runs[1]
    assert (tmp_path / "run_2" / "summary.json").exists()
    assert (tmp_path / "run_2" / "recomputed" / "summary.json").exists()


def test_same_bytes_smoke(tmp_path):
    proc = _run("same_bytes.py", tmp_path, "--only", "relay_50_s4", "clpa2_5_s0", "relay_50_s4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["config"], line["exit"]) for line in lines] == [
        ("relay_50_s4", 0), ("clpa2_5_s0", 3), ("relay_50_s4", 0)]
    for key in ("sha256", "reports", "chain", "schedule", "recomputed"):
        assert all(len(line[key]) == 64 for line in lines), key
        assert lines[0][key] == lines[2][key] != lines[1][key], key
    assert (tmp_path / "clpa2_5_s0" / "recomputed" / "tcl.csv").exists()
    assert (tmp_path / "clpa2_5_s0" / "blocks_shard1.jsonl").exists()
    # Re-encoding every block line moves sha256 alone.
    same_bytes, run_dir = _load_script("same_bytes"), tmp_path / "relay_50_s4"
    for path in run_dir.glob("blocks_shard*.jsonl"):
        objs = map(json.loads, path.read_text().splitlines())
        path.write_text("".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs))
    assert same_bytes.digest_outputs(run_dir) != lines[2]["sha256"]
    assert same_bytes.digest_outputs(run_dir, blocks=False) == lines[2]["reports"]
    assert same_bytes.digest_chain(run_dir) == lines[2]["chain"]
    assert same_bytes.digest_schedule(run_dir) == lines[2]["schedule"]
    # A doctored block file: new commitment fields move chain, not schedule;
    # a new timestamp moves schedule.
    path = run_dir / "blocks_shard0.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    for field in same_bytes.COMMITMENT:
        objs[0][field] = "ab" * 32
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    assert same_bytes.digest_chain(run_dir) != lines[2]["chain"]
    assert same_bytes.digest_schedule(run_dir) == lines[2]["schedule"]
    objs[0]["timestamp"] += 1
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    assert same_bytes.digest_schedule(run_dir) != lines[2]["schedule"]


def test_rss_phases_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rss_phases.py"), "clpa_rate_4", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["phase"] for line in lines] == [
        "start", "setup", "reference", "run", "reference", "report", "reference"]
    peaks = [line["hwm_mb"] for line in lines]
    assert peaks == sorted(peaks) and peaks[0] > 0
    for line in lines:
        assert line["rss_mb"] is None or 0 < line["rss_mb"] <= line["hwm_mb"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_bench_summary_arithmetic():
    ab = _load_script("ab_bench")
    base = [10.0, 12.0, 11.0, 13.0, 14.0]
    head = [9.0, 12.0, 12.0, 10.0, 11.0]
    got = ab.compare(base, head, "lower")
    assert (got["won"], got["ties"], got["lost"], got["pairs"]) == (3, 1, 1, 5)
    assert (got["base_median"], got["head_median"]) == (12.0, 11.0)
    assert got["ratio"] == pytest.approx(11 / 12)
    # Inclusive quartiles: 11 and 13 of the base, 10 and 12 of the head.
    assert (got["base_iqr"], got["head_iqr"]) == (2.0, 2.0)
    assert got["clears_base_iqr"] is False, "a 1.0 fall is inside a 2.0 spread"
    higher = ab.compare(base, head, "higher")
    assert (higher["won"], higher["ties"], higher["lost"]) == (1, 1, 3)
    assert higher["clears_base_iqr"] is False

    faster = ab.compare([10.0, 10.5, 11.0, 11.5, 12.0], [8.0] * 5, "lower")
    assert (faster["won"], faster["base_iqr"], faster["head_iqr"]) == (5, 1.0, 0.0)
    assert faster["clears_base_iqr"] is True
    assert ab.compare([10.0, 10.5, 11.0, 11.5, 12.0], [8.0] * 5, "higher")["clears_base_iqr"] is False
    assert ab.compare([3.0], [2.0], "lower")["base_iqr"] == 0.0
    with pytest.raises(ValueError):
        ab.compare([1.0, 2.0], [1.0], "lower")


def test_ab_bench_runs_the_named_workloads_and_no_desk_child_at_zero(monkeypatch, tmp_path,
                                                                     capsys):
    ab = _load_script("ab_bench")
    spec = {"workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}
    assert ab.chosen_workloads(spec, None) == ["a", "b", "c"]
    assert ab.chosen_workloads(spec, ["c", "a", "c"]) == ["c", "a"]
    with pytest.raises(SystemExit, match="--workload d: not in BENCHMARK.json"):
        ab.chosen_workloads(spec, ["a", "d"])

    ran = []
    monkeypatch.setattr(ab, "run_perfbench", lambda tree, w, seed, seconds: (
        ran.append((tree.name, w, seed, seconds)) or {"correct": True, "metrics": {}}))
    monkeypatch.setattr(ab, "run_desk", lambda tree, shards, out: (
        ran.append((tree.name, "desk", shards)) or {"correct": True, "runs": {}}))
    trees = {"base": tmp_path / "base", "head": tmp_path / "head"}
    pairs = ab.run_pairs(trees, ["c"], 3, 13, 2.0, 0, tmp_path)
    assert ran == [("base", "c", 13, 2.0), ("head", "c", 13, 2.0), ("head", "c", 13, 2.0),
                   ("base", "c", 13, 2.0), ("base", "c", 13, 2.0), ("head", "c", 13, 2.0)]
    assert [p["first"] for p in pairs] == ["base", "head", "base"]
    assert all("desk" not in p[side] for p in pairs for side in trees)
    ran.clear()
    ab.run_pairs(trees, ["a", "b"], 1, 1, 1.0, 4, tmp_path)
    assert ran == [("base", "a", 1, 1.0), ("base", "b", 1, 1.0), ("base", "desk", 4),
                   ("head", "a", 1, 1.0), ("head", "b", 1, 1.0), ("head", "desk", 4)]
    with pytest.raises(SystemExit):
        ab.main(["--base", "HEAD", "--pairs", "1", "--desk-shards", "-1"])
    assert "--desk-shards must be 0" in capsys.readouterr().err


def test_ab_bench_summarizes_only_pairs_where_both_sides_measured():
    ab = _load_script("ab_bench")

    def side(run_s, wall_s):
        metrics = {} if run_s is None else {"run_s": run_s}
        return {"perfbench": {"w": {"correct": True, "metrics": metrics}},
                "desk": {"correct": True, "runs": {"with_output": {"wall_s": wall_s}}}}

    pairs = [{"base": side(1.0, 5.0), "head": side(0.8, 4.0)},
             {"base": side(1.2, 5.0), "head": side(None, 6.0)},
             {"base": side(1.1, 5.0), "head": side(1.2, 5.0)}]
    summary = ab.summarize(pairs, {"run_s": "lower"}, desk=True)
    assert summary["w run_s"]["pairs"] == 2
    assert (summary["w run_s"]["won"], summary["w run_s"]["lost"]) == (1, 1)
    walls = summary["desk with_output wall_s"]
    assert (walls["pairs"], walls["won"], walls["ties"], walls["lost"]) == (3, 1, 1, 1)
    assert "desk without_output wall_s" not in summary


def test_ab_bench_compares_the_raw_walls_of_the_measured_line(monkeypatch):
    ab = _load_script("ab_bench")
    printed = "\n".join([
        "workload w seed 1: 3 repetitions (3 untraced, 0 traced)",
        "  output fingerprint ab12",
        "  run_s 0.9 s",
        "  measured: mean wall setup_s 0.0839 s, run_s 0.6781 s, report_s 0.2155 s; "
        "mean reference 0.1019 s (nominal 0.15 s)",
        json.dumps({"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"run_s": {"value": 0.9, "unit": "s"}}}),
    ])
    monkeypatch.setattr(ab, "_python", lambda tree, *args: subprocess.CompletedProcess(
        args, 0, printed, ""))
    got = ab.run_perfbench(Path("tree"), "w", 1, 1.0)
    assert got["raw"] == {"raw_setup_s": 0.0839, "raw_run_s": 0.6781, "raw_report_s": 0.2155,
                          "raw_reference_s": 0.1019}
    assert (got["metrics"], got["fingerprint"], got["correct"]) == ({"run_s": 0.9}, "ab12", True)
    assert ab.raw_walls(["  run_s 0.9 s", "  measured: nothing"]) == {}

    # A leaner heap speeds the reference up, so scaled run_s rises while
    # the raw wall falls; the summary shows all three.
    def side(run_s, raw_run_s, reference_s):
        return {"perfbench": {"w": {"correct": True, "metrics": {"run_s": run_s},
                                    "raw": {"raw_run_s": raw_run_s,
                                            "raw_reference_s": reference_s}}}}

    pairs = [{"base": side(1.0, 0.60, 0.100), "head": side(1.1, 0.55, 0.090)},
             {"base": side(1.0, 0.62, 0.102), "head": side(1.2, 0.58, 0.092)},
             {"base": side(1.0, 0.61, 0.101), "head": side(1.1, 0.57, 0.091)}]
    summary = ab.summarize(pairs, {"run_s": "lower"}, desk=False)
    assert list(summary) == ["w run_s", "w raw_run_s", "w raw_reference_s"]
    assert (summary["w run_s"]["won"], summary["w run_s"]["lost"]) == (0, 3)
    assert (summary["w raw_run_s"]["won"], summary["w raw_run_s"]["lost"]) == (3, 0)
    assert summary["w raw_run_s"]["head_median"] == 0.57
    assert (summary["w raw_reference_s"]["won"], summary["w raw_reference_s"]["head_median"]) \
        == (3, 0.091)


def test_ab_bench_compares_same_bytes_lines_on_the_keys_both_print():
    ab = _load_script("ab_bench")
    old = '{"config": "relay_50_s4", "exit": 0, "sha256": "aa"}'
    new = '{"config": "relay_50_s4", "exit": 0, "sha256": "aa", "recomputed": "cc"}'
    assert ab.same_bytes_match([old], [new]), "a base without the recomputed digest"
    assert not ab.same_bytes_match([new], [new.replace('"cc"', '"dd"')])
    assert not ab.same_bytes_match([old], [new.replace('"aa"', '"bb"')]), "sha256 differs"
    assert not ab.same_bytes_match([old], [])
    assert ab.same_bytes_match(["same_bytes.py exited 1: x"], ["same_bytes.py exited 1: x"])
    assert not ab.same_bytes_match([old], ["same_bytes.py exited 1: x"])


def test_ab_bench_lists_which_same_bytes_keys_differ_per_config():
    ab = _load_script("ab_bench")
    base = ['{"config": "a", "exit": 0, "sha256": "1", "reports": "2", "chain": "3"}',
            '{"config": "b", "exit": 3, "sha256": "4", "reports": "5"}',
            '{"config": "c", "exit": 0, "sha256": "6"}']
    head = ['{"config": "a", "exit": 0, "sha256": "9", "reports": "2", "chain": "3"}',
            '{"config": "b", "exit": 0, "sha256": "4", "reports": "8", "recomputed": "7"}',
            '{"config": "c", "exit": 1, "sha256": "0"}']
    assert ab.same_bytes_keys(base, head) == [
        "a: sha256 only; exit, reports, chain match",
        "b: exit, reports only; sha256 match",
        "c: exit, sha256 differ",
    ]
    assert not ab.same_bytes_match(base, head)
    assert ab.same_bytes_keys(base[:1], base[:1]) == ["a: exit, sha256, reports, chain match"]
    assert ab.same_bytes_keys(base[:2], head[:1]) == [
        "a: sha256 only; exit, reports, chain match", "2 lines base, 1 head"]
    assert ab.same_bytes_keys(["same_bytes.py exited 1: x"], ["same_bytes.py exited 1: x"]) \
        == ["same_bytes.py exited 1: x: same"]

"""The correctness gate flags doctored results and fails the command.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import checks
import run as bench
from shardemu.config import parse_config
from shardemu.dataset import gen_dataset
from shardemu.harness import Emulation, report_from_blocks

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = {
    "n_shards": 2,
    "block_size": 20,
    "block_interval_ms": 100,
    "epoch_ms": 500,
    "mechanism": "relay",
    "transport": {"sim": {"latency_ms": [1, 9], "seed": 0}},
    "faults": [{"kind": "crash", "node": "1.3", "at_ms": 300}],
}


def tiny_run(tmp_path, name="run"):
    data = tmp_path / "data.csv"
    if not data.exists():
        gen_dataset(str(data), accounts=40, txs=300, skew="uniform", seed=5)
    out = str(tmp_path / name)
    result = Emulation(parse_config({**TINY, "dataset_path": str(data), "output_dir": out})).execute()
    return out, checks.run_outcome(result, report_from_blocks(out))


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    return tiny_run(tmp_path_factory.mktemp("gate"))


def test_real_run_passes_every_check(real):
    out, outcome = real
    assert checks.outcome_problems(outcome) == []
    assert checks.failed_originals(outcome, []) == 0
    # The crashed replica stopped early: its log is a strict prefix.
    logs = outcome["root_logs"]
    assert len(logs["1.3"]) < len(logs["1.0"])


def doctored(outcome, **changes):
    out = json.loads(json.dumps(outcome))
    out.update(changes)
    return out


def test_broken_identity_is_flagged(real):
    _, outcome = real
    c = dict(outcome["counters"], Z=outcome["counters"]["Z"] - 1)
    problems = checks.outcome_problems(doctored(outcome, counters=c))
    assert any("Z+Y != X" in p for p in problems)
    assert checks.failed_originals(outcome, problems) == outcome["counters"]["X"]

    c = dict(outcome["counters"], U=outcome["counters"]["U"] + 1)
    assert any("Y, U, V differ" in p for p in checks.conservation_problems(c))
    c = dict(outcome["counters"], W=outcome["counters"]["W"] + 2)
    assert any("Z+2Y != W" in p for p in checks.conservation_problems(c))


def test_diverging_root_is_flagged(real):
    _, outcome = real
    logs = outcome["root_logs"]
    bad = [list(e) for e in logs["0.2"]]
    bad[1][1] = "00" * 32
    problems = checks.outcome_problems(doctored(outcome, root_logs={**logs, "0.2": bad}))
    assert any(p.startswith("shard 0: 0.2") for p in problems)


def test_divergence_after_the_crashed_replica_stopped_is_flagged(real):
    _, outcome = real
    logs = outcome["root_logs"]
    # 1.3 crashed; every live replica of shard 1 committed further heights.
    cut = len(logs["1.3"])
    assert len(logs["1.2"]) > cut
    bad = [list(e) for e in logs["1.2"]]
    bad[cut][1] = "00" * 32
    problems = checks.outcome_problems(doctored(outcome, root_logs={**logs, "1.2": bad}))
    assert any(p.startswith("shard 1: 1.2") for p in problems)


def test_commit_time_and_crashed_prefix_are_not_divergence():
    logs = {
        "0.0": [(1, "aa", 105), (2, "bb", 210)],
        "0.1": [(1, "aa", 107), (2, "bb", 203)],
        "0.2": [(1, "aa", 111)],
    }
    assert checks.root_problems(logs) == []
    logs["0.2"] = [(1, "ab", 111)]
    assert checks.root_problems(logs) != []
    # Two live replicas diverging past the crashed one's last height.
    logs["0.2"] = [(1, "aa", 111)]
    logs["0.3"] = [(1, "aa", 104), (2, "bc", 207)]
    assert checks.root_problems(logs) == ["shard 0: 0.3 has (2, 'bc') where 0.0 has (2, 'bb')"]


def test_report_mismatch_and_exit_code_are_flagged(real):
    _, outcome = real
    rc = dict(outcome["report_counters"], W=0)
    assert checks.outcome_problems(doctored(outcome, report_counters=rc))
    assert checks.outcome_problems(doctored(outcome, exit_code=3)) == ["exit code 3"]


def test_fingerprint_covers_outputs_not_summary(real, tmp_path):
    out, _ = real
    same_out, _ = tiny_run(tmp_path)
    assert checks.fingerprint(out) == checks.fingerprint(same_out)
    with open(os.path.join(same_out, "summary.json"), "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert checks.fingerprint(out) == checks.fingerprint(same_out)
    with open(os.path.join(same_out, "blocks_shard1.jsonl"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert checks.fingerprint(out) != checks.fingerprint(same_out)
    problems = checks.fingerprint_problems([checks.fingerprint(out), checks.fingerprint(same_out)])
    assert problems and "differ" in problems[0]


def _rep(fp="f0", problems=(), run_s=1.0):
    metrics = {"setup_s": 0.1, "run_s": run_s, "report_s": 0.2, "peak_rss_mb": 50.0,
               "rows": 10, "events": 5}
    return {"attempted": 100, "failed": 100 if problems else 0, "problems": list(problems),
            "fingerprint": fp, "metrics": metrics, "references": [0.3, 0.3, 0.3, 0.3],
            "layers": None}


@pytest.mark.parametrize(
    "reps, why, failed",
    [
        ([_rep(), _rep(), _rep()], None, 0),
        ([_rep(), _rep(problems=["Z+Y != X (1+2 != 4)"]), _rep()], "Z+Y != X", 100),
        ([_rep(), _rep(problems=["shard 0: 0.2 has (2, '00')"]), _rep()], "shard 0", 100),
        ([_rep(), _rep(fp="f1"), _rep()], "fingerprints differ", 300),
    ],
)
def test_command_fails_on_doctored_repetitions(monkeypatch, capsys, reps, why, failed):
    queue = list(reps)
    monkeypatch.setattr(bench, "make_dataset", lambda name, seed, path: 100)
    monkeypatch.setattr(bench, "run_rep", lambda *a, **k: queue.pop(0))
    code = bench.main(["--workload", "relay_uniform_8", "--seed", "1", "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 300 and result["failed"] == failed
    if why is None:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in bench.load_spec()["end_to_end"]}
    else:
        assert code == 1 and not result["correct"]
        assert any(why in line for line in lines if "FAILED" in line)


def test_times_are_scaled_by_the_mean_reference_time():
    fast, slow = _rep(run_s=1.0), _rep(run_s=2.0)
    fast["references"] = [0.1, 0.2]
    slow["references"] = [0.3, 0.4]
    got = bench.end_to_end([fast, slow])
    # mean run_s 1.5 s while the reference took 0.25 s on average
    assert got["run_s"] == pytest.approx(1.5 * bench.NOMINAL_S / 0.25)
    assert got["report_s"] == pytest.approx(0.2 * bench.NOMINAL_S / 0.25)
    assert got["rows_per_s"] == pytest.approx(10 / got["run_s"])
    assert got["peak_rss_mb"] == 50.0


def test_command_fails_without_the_emulator(tmp_path):
    """A directory holding only the benchmark must not produce a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clpa_rate_4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


TRACED_TINY = textwrap.dedent(
    """
    import json, sys
    sys.path[:0] = [{bench!r}, {src!r}]
    import layertrace
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    from shardemu import core, mechanisms
    from shardemu.config import parse_config
    from shardemu.harness import Emulation
    emu = Emulation(parse_config({cfg!r}))
    emu.setup()
    result = emu.execute()
    layers, problems = layertrace.layer_metrics(tracer, emu, result.summary, 1)
    print(json.dumps({{"layers": layers, "problems": problems,
                      "patched": core.compute_state_root is mechanisms.compute_state_root
                                 and hasattr(core.compute_state_root, "__wrapped__")}}))
    """
)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    data = tmp_path / "data.csv"
    gen_dataset(str(data), accounts=40, txs=300, skew="uniform", seed=5)
    cfg = {**TINY, "dataset_path": str(data), "output_dir": str(tmp_path / "out")}
    script = TRACED_TINY.format(bench=BENCH, src=os.path.join(ROOT, "src"), cfg=cfg)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["problems"] == [] and got["patched"]
    layers = got["layers"]
    names = {m["name"] for m in bench.load_spec()["per_layer"]}
    # trace.overhead_s needs untraced repetitions and is added by run.py.
    assert set(layers) == names - {"trace.overhead_s"}
    # compute_state_root is reached from mechanisms and from core.verify_block;
    # with only one namespace patched there would be fewer calls than checks.
    assert layers["core.compute_state_root.calls"] > layers["core.verify_block.calls"]
    assert layers["transport.codec.frames"] > 0
    assert 0 < layers["txpool.remove_committed.hit_ratio"] <= 1

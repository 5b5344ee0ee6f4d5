"""End-to-end runs over the simulated transport: wiring, outputs, reruns."""

import json

import pytest

from helpers import cfg_dict
from shardemu.config import ConfigError, MissingKey, parse_config
from shardemu.core import block_from_json, compute_state_root
from shardemu.dataset import gen_dataset
from shardemu.harness import Emulation, report_from_blocks, run
from shardemu.metrics import MetricsLedger


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "transfers.csv"
    gen_dataset(str(path), accounts=40, txs=150, skew="uniform", seed=7)
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out)))
    return run(cfg), out


def _read_chain(out_dir, shard):
    blocks = []
    with open(out_dir / f"blocks_shard{shard}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            blocks.append((obj, block_from_json(obj)))
    return blocks


def test_run_drains_cleanly(tiny_run):
    result, _ = tiny_run
    assert result.exit_code == 0
    counters = result.summary["counters"]
    assert counters["X"] == 150
    assert counters["Z"] + counters["Y"] == counters["X"]
    assert counters["Z"] + 2 * counters["Y"] == counters["W"]
    assert counters["Y"] == counters["U"] == counters["V"]
    assert result.summary["unconfirmed"] == 0
    assert not result.summary["degraded"]
    assert "max_pct_distance" in result.summary["oracle"]


def test_report_files_and_headers(tiny_run):
    _, out = tiny_run
    expect = {
        "tps_epochs.csv": "epoch,start_ms,end_ms,credit,tps",
        "tcl.csv": "tx_hash,kind,inject_ms,confirm_ms,tcl_ms",
        "pool_size.csv": "time_ms,shard,size",
        "workload.csv": "shard,packed_txs,share",
    }
    for name, header in expect.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1, f"{name} has no data rows"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n_shards"] == 2


def _assert_linked(chain):
    """Heights run 1, 2, ... and each block names the one before it."""
    assert [blk.height for _, blk in chain] == list(range(1, len(chain) + 1))
    for (_, parent), (_, child) in zip(chain, chain[1:]):
        assert child.parent_hash == parent.hash


def test_block_files_form_valid_chains(tiny_run):
    result, out = tiny_run
    for shard in (0, 1):
        chain = _read_chain(out, shard)
        assert chain, "every shard committed something"
        _assert_linked(chain)
        confirms = [obj["commit_time"] for obj, _ in chain]
        assert confirms == sorted(confirms)

        # the stored roots are exactly what consensus agreed on
        log = result.replicas[f"{shard}.0"].root_log
        stored = [(blk.height, blk.state_root.hex()) for _, blk in chain]
        agreed = [(h, root) for h, root, _ in log]
        assert stored == agreed


def test_replicas_agree_within_each_shard(tiny_run):
    result, _ = tiny_run
    for shard in (0, 1):
        group = result.shard_replicas(shard)
        assert len(group) == 4
        logs = [r.root_log for r in group]
        assert all(log == logs[0] for log in logs)
        roots = {compute_state_root(r.state) for r in group}
        assert len(roots) == 1, "final states replicate exactly"


def test_pool_and_workload_accounting(tiny_run):
    result, out = tiny_run
    rows = (out / "workload.csv").read_text().splitlines()[1:]
    shares = [float(r.split(",")[2]) for r in rows]
    assert sum(shares) == pytest.approx(1.0)
    packed = sum(int(r.split(",")[1]) for r in rows)
    assert packed == result.summary["counters"]["W"]

    final_pool_rows = (out / "pool_size.csv").read_text().splitlines()[1:]
    last_by_shard = {}
    for row in final_pool_rows:
        _, shard, size = row.split(",")
        last_by_shard[shard] = int(size)
    assert set(last_by_shard.values()) == {0}, "a drained run ends with empty pools"


def test_recomputed_reports_match_run(tiny_run):
    result, out = tiny_run
    recomputed = report_from_blocks(str(out))
    assert recomputed["counters"] == result.summary["counters"]
    assert recomputed["ctx_ratio"] == pytest.approx(result.summary["ctx_ratio"])
    sub = out / "recomputed"
    for name in ("tps_epochs.csv", "tcl.csv", "workload.csv", "summary.json"):
        assert (sub / name).exists()
    original_work = (out / "workload.csv").read_text()
    assert (sub / "workload.csv").read_text() == original_work


def test_report_hands_out_one_object_per_account(tiny_run, monkeypatch):
    _, out = tiny_run
    seen = []
    record = MetricsLedger.record_block

    def spy(self, block, commit_ms, pool_size):
        seen.append(block)
        return record(self, block, commit_ms, pool_size)

    monkeypatch.setattr(MetricsLedger, "record_block", spy)
    report_from_blocks(str(out))
    objects: dict[bytes, set[int]] = {}
    uses = 0
    for block in seen:
        for a in ([a for tx in block.txs for a in (tx.payer, tx.payee)]
                  + [acct.address for acct in block.migration_installs]
                  + block.migration_departures):
            objects.setdefault(a, set()).add(id(a))
            uses += 1
    assert len({b.shard_id for b in seen}) == 2 and uses > 2 * len(objects)
    assert all(len(ids) == 1 for ids in objects.values())


def test_rerun_is_byte_identical(dataset, tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out)))
        assert run(cfg).exit_code == 0
        outputs.append(out)
    first, second = outputs
    for name in (
        "tps_epochs.csv", "tcl.csv", "pool_size.csv", "workload.csv",
        "blocks_shard0.jsonl", "blocks_shard1.jsonl",
    ):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_wall_only_stop_is_not_degraded(dataset, tmp_path):
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(tmp_path / "w"),
        stop={"wall_ms": 2000},
    ))
    result = run(cfg)
    assert result.exit_code == 0
    assert not result.summary["degraded"]


def test_wall_cutting_a_drain_run_short_degrades(dataset, tmp_path):
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(tmp_path / "cut"),
        stop={"drain": True, "wall_ms": 300},
    ))
    result = run(cfg)
    assert result.exit_code == 3
    assert result.summary["degraded"]
    assert any("wall stop" in n for n in result.summary["notes"])
    assert result.summary["unconfirmed"] > 0


def test_rate_injection_run_drains(dataset, tmp_path):
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(tmp_path / "rate"),
        injection={"base_rate": 200, "batch_interval_ms": 100},
    ))
    result = run(cfg)
    assert result.exit_code == 0
    assert result.summary["counters"]["X"] == 150
    assert result.summary["unconfirmed"] == 0


def _tcl_by_hash(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return {
            row[0]: (row[2], row[3]) for row in (line.rstrip("\n").split(",") for line in fh)
        }


def _clpa_cfg(dataset, output_dir, latency_ms=5):
    """A two-shard CLPA run with live injection that migrates accounts."""
    return parse_config(cfg_dict(
        dataset_path=str(dataset), output_dir=output_dir,
        block_size=50, block_interval_ms=100, epoch_ms=200, partition="clpa",
        injection={"base_rate": 600, "batch_interval_ms": 50},
        transport={"sim": {"latency_ms": latency_ms, "seed": 0}},
    ))


def test_recomputed_latencies_match_live_under_migration(tmp_path):
    """Block files carry the supervisor's injection stamp, so latencies
    rebuilt from them equal the live ones, re-forwarded entries included."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    out = tmp_path / "clpa"
    assert run(_clpa_cfg(dataset, str(out))).exit_code == 0
    migrations = sum(
        1 for k in (0, 1) for obj, _ in _read_chain(out, k) if obj["block_kind"] == "migration"
    )
    assert migrations > 0, "the run must migrate accounts to exercise re-forwarding"
    report_from_blocks(str(out))
    live = _tcl_by_hash(out / "tcl.csv")
    rebuilt = _tcl_by_hash(out / "recomputed" / "tcl.csv")
    assert len(live) == 1500
    assert rebuilt == live


def test_recomputed_latencies_match_live_under_jitter_and_crash(tmp_path):
    """Replicas commit a block at different times under jitter; the block
    files carry the commit time the live ledger counted, so the rebuilt
    latencies equal the live ones, across a crashed replica too."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="uniform", seed=3)
    out = tmp_path / "jitter"
    cfg = parse_config(cfg_dict(
        dataset_path=str(dataset), output_dir=str(out), block_size=50,
        transport={"sim": {"latency_ms": [1, 20], "seed": 0}},
        faults=[{"kind": "crash", "node": "0.0", "at_ms": 300}],
    ))
    assert run(cfg).exit_code == 0
    report_from_blocks(str(out))
    live = _tcl_by_hash(out / "tcl.csv")
    assert len(live) == 1500
    assert _tcl_by_hash(out / "recomputed" / "tcl.csv") == live
    for shard in (0, 1):
        _assert_linked(_read_chain(out, shard))


def test_wall_stopped_run_keeps_every_counted_block(tmp_path):
    """Views churn and one replica falls behind its shard; the block files
    still hold every block the live counters saw."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=2000, skew="uniform", seed=3)
    out = tmp_path / "wall"
    cfg = parse_config(cfg_dict(
        dataset_path=str(dataset), output_dir=str(out), block_size=50,
        pbft_view_change_timeout_ms=150,
        transport={"sim": {"latency_ms": [1, 400], "seed": 3}},
        stop={"drain": True, "wall_ms": 60000},
    ))
    result = run(cfg)
    assert any("wall stop" in n for n in result.summary["notes"])
    live = result.summary["counters"]
    rebuilt = report_from_blocks(str(out))["counters"]
    assert {k: rebuilt[k] for k in "ZYUVW"} == {k: live[k] for k in "ZYUVW"}


def test_exit_does_not_depend_on_output_dir(tmp_path):
    """Jittered delivery leaves this migrating run with unconfirmed
    originals; it ends the same way whether or not it writes reports."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    outcomes = []
    for out_dir in (None, str(tmp_path / "clpa")):
        result = run(_clpa_cfg(dataset, out_dir, latency_ms=[1, 5]))
        outcomes.append((result.exit_code, result.summary["unconfirmed"]))
    assert outcomes[0] == outcomes[1]


def test_crashed_writer_is_replaced_on_disk(dataset, tmp_path):
    out = tmp_path / "crash"
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(out),
        faults=[{"kind": "crash", "node": "0.0", "at_ms": 0}],
    ))
    result = run(cfg)
    assert result.exit_code == 0
    chain = _read_chain(out, 0)
    assert chain, "the stand-in writer kept the chain"
    live_log = result.replicas["0.1"].root_log
    assert [(b.height, b.state_root.hex()) for _, b in chain] == \
        [(h, root) for h, root, _ in live_log]


def test_setup_execute_are_separable(dataset):
    cfg = parse_config(cfg_dict(dataset_path=dataset))
    emu = Emulation(cfg)
    emu.setup()
    pools = [len(r.pool) for r in emu.replicas.values() if r.shard_id == 0]
    assert len(set(pools)) == 1 and pools[0] > 0, "prefill replicates per shard"
    result = emu.execute()
    assert result.exit_code == 0
    assert result.out_dir is None, "no output_dir means no files, still a result"
    with pytest.raises(AssertionError):
        emu.execute()


def test_emulation_rejects_wrong_transport_or_missing_dataset(dataset):
    with pytest.raises(MissingKey):
        Emulation(parse_config(cfg_dict()))
    tcp_cfg = parse_config(cfg_dict(
        dataset_path=dataset, transport={"tcp": {"ip_table": "x.json"}},
    ))
    with pytest.raises(ConfigError):
        Emulation(tcp_cfg)

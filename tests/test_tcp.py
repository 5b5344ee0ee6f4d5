"""Whole-run smoke test over real loopback TCP."""

import json

from helpers import cfg_dict, free_ports
from shardemu.config import parse_config
from shardemu.dataset import gen_dataset
from shardemu.harness import report_from_blocks, run
from shardemu.transport import SUPERVISOR_ID, node_id


def test_single_shard_run_over_loopback(tmp_path):
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=30, txs=80, skew="uniform", seed=4)

    nids = [SUPERVISOR_ID] + [node_id(0, i) for i in range(4)]
    table = {nid: f"127.0.0.1:{port}" for nid, port in zip(nids, free_ports(len(nids)))}
    ip_table = tmp_path / "ip_table.json"
    ip_table.write_text(json.dumps(table))

    out = tmp_path / "run"
    cfg = parse_config(cfg_dict(
        n_shards=1,
        block_size=25,
        dataset_path=str(dataset),
        output_dir=str(out),
        transport={"tcp": {"ip_table": str(ip_table)}},
    ))
    result = run(cfg)

    assert result.exit_code == 0
    counters = result.summary["counters"]
    assert counters["X"] == 80
    # one shard: nothing splits, every original commits whole
    assert counters == {"X": 80, "Y": 0, "Z": 80, "U": 0, "V": 0, "W": 80}
    assert result.summary["unconfirmed"] == 0
    assert not result.summary["degraded"]
    assert (out / "summary.json").exists()
    assert (out / "tcl.csv").read_text().count("\n") == 81
    # the block files alone rebuild the same counters
    assert report_from_blocks(str(out))["counters"] == counters


def test_two_shard_relay_run_over_loopback(tmp_path):
    # Every replica decodes each block from a frame, so every follower
    # builds its own credit halves at commit.
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=60, txs=200, skew="uniform", seed=4)

    nids = [SUPERVISOR_ID] + [node_id(k, i) for k in range(2) for i in range(4)]
    table = {nid: f"127.0.0.1:{port}" for nid, port in zip(nids, free_ports(len(nids)))}
    ip_table = tmp_path / "ip_table.json"
    ip_table.write_text(json.dumps(table))

    out = tmp_path / "run"
    cfg = parse_config(cfg_dict(
        block_size=25,
        dataset_path=str(dataset),
        output_dir=str(out),
        transport={"tcp": {"ip_table": str(ip_table)}},
    ))
    result = run(cfg)

    assert result.exit_code == 0
    counters = result.summary["counters"]
    assert counters == {"X": 200, "Y": 105, "Z": 95, "U": 105, "V": 105, "W": 305}
    assert result.summary["unconfirmed"] == 0
    for shard in range(2):
        replicas = result.shard_replicas(shard)
        assert len({tuple((h, root) for h, root, _ in r.root_log) for r in replicas}) == 1
        heads = [r.head for r in replicas]
        assert len({id(b) for b in heads}) == 4 and len({b.hash for b in heads}) == 1
        assert all(b.halves is not None for b in heads)
    assert report_from_blocks(str(out))["counters"] == counters

"""The TCP backend: broadcast order against the sim's, and whole runs over real loopback TCP.

Over TCP every replica decodes each transaction list and block it receives
from a frame (``core.txs_from_json``, ``core.block_from_json``); the node
threads share one process, so the runs end with the final-state check over
the replicas' own states, and with the check that the replicas of each
shard, one thread each, share one relay-dedupe record whose bits are the
credit halves each queued."""

import json

from helpers import CreditIntake, cfg_dict, free_ports, relay_record_problems
from shardemu.checks import final_state_problems
from shardemu.config import parse_config
from shardemu.dataset import gen_dataset, load_dataset
from shardemu.harness import _TcpNodeDriver, report_from_blocks, run
from shardemu.transport import SUPERVISOR_ID, Envelope, SimNetwork, Stop, node_id, shard_of


class _Wire:
    """Stands in for a driver's mesh and inbox; logs each recipient."""

    def __init__(self, nid):
        self.nid = nid
        self.to = []

    def send(self, to, env):
        self.to.append(to)

    def put(self, env):
        self.to.append(self.nid)


def test_both_backends_fan_out_to_the_same_ids_in_the_same_order():
    members = {k: [node_id(k, i) for i in range(3)] for k in range(2)}
    nids = [SUPERVISOR_ID, *members[0], *members[1]]
    sender = "1.1"
    broadcasts = [
        lambda net: net.broadcast_shard(1, Envelope("stop", sender, Stop())),
        lambda net: net.broadcast_shard(1, Envelope("stop", sender, Stop()), include_self=True),
        lambda net: net.broadcast_shard(0, Envelope("stop", sender, Stop())),
        lambda net: net.broadcast_all(Envelope("stop", sender, Stop())),
    ]

    sim = SimNetwork(latency_ms=1)
    for nid in nids:
        sim.register(nid, None, shard=shard_of(nid))
    driver = _TcpNodeDriver(sender, {nid: "127.0.0.1:0" for nid in nids}, members, t0=0.0)
    driver.mesh = driver.inbox = wire = _Wire(sender)
    sim_to, tcp_to = [], []
    for broadcast in broadcasts:
        broadcast(sim)
        sim_to.append([target for _, _, _, target, _ in sorted(sim._heap)])
        sim._heap.clear()
        broadcast(driver)
        tcp_to.append(wire.to)
        wire.to = []

    assert tcp_to == sim_to == [
        ["1.0", "1.2"],
        ["1.0", "1.1", "1.2"],
        ["0.0", "0.1", "0.2"],
        [SUPERVISOR_ID, "0.0", "0.1", "0.2", "1.0", "1.2"],
    ]


def _state_problems(result, cfg):
    rows = load_dataset(cfg.dataset_path, cfg.dataset_limit)
    return final_state_problems(rows, result.replicas.values(), result.supervisor.pmap.brokers)


def test_single_shard_run_over_loopback(tmp_path, monkeypatch):
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
    intake = CreditIntake(monkeypatch)
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
    assert _state_problems(result, cfg) == []
    assert relay_record_problems(result.replicas.values(), intake) == []


def test_two_shard_relay_run_over_loopback(tmp_path, monkeypatch):
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
    intake = CreditIntake(monkeypatch)
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
    assert _state_problems(result, cfg) == []
    assert relay_record_problems(result.replicas.values(), intake) == []

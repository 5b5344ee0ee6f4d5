"""The TCP loop: its own send routing and handler errors, and whole runs over real loopback TCP.

Over TCP every replica decodes each transaction list and block it receives
from a frame (``core.txs_from_json``, ``core.block_from_json``); the nodes
share one process and one thread, so the runs end with the final-state
check over the replicas' own states, and with the check that the replicas
of each shard share one relay-dedupe record whose bits are the credit
halves each queued."""

import json
import threading
import time

from helpers import CreditIntake, cfg_dict, free_ports, relay_record_problems
from shardemu.checks import final_state_problems
from shardemu.config import parse_config
from shardemu.dataset import gen_dataset, load_dataset
from shardemu.harness import report_from_blocks, run
from shardemu.pbft import Replica
from shardemu.supervisor import Supervisor
from shardemu.transport import SUPERVISOR_ID, Envelope, Stop, TcpLoop, node_id, shard_of


class _Mesh:
    """Stands in for a node's mesh; logs each recipient."""

    def __init__(self):
        self.to = []

    def send(self, to, env):
        self.to.append(to)


def test_the_loop_keeps_a_send_to_self_and_meshes_every_other_send():
    """A node's envelope to itself goes onto the loop's heap, due at once;
    any other goes out through the sender's own mesh, broadcasts in
    registration order. No socket is opened."""
    loop = TcpLoop()
    for nid in [SUPERVISOR_ID, *(node_id(k, i) for k in range(2) for i in range(3))]:
        loop.register(nid, None, shard=shard_of(nid))
    loop.meshes = {nid: _Mesh() for nid in loop.peers}
    loop.now = 7
    loop.broadcast_shard(1, Envelope("stop", "1.1", Stop()), include_self=True)
    loop.broadcast_all(Envelope("stop", "1.1", Stop()))
    loop.send(SUPERVISOR_ID, Envelope("stop", "0.0", Stop()))

    assert [(at, target) for at, _, _, target, _ in loop._heap] == [(7, "1.1")]
    assert loop.inbox.empty()
    assert {nid: mesh.to for nid, mesh in loop.meshes.items() if mesh.to} == {
        "1.1": ["1.0", "1.2", SUPERVISOR_ID, "0.0", "0.1", "0.2", "1.0", "1.2"],
        "0.0": [SUPERVISOR_ID],
    }


class _Node:
    """A node of a socket-free loop. It arms ``timers`` ({tag: delay}) at
    start, logs each input with its ``now``, stops at its first input and
    fails on each input whose message type or timer tag is in ``fail``."""

    def __init__(self, loop, nid, timers=(), fail=()):
        self.loop, self.nid, self.timers, self.fail = loop, nid, dict(timers), fail
        self.stopped = False
        self.got = []
        loop.register(nid, self, shard=shard_of(nid))

    def on_start(self, now):
        self.got.append(("start", now))
        for tag, delay in self.timers.items():
            self.loop.schedule(self.nid, now + delay, tag)

    def _take(self, what, now):
        self.got.append((what, now))
        self.stopped = True
        if what in self.fail:
            raise RuntimeError(f"{self.nid} fails on {what}")

    def on_timer(self, tag, data, now):
        self._take(tag, now)

    def on_envelope(self, env, now):
        self._take(env.msg_type, now)


def test_a_failing_handler_is_logged_and_the_loop_goes_on(caplog):
    """Over TCP a handler's error is logged, naming the node and the
    message type or timer tag, and the other nodes run on: a later timer
    still fires, and gets its due time as ``now``."""
    loop = TcpLoop()
    bad_msg = _Node(loop, "0.0", fail={"stop"})
    bad_timer = _Node(loop, "0.1", timers={"boom": 0}, fail={"boom"})
    good = _Node(loop, "0.2", timers={"tick": 30})
    loop.inbox.put(("0.0", Envelope("stop", SUPERVISOR_ID, Stop())))
    with caplog.at_level("ERROR", logger="shardemu.transport"):
        assert loop.serve(time.monotonic() + 10) == []

    assert sorted(r.getMessage() for r in caplog.records) == [
        "0.0 failed handling stop", "0.1 failed handling timer boom"]
    assert all(r.exc_info for r in caplog.records)
    assert [what for what, _ in bad_msg.got + bad_timer.got] == ["start", "stop", "start", "boom"]
    (_, start), (tag, now) = good.got
    assert tag == "tick" and now == start + 30


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
    # builds and routes its own credit halves at commit. Every envelope and
    # timer of every node is handled on the one thread that called ``run``.
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
    idents = set()
    for cls in (Replica, Supervisor):
        for name in ("on_envelope", "on_timer"):
            def recorded(*args, _handler=getattr(cls, name)):
                idents.add(threading.get_ident())
                return _handler(*args)

            monkeypatch.setattr(cls, name, recorded)
    threads_before = threading.active_count()
    result = run(cfg)

    assert threading.active_count() == threads_before, "the run left a thread behind"
    assert idents == {threading.get_ident()}
    assert result.exit_code == 0
    counters = result.summary["counters"]
    assert counters == {"X": 200, "Y": 105, "Z": 95, "U": 105, "V": 105, "W": 305}
    assert result.summary["unconfirmed"] == 0
    for shard in range(2):
        replicas = result.shard_replicas(shard)
        assert len({tuple((h, root) for h, root, _ in r.root_log) for r in replicas}) == 1
        heads = [r.head for r in replicas]
        assert len({id(b) for b in heads}) == 4 and len({b.hash for b in heads}) == 1
        assert all(b.relays is not None and b.relays[0] is r.pmap
                   for b, r in zip(heads, replicas))
    assert report_from_blocks(str(out))["counters"] == counters
    assert _state_problems(result, cfg) == []
    assert relay_record_problems(result.replicas.values(), intake) == []

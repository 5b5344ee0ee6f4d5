"""Wire codec and both network backends."""

import json
import threading
import time
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import addr, free_ports, regular_tx
from shardemu.core import (
    AccountState,
    Block,
    BlockKind,
    PartitionMap,
    genesis_block,
    make_transaction,
    TxKind,
)
from shardemu import transport
from shardemu.mechanisms import relay_split
from shardemu.transport import (
    AccountMigrate,
    BadJson,
    BlockInfo,
    Commit,
    Envelope,
    FrameTooShort,
    InjectTxs,
    MigratedAccount,
    NewView,
    PartitionResult,
    Prepare,
    PrePrepare,
    RelayCtx,
    SimNetwork,
    Stop,
    TcpMesh,
    UnknownPeer,
    UnknownType,
    ViewChange,
    decode_frame,
    encode_frame,
    node_id,
    shard_of,
)

A = addr("wa", shard=0)
B = addr("wb", shard=1)
C = addr("wc", shard=0)


def test_node_ids():
    assert node_id(3, 1) == "3.1"
    assert shard_of("3.1") == 3
    assert shard_of("supervisor") is None


def _round_trip(env: Envelope) -> Envelope:
    return decode_frame(encode_frame(env))


def _relay_block() -> Block:
    """Shard 0's view of two split transfers: one debit half leaving,
    one credit half arriving, next to a whole transfer."""
    out = make_transaction(A, B, 6, 0, kind=TxKind.ORIGINAL_CTX, inject_time=20)
    inbound = make_transaction(B, A, 2, 1, kind=TxKind.ORIGINAL_CTX, inject_time=30)
    two = PartitionMap(n_shards=2)
    debit, _ = relay_split(out, two)
    _, credit = relay_split(inbound, two)
    return Block(
        shard_id=0, height=5, parent_hash=b"\x01" * 32, state_root=b"\x02" * 32,
        proposer="0.1", block_kind=BlockKind.TX,
        txs=[regular_tx(A, C, 3), debit, credit], timestamp=400,
    )


def _migration_block() -> Block:
    return Block(
        shard_id=1, height=9, parent_hash=b"\x03" * 32, state_root=b"\x04" * 32,
        proposer="1.2", block_kind=BlockKind.MIGRATION,
        migration_installs=[AccountState(A, balance=-3, nonce=5)],
        migration_departures=[B], timestamp=700,
    )


@pytest.mark.parametrize(
    "env",
    [
        Envelope("inject_txs", "supervisor", InjectTxs(txs=[regular_tx(A, B, 5)])),
        Envelope("prepare", "0.1", Prepare(height=4, view=0, block_hash=b"\x07" * 32)),
        Envelope("commit", "0.2", Commit(height=4, view=1, block_hash=b"\x08" * 32)),
        Envelope("view_change", "0.3", ViewChange(new_view=2, height=9)),
        Envelope("new_view", "0.2", NewView(new_view=2, height=9)),
        Envelope(
            "relay_ctx",
            "0.0",
            RelayCtx(
                source_shard=0,
                txs=[
                    make_transaction(
                        A, B, 2, 0, kind=TxKind.INTER_RELAY, origin_hash=b"\x01" * 32
                    )
                ],
            ),
        ),
        Envelope(
            "partition_result",
            "supervisor",
            PartitionResult(version=2, overrides={A: 1, B: 0}, brokers=[A]),
        ),
        Envelope(
            "account_migrate",
            "0.0",
            AccountMigrate(
                version=2,
                accounts=[
                    MigratedAccount(
                        state=AccountState(A, balance=-3, nonce=5),
                        pending_txs=[regular_tx(A, B, 1)],
                    )
                ],
            ),
        ),
        Envelope("block_info", "0.1", BlockInfo(_relay_block(), 750, pool_size=3, version=2)),
        Envelope("stop", "supervisor", Stop()),
        Envelope("block_info", "1.2", BlockInfo(_migration_block(), 800, pool_size=0, version=2)),
    ],
)
def test_codec_round_trip(env):
    back = _round_trip(env)
    assert back.msg_type == env.msg_type
    assert back.sender == env.sender
    assert back.body == env.body


def test_codec_preprepare_block():
    head = genesis_block(0)
    block = Block(
        shard_id=0, height=1, parent_hash=head.hash, state_root=b"\x03" * 32,
        proposer="0.0", block_kind=BlockKind.TX,
        txs=[regular_tx(A, B, v + 1, nonce=v) for v in range(5)], timestamp=50,
    )
    back = _round_trip(Envelope("preprepare", "0.0", PrePrepare(block=block)))
    assert back.body.block.hash == block.hash


@pytest.mark.parametrize("tamper", [
    lambda blk: blk.update(timestamp=blk["timestamp"] + 1),
    lambda blk: blk["txs"].pop(),
], ids=["timestamp", "dropped_tx"])
def test_codec_block_info_rejects_a_block_off_its_hash(tamper):
    frame = encode_frame(Envelope("block_info", "0.1", BlockInfo(_relay_block(), 750, 3, 2)))
    obj = json.loads(frame[4:])
    tamper(obj["body"]["block"])
    payload = json.dumps(obj).encode("utf-8")
    with pytest.raises(BadJson):
        decode_frame(len(payload).to_bytes(4, "big") + payload)


@pytest.mark.parametrize("inject_time", ["soon", True, 2.5])
def test_codec_block_info_rejects_a_non_integer_inject_time(inject_time):
    # inject_time is outside the transaction hash, so only its type guards it.
    frame = encode_frame(Envelope("block_info", "0.1", BlockInfo(_relay_block(), 750, 3, 2)))
    obj = json.loads(frame[4:])
    obj["body"]["block"]["txs"][0]["inject_time"] = inject_time
    payload = json.dumps(obj).encode("utf-8")
    with pytest.raises(BadJson):
        decode_frame(len(payload).to_bytes(4, "big") + payload)


def _reframe(frame: bytes, edit) -> bytes:
    obj = json.loads(frame[4:])
    edit(obj["body"])
    payload = json.dumps(obj).encode("utf-8")
    return len(payload).to_bytes(4, "big") + payload


@pytest.mark.parametrize("env, edit", [
    (Envelope("block_info", "0.1", BlockInfo(_relay_block(), 750, 3, 2)),
     lambda body: body.update(commit_time="soon", pool_size=[1])),
    (Envelope("block_info", "0.1", BlockInfo(_relay_block(), 750, 3, 2)),
     lambda body: body.update(commit_time=None)),
    (Envelope("block_info", "0.1", BlockInfo(_relay_block(), 750, 3, 2)),
     lambda body: body.update(version=2.0)),
    (Envelope("prepare", "0.1", Prepare(height=3, view=0, block_hash=b"\x07" * 32)),
     lambda body: body.update(height="3")),
    (Envelope("commit", "0.2", Commit(height=3, view=1, block_hash=b"\x08" * 32)),
     lambda body: body.update(view=True)),
    (Envelope("view_change", "0.3", ViewChange(new_view=2, height=9)),
     lambda body: body.update(new_view=2.5)),
    (Envelope("relay_ctx", "0.0", RelayCtx(source_shard=0, txs=[])),
     lambda body: body.update(source_shard="0")),
    (Envelope("partition_result", "supervisor",
              PartitionResult(version=2, overrides={A: 1}, brokers=[])),
     lambda body: body["overrides"].update({k: "1" for k in body["overrides"]})),
    (Envelope("account_migrate", "0.0", AccountMigrate(version=2, accounts=[])),
     lambda body: body.update(version=None)),
], ids=["block_info", "null_commit_time", "float_version", "prepare", "bool_view",
        "float_view", "text_shard", "text_override", "null_version"])
def test_codec_refuses_a_plain_field_of_the_wrong_type(env, edit):
    frame = encode_frame(env)
    assert decode_frame(frame).body == env.body
    with pytest.raises(BadJson):
        decode_frame(_reframe(frame, edit))


@dataclass
class _Scalars:
    count: int
    label: str
    limit: Optional[int]


def test_plain_fields_decode_only_as_annotated():
    encode, decode = transport._record(_Scalars)
    good = {"count": 1, "label": "x", "limit": None}
    assert encode(_Scalars(1, "x", None)) == good
    assert decode(good) == _Scalars(1, "x", None)
    assert decode({**good, "limit": 5}).limit == 5
    for field, raw in [("count", None), ("count", True), ("count", 1.0), ("label", 1),
                       ("label", None), ("limit", "5"), ("limit", False)]:
        with pytest.raises(ValueError, match=field):
            decode({**good, field: raw})


@pytest.mark.parametrize("field, raw", [
    ("value", "1_0"), ("value", " 10"), ("nonce", 3.9), ("nonce", "3"), ("fee", True),
])
def test_codec_refuses_coerced_transaction_numbers(field, raw):
    tx = make_transaction(A, B, 10, 3, kind=TxKind.REGULAR)
    frame = encode_frame(Envelope("inject_txs", "supervisor", InjectTxs(txs=[tx])))
    assert decode_frame(frame).body.txs == [tx]
    with pytest.raises(BadJson):
        decode_frame(_reframe(frame, lambda body: body["txs"][0].update({field: raw})))


def test_codec_large_frame():
    txs = [regular_tx(A, B, 1, nonce=n) for n in range(2000)]
    env = Envelope("inject_txs", "supervisor", InjectTxs(txs=txs))
    frame = encode_frame(env)
    assert len(frame) > (1 << 16), "payload must exceed a 16-bit length"
    back = decode_frame(frame)
    assert len(back.body.txs) == 2000
    assert back.body.txs[-1].hash == txs[-1].hash


def test_frame_layout():
    frame = encode_frame(Envelope("stop", "supervisor", Stop()))
    size = int.from_bytes(frame[:4], "big")
    assert size == len(frame) - 4
    assert frame[4:].decode("utf-8").startswith('{"type":"stop"')


def test_decode_too_short():
    with pytest.raises(FrameTooShort):
        decode_frame(b"\x00\x00")
    whole = encode_frame(Envelope("stop", "supervisor", Stop()))
    with pytest.raises(FrameTooShort):
        decode_frame(whole[:-1])


def test_decode_bad_json():
    payload = b"this is not json"
    with pytest.raises(BadJson):
        decode_frame(len(payload).to_bytes(4, "big") + payload)
    # valid JSON, wrong envelope shape
    payload = b'{"type": "stop"}'
    with pytest.raises(BadJson):
        decode_frame(len(payload).to_bytes(4, "big") + payload)
    # non-UTF8 payload
    payload = b"\xff\xfe\x00"
    with pytest.raises(BadJson):
        decode_frame(len(payload).to_bytes(4, "big") + payload)
    # known type, body that does not fit it
    for body in (b"{}", b"[]", b'{"height": 1, "view": 0, "block_hash": "zz"}'):
        payload = b'{"type": "prepare", "sender": "0.1", "body": ' + body + b"}"
        with pytest.raises(BadJson):
            decode_frame(len(payload).to_bytes(4, "big") + payload)


def test_unknown_type_both_directions():
    with pytest.raises(UnknownType):
        encode_frame(Envelope("gossip", "0.0", Stop()))
    payload = b'{"type": "gossip", "sender": "0.0", "body": {}}'
    with pytest.raises(UnknownType):
        decode_frame(len(payload).to_bytes(4, "big") + payload)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 10), st.binary(min_size=32, max_size=32))
def test_codec_prepare_property(height, view, block_hash):
    env = Envelope("prepare", "1.3", Prepare(height, view, block_hash))
    assert _round_trip(env).body == env.body


# --- simulated backend ---


class Recorder:
    def __init__(self):
        self.events = []

    def on_envelope(self, env, now):
        self.events.append((now, "msg", env.msg_type, env.sender))

    def on_timer(self, tag, data, now):
        self.events.append((now, "timer", tag, data))


def test_sim_fixed_latency_and_order():
    net = SimNetwork(latency_ms=5, seed=0)
    r = Recorder()
    net.register("0.0", r, shard=0)
    net.register("0.1", Recorder(), shard=0)
    net.send("0.0", Envelope("stop", "0.1", Stop()))
    net.schedule("0.0", 3, "tick", 1)
    net.schedule("0.0", 3, "tick", 2)
    net.run()
    # same-time events fire in scheduling order; message lands at now+latency
    assert r.events == [(3, "timer", "tick", 1), (3, "timer", "tick", 2),
                        (5, "msg", "stop", "0.1")]
    assert net.now == 5 and net.delivered == 1


def test_sim_latency_range_is_seed_deterministic():
    def trace(seed):
        net = SimNetwork(latency_ms=(1, 50), seed=seed)
        r = Recorder()
        net.register("0.0", r)
        net.register("0.1", Recorder())
        for _ in range(10):
            net.send("0.0", Envelope("stop", "0.1", Stop()))
        net.run()
        return [t for t, *_ in r.events]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)
    assert all(1 <= t <= 50 for t in trace(7))


def test_sim_latency_range_inverted_rejected():
    with pytest.raises(ValueError):
        SimNetwork(latency_ms=(9, 3))


def test_sim_unknown_peer():
    net = SimNetwork()
    with pytest.raises(UnknownPeer):
        net.send("9.9", Envelope("stop", "0.0", Stop()))


def test_sim_broadcast_semantics():
    net = SimNetwork(latency_ms=1)
    members = {nid: Recorder() for nid in ("0.0", "0.1", "0.2")}
    for nid, rec in members.items():
        net.register(nid, rec, shard=0)
    outsider = Recorder()
    net.register("sink", outsider)
    net.broadcast_shard(0, Envelope("stop", "0.0", Stop()))
    net.run()
    assert not members["0.0"].events, "sender excluded by default"
    assert members["0.1"].events and members["0.2"].events
    assert not outsider.events
    net.broadcast_shard(0, Envelope("stop", "0.0", Stop()), include_self=True)
    net.run()
    assert members["0.0"].events
    net.broadcast_all(Envelope("stop", "0.0", Stop()))
    net.run()
    assert outsider.events


def test_sim_crash_silences_both_directions():
    net = SimNetwork(latency_ms=1)
    alive, doomed = Recorder(), Recorder()
    net.register("0.0", alive, shard=0)
    net.register("0.1", doomed, shard=0)
    net.schedule_crash("0.1", 5)
    net.send("0.1", Envelope("stop", "0.0", Stop()))  # delivered at 1, before crash
    net.run()
    assert doomed.events
    doomed.events.clear()
    net.send("0.1", Envelope("stop", "0.0", Stop()))  # post-crash delivery dropped
    net.send("0.0", Envelope("stop", "0.1", Stop()))  # crashed sender muted
    net.run()
    assert not doomed.events
    assert not alive.events


def test_sim_schedule_clamps_to_now():
    net = SimNetwork(latency_ms=1)
    r = Recorder()
    net.register("0.0", r)
    net.schedule("0.0", 10, "later", None)
    net.step()
    net.schedule("0.0", 2, "stale", None)  # in the past; must not rewind the clock
    net.step()
    assert [t for t, *_ in r.events] == [10, 10]


# --- TCP backend ---


def test_tcp_mesh_round_trip():
    port_a, port_b = free_ports(2)
    table = {"0.0": f"127.0.0.1:{port_a}", "0.1": f"127.0.0.1:{port_b}"}
    got = []
    done = threading.Event()

    def receive(env):
        got.append(env)
        done.set()

    mesh_a = TcpMesh("0.0", table, lambda env: None)
    mesh_b = TcpMesh("0.1", table, receive)
    try:
        mesh_a.send("0.1", Envelope("commit", "0.0", Commit(3, 0, b"\x01" * 32)))
        assert done.wait(5.0), "frame never arrived"
        assert got[0].msg_type == "commit" and got[0].body.height == 3
        with pytest.raises(UnknownPeer):
            mesh_a.send("9.9", Envelope("stop", "0.0", Stop()))
    finally:
        mesh_a.close()
        mesh_b.close()


def test_tcp_mesh_keeps_connection_and_order():
    port_a, port_b = free_ports(2)
    table = {"0.0": f"127.0.0.1:{port_a}", "0.1": f"127.0.0.1:{port_b}"}
    got = []
    lock = threading.Lock()

    def receive(env):
        with lock:
            got.append(env.body.height)

    mesh_a = TcpMesh("0.0", table, lambda env: None)
    mesh_b = TcpMesh("0.1", table, receive)
    try:
        for h in range(20):
            mesh_a.send("0.1", Envelope("commit", "0.0", Commit(h, 0, b"\x02" * 32)))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with lock:
                if len(got) == 20:
                    break
            time.sleep(0.01)
        assert got == list(range(20)), "single-connection FIFO order violated"
    finally:
        mesh_a.close()
        mesh_b.close()


def test_tcp_mesh_close_closes_accepted_sockets():
    port_a, port_b = free_ports(2)
    table = {"0.0": f"127.0.0.1:{port_a}", "0.1": f"127.0.0.1:{port_b}"}
    done = threading.Event()
    mesh_a = TcpMesh("0.0", table, lambda env: None)
    mesh_b = TcpMesh("0.1", table, lambda env: done.set())
    try:
        mesh_a.send("0.1", Envelope("commit", "0.0", Commit(1, 0, b"\x03" * 32)))
        assert done.wait(5.0), "frame never arrived"
        accepted = list(mesh_b._in)
        assert len(accepted) == 1
        mesh_b.close()  # the peer still holds its end open
        assert all(conn.fileno() == -1 for conn in accepted)
        assert not mesh_b._in
    finally:
        mesh_a.close()
        mesh_b.close()


def test_tcp_mesh_requires_own_entry():
    with pytest.raises(UnknownPeer):
        TcpMesh("0.5", {"0.0": "127.0.0.1:1"}, lambda env: None)

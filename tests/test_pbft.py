"""Consensus: three-phase happy path, vote bookkeeping, view changes, faults."""

import logging

import pytest

from helpers import addr, attach_sink, build_shard, regular_tx
from shardemu import core, mechanisms
from shardemu.core import (
    Block,
    BlockKind,
    PartitionMap,
    StateTree,
    apply_txs,
    compute_state_root,
    genesis_block,
    replace_tx_list,
)
from shardemu.mechanisms import RelayMechanism
from shardemu.pbft import Phase, Replica
from shardemu.transport import (
    Commit,
    Envelope,
    NewView,
    Prepare,
    PrePrepare,
    SimNetwork,
    Stop,
    ViewChange,
)
from shardemu.txpool import TxPool

A = addr("pb-a")
B = addr("pb-b")
ONE_SHARD = PartitionMap(n_shards=1)


def _local_txs(n):
    return [regular_tx(A, B, value=i + 1, nonce=i) for i in range(n)]


def _prefill(replicas, txs):
    for replica in replicas.values():
        replica.pool.preload(replace_tx_list(txs))


class FakeNet:
    """Synchronous capture of everything a lone replica emits."""

    def __init__(self):
        self.sent = []
        self.broadcasts = []
        self.timers = []

    def send(self, to, env):
        self.sent.append((to, env))

    def broadcast_shard(self, shard, env, include_self=False):
        self.broadcasts.append(env)

    def broadcast_all(self, env):
        self.broadcasts.append(env)

    def schedule(self, nid, at, tag, data=None):
        self.timers.append((at, tag))

    def types_broadcast(self):
        return [env.msg_type for env in self.broadcasts]


def _lone_follower(index=3, n=4):
    net = FakeNet()
    replica = Replica(
        shard_id=0, index=index, n_nodes=n, theta=10, block_interval_ms=100,
        vc_timeout_ms=1000, pool=TxPool(0), pmap=ONE_SHARD,
        hooks=RelayMechanism(), net=net,
    )
    return replica, net


def _honest_block(height=1, parent=None, txs=None, proposer="0.0", pre_state=None):
    pre_state = pre_state if pre_state is not None else StateTree()
    txs = txs if txs is not None else _local_txs(2)
    parent = parent if parent is not None else genesis_block(0)
    applied = apply_txs(pre_state, txs)
    return Block(
        shard_id=0, height=height, parent_hash=parent.hash,
        state_root=compute_state_root(applied), proposer=proposer,
        block_kind=BlockKind.TX, txs=txs, timestamp=10,
    )


def test_quorum_arithmetic():
    for n, f in ((4, 1), (7, 2), (10, 3)):
        replica = Replica(
            shard_id=0, index=0, n_nodes=n, theta=1, block_interval_ms=100,
            vc_timeout_ms=1000, pool=TxPool(0), pmap=ONE_SHARD,
            hooks=RelayMechanism(), net=FakeNet(),
        )
        assert replica.f == f
        assert replica.quorum() == 2 * f + 1


def test_leader_rotation():
    replica, _ = _lone_follower()
    assert replica.leader_of(0) == "0.0"
    assert replica.leader_of(1) == "0.1"
    assert replica.leader_of(5) == "0.1"
    assert not replica.is_leader  # index 3, view 0


def test_preprepare_earns_prepare_vote_and_broadcast():
    replica, net = _lone_follower()
    block = _honest_block()
    replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(block)), 10)
    key = (1, 0, block.hash)
    # the proposal itself counts as the leader's prepare vote
    assert replica.prepare_votes[key] == {"0.0", replica.nid}
    assert net.types_broadcast() == ["prepare"]
    assert replica.phase is Phase.PRE_PREPARED


def test_prepare_quorum_triggers_commit_once():
    replica, net = _lone_follower()
    block = _honest_block()
    replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(block)), 10)
    vote = Envelope("prepare", "0.1", Prepare(1, 0, block.hash))
    replica.on_envelope(vote, 11)
    assert net.types_broadcast() == ["prepare", "commit"]
    assert replica.phase is Phase.PREPARED
    # replayed vote neither double-counts nor rebroadcasts
    replica.on_envelope(vote, 12)
    assert len(replica.prepare_votes[(1, 0, block.hash)]) == 3
    assert net.types_broadcast() == ["prepare", "commit"]


def test_commit_quorum_advances_head():
    replica, net = _lone_follower()
    block = _honest_block()
    replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(block)), 10)
    replica.on_envelope(Envelope("prepare", "0.1", Prepare(1, 0, block.hash)), 11)
    replica.on_envelope(Envelope("commit", "0.0", Commit(1, 0, block.hash)), 12)
    assert replica.head.height == 0, "one commit vote short of quorum"
    replica.on_envelope(Envelope("commit", "0.1", Commit(1, 0, block.hash)), 13)
    assert replica.head.height == 1
    assert replica.head.hash == block.hash
    assert replica.root_log == [(1, block.state_root.hex(), 13)]
    assert replica.phase is Phase.IDLE
    # settled bookkeeping is pruned
    assert not replica.prepare_votes and not replica.commit_votes
    assert not replica.preprepared
    # commit reports to the supervisor
    assert [to for to, _ in net.sent] == ["supervisor"]
    info = net.sent[0][1].body
    assert (info.block.shard_id, info.block.height, info.commit_time) == (0, 1, 13)


def test_out_of_order_votes_buffer_until_preprepare():
    replica, net = _lone_follower()
    block = _honest_block()
    replica.on_envelope(Envelope("prepare", "0.1", Prepare(1, 0, block.hash)), 5)
    replica.on_envelope(Envelope("commit", "0.0", Commit(1, 0, block.hash)), 6)
    replica.on_envelope(Envelope("commit", "0.1", Commit(1, 0, block.hash)), 7)
    assert replica.head.height == 0, "no proposal seen yet"
    replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(block)), 10)
    # prepare quorum was already banked; own commit vote completes it
    assert replica.head.height == 1


def test_preprepare_from_wrong_proposer_ignored():
    replica, net = _lone_follower()
    block = _honest_block(proposer="0.2")
    replica.on_envelope(Envelope("preprepare", "0.2", PrePrepare(block)), 10)
    assert net.types_broadcast() == []
    assert replica.phase is Phase.IDLE


def test_bad_root_withholds_prepare(caplog):
    replica, net = _lone_follower()
    block = _honest_block()
    forged = Block(
        shard_id=0, height=1, parent_hash=block.parent_hash,
        state_root=bytes(b ^ 0xFF for b in block.state_root),
        proposer="0.0", block_kind=BlockKind.TX, txs=block.txs, timestamp=10,
    )
    with caplog.at_level(logging.WARNING, logger="shardemu.pbft"):
        replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(forged)), 10)
        # redelivery hits the cached verdict, no second verification log
        replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(forged)), 11)
    assert net.types_broadcast() == []
    assert forged.hash in replica.verify_failed
    assert sum("bad_state_root" in r.message for r in caplog.records) == 1


def test_stale_height_ignored():
    replica, net = _lone_follower()
    block = _honest_block()
    replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(block)), 10)
    replica.on_envelope(Envelope("prepare", "0.1", Prepare(1, 0, block.hash)), 11)
    for sender in ("0.0", "0.1"):
        replica.on_envelope(Envelope("commit", sender, Commit(1, 0, block.hash)), 12)
    assert replica.head.height == 1
    stale = Envelope("preprepare", "0.0", PrePrepare(block))
    replica.on_envelope(stale, 20)
    assert replica.head.height == 1 and not replica.preprepared


def test_new_view_only_from_its_leader():
    replica, _ = _lone_follower()
    replica.on_envelope(Envelope("new_view", "0.2", NewView(new_view=1, height=1)), 10)
    assert replica.view == 0
    replica.on_envelope(Envelope("new_view", "0.1", NewView(new_view=1, height=1)), 11)
    assert replica.view == 1


def test_view_change_needs_quorum():
    replica, net = _lone_follower()
    replica.on_envelope(Envelope("view_change", "0.0", ViewChange(1, 1)), 10)
    assert replica.view == 0
    replica.on_envelope(Envelope("view_change", "0.1", ViewChange(1, 1)), 11)
    assert replica.view == 0, "two votes, quorum is three"
    replica.on_envelope(Envelope("view_change", "0.2", ViewChange(1, 1)), 12)
    assert replica.view == 1


def test_stop_halts_processing():
    replica, net = _lone_follower()
    replica.on_envelope(Envelope("stop", "supervisor", Stop()), 10)
    assert replica.stopped
    block = _honest_block()
    replica.on_envelope(Envelope("preprepare", "0.0", PrePrepare(block)), 11)
    replica.on_timer("propose", None, 12)
    assert net.types_broadcast() == []


# --- whole-shard runs over the simulated network ---


def test_shard_commits_pool_in_paced_blocks():
    net = SimNetwork(latency_ms=5, seed=0)
    replicas = build_shard(net, theta=5, delta=100, vc_timeout=1000)
    sink = attach_sink(net)
    _prefill(replicas, _local_txs(12))
    for replica in replicas.values():
        replica.on_start(0)
    # stop inside the idle tail: past the third commit, before the first
    # no-progress view-change deadline (1000ms after the last commit)
    net.run(until=900)

    logs = [replica.root_log for replica in replicas.values()]
    assert all(log == logs[0] for log in logs), "replicas must agree exactly"
    heights = [h for h, _, _ in logs[0]]
    assert heights == [1, 2, 3], "12 txs at theta=5 make 5+5+2"
    commit_times = [t for _, _, t in logs[0]]
    assert commit_times == sorted(commit_times)
    assert commit_times[1] - commit_times[0] >= 100, "block interval paces proposals"
    assert all(len(replica.pool) == 0 for replica in replicas.values())
    assert all(replica.view == 0 for replica in replicas.values())

    infos = [env.body for _, env in sink.envelopes if env.msg_type == "block_info"]
    assert len(infos) == 12, "every replica reports every commit"
    assert {(i.block.shard_id, i.block.height) for i in infos} == {(0, 1), (0, 2), (0, 3)}


def test_shard_applies_each_block_once(monkeypatch):
    applied = []
    real_apply_txs = core.apply_txs

    def counting_apply_txs(state, txs):
        applied.append(len(txs))
        return real_apply_txs(state, txs)

    # The proposer calls it from mechanisms, every other replica through
    # core.apply_block_to_state, which reuses the post-state on the block.
    monkeypatch.setattr(core, "apply_txs", counting_apply_txs)
    monkeypatch.setattr(mechanisms, "apply_txs", counting_apply_txs)
    net = SimNetwork(latency_ms=5, seed=0)
    replicas = build_shard(net, n_nodes=4, theta=5, delta=100, vc_timeout=1000)
    attach_sink(net)
    payer, payee = addr("pb-once-a"), addr("pb-once-b")
    _prefill(replicas, [regular_tx(payer, payee, value=i + 1, nonce=i) for i in range(12)])
    for replica in replicas.values():
        replica.on_start(0)
    net.run(until=900)

    logs = [replica.root_log for replica in replicas.values()]
    assert all(log == logs[0] for log in logs)
    committed = len(logs[0])
    assert committed == 3
    assert len(applied) == committed, "one application per block, not one per replica"


def test_forged_copy_carries_nothing_of_the_honest_block():
    net = SimNetwork(latency_ms=5, seed=0)
    replicas = build_shard(net, theta=10, delta=100, vc_timeout=400)
    replicas["0.0"].invalid_heights.add(1)
    _prefill(replicas, _local_txs(4))
    leader, follower = replicas["0.0"], replicas["0.1"]
    leader.maybe_propose(0)
    ((_, forged),) = leader.preprepared.items()
    assert forged.post is None and forged.halves is None
    assert core.verify_block(forged, follower.head, follower.state, follower.pmap,
                             follower.theta) is core.RejectReason.BAD_STATE_ROOT


def test_crashed_leader_triggers_view_change():
    net = SimNetwork(latency_ms=5, seed=0)
    net.schedule_crash("0.0", 0)  # scheduled first: leader dies before proposing
    replicas = build_shard(net, theta=10, delta=100, vc_timeout=400)
    attach_sink(net)
    _prefill(replicas, _local_txs(6))
    for replica in replicas.values():
        replica.on_start(0)
    # one view change (~400ms) plus the commit round fit well before the
    # next idle timeout would rotate views again
    net.run(until=800)

    live = [r for nid, r in replicas.items() if nid != "0.0"]
    assert all(r.view == 1 for r in live)
    assert all(r.leader_of(r.view) == "0.1" for r in live)
    logs = [r.root_log for r in live]
    assert logs[0] and all(log == logs[0] for log in logs)
    first_commit_ms = logs[0][0][2]
    assert first_commit_ms >= 400, "commit cannot precede the timeout"
    assert first_commit_ms <= 400 + 2 * 400 + 100
    assert all(len(r.pool) == 0 for r in live)


def test_invalid_proposer_never_commits_bad_root(caplog):
    net = SimNetwork(latency_ms=5, seed=0)
    replicas = build_shard(net, theta=10, delta=100, vc_timeout=400)
    replicas["0.0"].invalid_heights.add(1)
    attach_sink(net)
    _prefill(replicas, _local_txs(4))
    with caplog.at_level(logging.WARNING, logger="shardemu.pbft"):
        for replica in replicas.values():
            replica.on_start(0)
        net.run(until=5_000)

    withheld = [r for r in caplog.records if "bad_state_root" in r.message]
    assert len(withheld) == 3, "all three followers refuse the forged root"
    logs = [replica.root_log for replica in replicas.values()]
    assert logs[0] and all(log == logs[0] for log in logs)
    assert [h for h, _, _ in logs[0]] == [1], "height 1 commits exactly once"
    assert all(replica.view >= 1 for replica in replicas.values()), \
        "the forged proposal must cost the leader its view"
    honest = apply_txs(StateTree(), replicas["0.1"].head.txs)
    assert logs[0][0][1] == compute_state_root(honest).hex()

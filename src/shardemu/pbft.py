"""Per-shard PBFT replica with crash and invalid-proposal fault tolerance.

Each shard runs the classic three-phase protocol (preprepare, prepare,
commit) over its own chain. The leader of view v is node ``v mod n``. A
proposal counts as the leader's prepare vote; every phase advance needs
2f+1 distinct votes including the node's own, with f = floor((n-1)/3).
A timer that sees no commit within the view-change timeout triggers
``view_change(view+1)``; 2f+1 such votes elect the next leader, which
announces ``new_view`` and immediately re-proposes from its pool.

What goes into a block, how it is checked, and what a commit emits are
delegated to a mechanism object (see mechanisms.py), so the same replica
serves relay and broker deployments.
"""

from __future__ import annotations

import dataclasses
import logging
from enum import Enum
from typing import Any, Optional

from .core import Block, PartitionMap, StateTree, genesis_block
from .transport import (
    SUPERVISOR_ID,
    Commit,
    Envelope,
    NewView,
    Prepare,
    PrePrepare,
    ViewChange,
    node_id,
)
from .txpool import TxPool

log = logging.getLogger(__name__)


class Phase(Enum):
    IDLE = "idle"
    PRE_PREPARED = "pre_prepared"
    PREPARED = "prepared"


Outbound = tuple  # (dest spec, Envelope); dest interpreted by Replica._emit


class Replica:
    """One consensus node of one shard."""

    def __init__(
        self,
        shard_id: int,
        index: int,
        n_nodes: int,
        theta: int,
        block_interval_ms: int,
        vc_timeout_ms: int,
        pool: TxPool,
        pmap: PartitionMap,
        hooks: Any,
        net: Any,
    ) -> None:
        self.shard_id = shard_id
        self.index = index
        self.nid = node_id(shard_id, index)
        self.n = n_nodes
        self.f = (n_nodes - 1) // 3
        self.theta = theta
        self.delta = block_interval_ms
        self.vc_timeout = vc_timeout_ms
        self.pool = pool
        self.pmap = pmap
        self.hooks = hooks
        self.net = net

        self.view = 0
        self.phase = Phase.IDLE
        self.head: Block = genesis_block(shard_id)
        self.state = StateTree()
        self.stopped = False
        self.vc_deadline = 0

        # Consensus bookkeeping keyed by (height, view, block hash).
        self.prepare_votes: dict[tuple[int, int, bytes], set[str]] = {}
        self.commit_votes: dict[tuple[int, int, bytes], set[str]] = {}
        self.prepare_sent: set[tuple[int, int, bytes]] = set()
        self.commit_sent: set[tuple[int, int, bytes]] = set()
        self.preprepared: dict[tuple[int, bytes], Block] = {}
        self.verified: set[bytes] = set()
        self.verify_failed: set[bytes] = set()
        self.proposed: set[tuple[int, int]] = set()
        self.vc_votes: dict[int, set[str]] = {}

        # Audit trail of commits: (height, state root hex, commit ms).
        self.root_log: list[tuple[int, str, int]] = []
        # Dedup ledger for inbound relay halves, by origin hash.
        self.relay_seen: set[bytes] = set()
        # Heights at which this node, when leader, proposes a corrupted root.
        self.invalid_heights: set[int] = set()

    # -- identity helpers --

    def leader_of(self, view: int) -> str:
        return node_id(self.shard_id, view % self.n)

    @property
    def is_leader(self) -> bool:
        return self.leader_of(self.view) == self.nid

    @property
    def next_height(self) -> int:
        return self.head.height + 1

    def quorum(self) -> int:
        return 2 * self.f + 1

    # -- lifecycle --

    def on_start(self, now: int) -> None:
        self.vc_deadline = now + self.vc_timeout
        self.net.schedule(self.nid, self.vc_deadline, "vc", self.vc_deadline)
        self.net.schedule(self.nid, now, "propose", None)

    def on_timer(self, tag: str, data: Any, now: int) -> None:
        if self.stopped:
            return
        if tag == "propose":
            self.maybe_propose(now)
            self.net.schedule(self.nid, now + self.delta, "propose", None)
        elif tag == "vc":
            if data == self.vc_deadline and now >= self.vc_deadline:
                self.on_viewchange_timeout(now)

    def on_envelope(self, env: Envelope, now: int) -> None:
        if self.stopped:
            return
        mt = env.msg_type
        if mt == "preprepare":
            self._on_preprepare(env, now)
        elif mt == "prepare":
            self._on_prepare(env, now)
        elif mt == "commit":
            self._on_commit(env, now)
        elif mt == "view_change":
            self._on_view_change(env, now)
        elif mt == "new_view":
            self._on_new_view(env, now)
        elif mt == "inject_txs":
            self.pool.preload(env.body.txs)
        elif mt in ("relay_ctx", "partition_result", "account_migrate"):
            self._emit(self.hooks.handle_inter_shard_msg(self, env, now))
        elif mt == "stop":
            self.stopped = True
        else:
            raise ValueError(f"replica cannot handle {mt}")

    # -- proposing --

    def maybe_propose(self, now: int) -> None:
        """Propose the next block if this node leads the current view, has no
        proposal in flight, and the mechanism yields one."""
        if not self.is_leader or self.phase is not Phase.IDLE:
            return
        height = self.next_height
        if (height, self.view) in self.proposed:
            return
        block, outs = self.hooks.op_mining(self, now)
        self._emit(outs)
        if block is None:
            return
        if height in self.invalid_heights:
            # Scripted fault: advertise a root that no honest application
            # reproduces. Content is otherwise intact.
            forged = bytes(b ^ 0xFF for b in block.state_root)
            block = dataclasses.replace(block, state_root=forged, hash=b"")
        self.proposed.add((height, self.view))
        self.preprepared[(height, block.hash)] = block
        self.verified.add(block.hash)
        key = (height, self.view, block.hash)
        self.prepare_votes.setdefault(key, set()).add(self.nid)
        self.prepare_sent.add(key)
        self.phase = Phase.PRE_PREPARED
        self._broadcast("preprepare", PrePrepare(block=block))
        self._try_advance(height, self.view, block.hash, now)

    # -- three-phase handlers --

    def _on_preprepare(self, env: Envelope, now: int) -> None:
        block: Block = env.body.block
        if block.height <= self.head.height or env.sender == self.nid:
            return
        self.preprepared[(block.height, block.hash)] = block
        self._consider_preprepare(block, now)

    def _consider_preprepare(self, block: Block, now: int) -> None:
        """Vote prepare for a held proposal once it is next in line, comes
        from the current leader, and verifies against local state."""
        if block.height != self.next_height:
            return
        if block.proposer != self.leader_of(self.view) or block.proposer == self.nid:
            return
        if block.hash in self.verify_failed:
            return
        if block.hash not in self.verified:
            reason = self.hooks.op_verification(self, block)
            if reason is not None:
                self.verify_failed.add(block.hash)
                log.warning(
                    "%s withholds prepare at h=%d: %s", self.nid, block.height, reason.value
                )
                return
            self.verified.add(block.hash)
        key = (block.height, self.view, block.hash)
        votes = self.prepare_votes.setdefault(key, set())
        votes.add(block.proposer)
        votes.add(self.nid)
        if self.phase is Phase.IDLE:
            self.phase = Phase.PRE_PREPARED
        if key not in self.prepare_sent:
            self.prepare_sent.add(key)
            self._broadcast("prepare", Prepare(block.height, self.view, block.hash))
        self._try_advance(block.height, self.view, block.hash, now)

    def _on_prepare(self, env: Envelope, now: int) -> None:
        body: Prepare = env.body
        if body.height <= self.head.height:
            return
        key = (body.height, body.view, body.block_hash)
        self.prepare_votes.setdefault(key, set()).add(env.sender)
        self._try_advance(body.height, body.view, body.block_hash, now)

    def _on_commit(self, env: Envelope, now: int) -> None:
        body: Commit = env.body
        if body.height <= self.head.height:
            return
        key = (body.height, body.view, body.block_hash)
        self.commit_votes.setdefault(key, set()).add(env.sender)
        self._try_advance(body.height, body.view, body.block_hash, now)

    def _try_advance(self, height: int, view: int, block_hash: bytes, now: int) -> None:
        """Re-evaluate quorums for one (height, view, block) after any vote."""
        if height != self.next_height:
            return
        block = self.preprepared.get((height, block_hash))
        if block is None or block_hash not in self.verified:
            return
        key = (height, view, block_hash)
        if len(self.prepare_votes.get(key, ())) >= self.quorum() and key not in self.commit_sent:
            self.commit_sent.add(key)
            self.phase = Phase.PREPARED
            self.commit_votes.setdefault(key, set()).add(self.nid)
            self._broadcast("commit", Commit(height, view, block_hash))
        if len(self.commit_votes.get(key, ())) >= self.quorum():
            self._commit_block(block, now)

    def _commit_block(self, block: Block, now: int) -> None:
        # Drop what the block executed on every replica: followers still
        # queue its transactions, and the injected original of any half
        # derived from one, so prune by origin too.
        hashes = {tx.hash for tx in block.txs}
        hashes |= {tx.origin_hash for tx in block.txs if tx.origin_hash}
        self.pool.remove_committed(hashes)
        self.head = block
        outs = self.hooks.op_confirmation(self, block, now)
        self.root_log.append((block.height, block.state_root.hex(), now))
        self._prune_settled(block.height)
        self.phase = Phase.IDLE
        self.vc_deadline = now + self.vc_timeout
        self.net.schedule(self.nid, self.vc_deadline, "vc", self.vc_deadline)
        self._emit(outs)
        self._replay_buffered(now)

    def _prune_settled(self, height: int) -> None:
        for votes in (self.prepare_votes, self.commit_votes):
            for k in [k for k in votes if k[0] <= height]:
                del votes[k]
        for sent in (self.prepare_sent, self.commit_sent):
            for k in [k for k in sent if k[0] <= height]:
                sent.discard(k)
        for k in [k for k in self.preprepared if k[0] <= height]:
            blk = self.preprepared.pop(k)
            self.verified.discard(blk.hash)
            self.verify_failed.discard(blk.hash)

    def _replay_buffered(self, now: int) -> None:
        """After a commit, messages for the new height may already be here."""
        nh = self.next_height
        for (h, bh), blk in list(self.preprepared.items()):
            if h == nh:
                self._consider_preprepare(blk, now)
        keys = {k for k in list(self.prepare_votes) if k[0] == nh}
        keys |= {k for k in list(self.commit_votes) if k[0] == nh}
        for h, v, bh in keys:
            if h == self.next_height:
                self._try_advance(h, v, bh, now)

    # -- view change --

    def on_viewchange_timeout(self, now: int) -> None:
        target = self.view + 1
        log.info("%s times out at h=%d, votes view %d", self.nid, self.next_height, target)
        self.vc_votes.setdefault(target, set()).add(self.nid)
        self.vc_deadline = now + self.vc_timeout
        self.net.schedule(self.nid, self.vc_deadline, "vc", self.vc_deadline)
        self._broadcast("view_change", ViewChange(new_view=target, height=self.next_height))
        self._maybe_adopt_view(target, now)

    def _on_view_change(self, env: Envelope, now: int) -> None:
        body: ViewChange = env.body
        if body.new_view <= self.view:
            return
        self.vc_votes.setdefault(body.new_view, set()).add(env.sender)
        self._maybe_adopt_view(body.new_view, now)

    def _maybe_adopt_view(self, target: int, now: int) -> None:
        if target <= self.view:
            return
        if len(self.vc_votes.get(target, ())) < self.quorum():
            return
        self._enter_view(target, now)
        if self.is_leader:
            self._broadcast("new_view", NewView(new_view=target, height=self.next_height))
            self.maybe_propose(now)

    def _on_new_view(self, env: Envelope, now: int) -> None:
        body: NewView = env.body
        if body.new_view <= self.view:
            return
        if env.sender != self.leader_of(body.new_view):
            return
        self._enter_view(body.new_view, now)
        self._replay_buffered(now)

    def _enter_view(self, view: int, now: int) -> None:
        self.view = view
        self.phase = Phase.IDLE
        for stale in [v for v in self.vc_votes if v <= view]:
            del self.vc_votes[stale]
        self.vc_deadline = now + self.vc_timeout
        self.net.schedule(self.nid, self.vc_deadline, "vc", self.vc_deadline)

    # -- emission --

    def _broadcast(self, msg_type: str, body: Any) -> None:
        env = Envelope(msg_type=msg_type, sender=self.nid, body=body)
        self.net.broadcast_shard(self.shard_id, env)

    def _emit(self, outs: Optional[list[Outbound]]) -> None:
        if not outs:
            return
        for dest, env in outs:
            kind = dest[0]
            if kind == "shard_all":
                self.net.broadcast_shard(dest[1], env, include_self=True)
            elif kind == "supervisor":
                self.net.send(SUPERVISOR_ID, env)
            else:
                raise ValueError(f"bad outbound destination {dest!r}")

"""Per-shard PBFT replica with crash and invalid-proposal fault tolerance.

Each shard runs the classic three-phase protocol (preprepare, prepare,
commit) over its own chain. The leader of view v is node ``v mod n``. A
proposal counts as the leader's prepare vote; every phase advance needs
2f+1 distinct votes including the node's own, with f = floor((n-1)/3).
A timer that sees no commit within the view-change timeout triggers
``view_change(view+1)``; 2f+1 such votes elect the next leader, which
announces ``new_view`` and immediately re-proposes from its pool.

Everything a replica knows about one height (the proposals it holds, their
verdicts, the prepare and commit votes by view, and the views it proposed
in) lives in one ``Round``, which is dropped whole when that height, or a
later one, commits. A replica's own id in a vote set means it has sent that
vote: it adds itself only where it broadcasts, and a shard broadcast never
comes back to its sender.

What goes into a block, how it is checked, and what a commit sends are
delegated to a mechanism object (see mechanisms.py), so the same replica
serves relay and broker deployments. The mechanism's hooks send through
the replica's ``net`` themselves.
"""

from __future__ import annotations

import logging
import threading
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

from .core import Block, PartitionMap, StateTree, genesis_block
from .transport import (
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


@dataclass(slots=True)
class Round:
    """Consensus state of one height: proposals and verdicts by block hash,
    prepare and commit voters by (view, block hash), and the views this
    replica proposed in."""

    blocks: dict[bytes, Block] = field(default_factory=dict)
    verdicts: dict[bytes, bool] = field(default_factory=dict)
    prepares: dict[tuple[int, bytes], set[str]] = field(default_factory=dict)
    commits: dict[tuple[int, bytes], set[str]] = field(default_factory=dict)
    proposed: set[int] = field(default_factory=set)


class RelaySeen(dict):
    """One shard's relay-dedupe record, shared by its replicas: the origin
    hash of each credit half some replica accepted, mapped to a bitmask of
    the replicas that accepted it, replica ``i`` owning bit ``1 << i``.

    A replica's bits are what its own set of accepted origins was, stored
    once per shard instead of once per replica. A check and set of a bit
    happen under ``guard``: over TCP the replicas are threads of one
    process, and two of them may update one entry at once. A sim run takes
    it uncontended."""

    __slots__ = ("guard",)

    def __init__(self) -> None:
        super().__init__()
        self.guard = threading.Lock()


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
        relay_seen: Optional[RelaySeen] = None,
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

        # Unsettled heights only; a commit drops its round and all below.
        self.rounds: defaultdict[int, Round] = defaultdict(Round)
        self.vc_votes: dict[int, set[str]] = {}

        # Audit trail of commits: (height, state root hex, commit ms).
        self.root_log: list[tuple[int, str, int]] = []
        # The shard's dedupe record for inbound credit halves (one of its
        # own when not given), and this replica's bit in it.
        self.relay_seen = relay_seen if relay_seen is not None else RelaySeen()
        self.relay_bit = 1 << index
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
        self._arm_view_timer(now)
        self.net.schedule(self.nid, now, "propose", None)

    def _arm_view_timer(self, now: int) -> None:
        """Restart the view-change timeout from ``now``; ``on_timer`` acts
        only on the timer armed last."""
        self.vc_deadline = now + self.vc_timeout
        self.net.schedule(self.nid, self.vc_deadline, "vc", self.vc_deadline)

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
            self.hooks.handle_inter_shard_msg(self, env, now)
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
        rnd = self.rounds[height]
        if self.view in rnd.proposed:
            return
        block = self.hooks.op_mining(self, now)
        if block is None:
            return
        if height in self.invalid_heights:
            # Scripted fault: advertise a root that no honest application
            # reproduces. Content is otherwise intact.
            forged = bytes(b ^ 0xFF for b in block.state_root)
            block = replace(block, state_root=forged, hash=b"")
        rnd.proposed.add(self.view)
        rnd.blocks[block.hash] = block
        rnd.verdicts[block.hash] = True
        rnd.prepares.setdefault((self.view, block.hash), set()).add(self.nid)
        self.phase = Phase.PRE_PREPARED
        self._broadcast("preprepare", PrePrepare(block=block))
        self._try_advance(height, self.view, block.hash, now)

    # -- three-phase handlers --

    def _on_preprepare(self, env: Envelope, now: int) -> None:
        block: Block = env.body.block
        if block.height <= self.head.height or env.sender == self.nid:
            return
        self.rounds[block.height].blocks[block.hash] = block
        self._consider_preprepare(block, now)

    def _consider_preprepare(self, block: Block, now: int) -> None:
        """Vote prepare for a held proposal once it is next in line, comes
        from the current leader, and verifies against local state."""
        if block.height != self.next_height:
            return
        if block.proposer != self.leader_of(self.view) or block.proposer == self.nid:
            return
        rnd = self.rounds[block.height]
        verdict = rnd.verdicts.get(block.hash)
        if verdict is None:
            reason = self.hooks.op_verification(self, block)
            verdict = rnd.verdicts[block.hash] = reason is None
            if reason is not None:
                log.warning(
                    "%s withholds prepare at h=%d: %s", self.nid, block.height, reason.value
                )
        if not verdict:
            return
        votes = rnd.prepares.setdefault((self.view, block.hash), set())
        votes.add(block.proposer)
        if self.phase is Phase.IDLE:
            self.phase = Phase.PRE_PREPARED
        if self.nid not in votes:
            votes.add(self.nid)
            self._broadcast("prepare", Prepare(block.height, self.view, block.hash))
        self._try_advance(block.height, self.view, block.hash, now)

    def _on_prepare(self, env: Envelope, now: int) -> None:
        body: Prepare = env.body
        if body.height <= self.head.height:
            return
        votes = self.rounds[body.height].prepares
        votes.setdefault((body.view, body.block_hash), set()).add(env.sender)
        self._try_advance(body.height, body.view, body.block_hash, now)

    def _on_commit(self, env: Envelope, now: int) -> None:
        body: Commit = env.body
        if body.height <= self.head.height:
            return
        votes = self.rounds[body.height].commits
        votes.setdefault((body.view, body.block_hash), set()).add(env.sender)
        self._try_advance(body.height, body.view, body.block_hash, now)

    def _try_advance(self, height: int, view: int, block_hash: bytes, now: int) -> None:
        """Re-evaluate quorums for one (height, view, block) after any vote."""
        if height != self.next_height:
            return
        rnd = self.rounds[height]
        block = rnd.blocks.get(block_hash)
        if block is None or not rnd.verdicts.get(block_hash):
            return
        key = (view, block_hash)
        commits = rnd.commits.get(key, ())
        if len(rnd.prepares.get(key, ())) >= self.quorum() and self.nid not in commits:
            self.phase = Phase.PREPARED
            commits = rnd.commits.setdefault(key, set())
            commits.add(self.nid)
            self._broadcast("commit", Commit(height, view, block_hash))
        if len(commits) >= self.quorum():
            self._commit_block(block, now)

    def _commit_block(self, block: Block, now: int) -> None:
        # Drop what the block executed on every replica: followers still
        # queue its transactions, and the injected original of any half
        # derived from one, so prune by origin too. The set is built once
        # per block object (``Block.pruned``) and never written to.
        pruned = block.pruned
        if pruned is None:
            pruned = block.pruned = frozenset(
                [tx.hash for tx in block.txs]
                + [tx.origin_hash for tx in block.txs if tx.origin_hash])
        self.pool.remove_committed(pruned)
        self.head = block
        # The timer is armed before the commit sends anything, so at equal
        # virtual times it fires ahead of the commit's messages.
        self._arm_view_timer(now)
        self.hooks.op_confirmation(self, block, now)
        self.root_log.append((block.height, block.state_root.hex(), now))
        for settled in [h for h in self.rounds if h <= block.height]:
            del self.rounds[settled]
        self.phase = Phase.IDLE
        self._replay_buffered(now)

    def _replay_buffered(self, now: int) -> None:
        """After a commit or a view change, messages for the next height may
        already be here: its proposals in arrival order, then its vote keys
        in the order they were first seen, prepares before commits."""
        nh = self.next_height
        rnd = self.rounds[nh]
        for blk in list(rnd.blocks.values()):
            self._consider_preprepare(blk, now)
        for view, block_hash in dict.fromkeys([*rnd.prepares, *rnd.commits]):
            self._try_advance(nh, view, block_hash, now)

    # -- view change --

    def on_viewchange_timeout(self, now: int) -> None:
        target = self.view + 1
        log.info("%s times out at h=%d, votes view %d", self.nid, self.next_height, target)
        self.vc_votes.setdefault(target, set()).add(self.nid)
        self._arm_view_timer(now)
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
        self._arm_view_timer(now)

    # -- emission --

    def _broadcast(self, msg_type: str, body: Any) -> None:
        env = Envelope(msg_type=msg_type, sender=self.nid, body=body)
        self.net.broadcast_shard(self.shard_id, env)

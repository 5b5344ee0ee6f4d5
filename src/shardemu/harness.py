"""Run orchestration: wiring nodes together and driving them to completion.

``build_nodes`` is the one wiring of a run, shared by both transports. It
picks the brokers, builds the partition map, constructs the supervisor and
one replica per (shard, node), and pre-fills the pools. Each node talks
through the network interface that ``net_of(node id)`` gives it.

``Emulation`` runs the wired nodes over one deterministic ``SimNetwork``:
it registers them, schedules scripted faults, runs the event loop and has
the supervisor finalize the run. ``setup()`` and ``execute()`` are
separate so callers can inspect pools and state between wiring and
running. ``TcpRunner`` runs the same wiring over TCP, one driver thread
per node.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .config import ConfigError, MissingKey, RunConfig
from .core import (
    DERIVED_KINDS,
    AddressTable,
    Block,
    PartitionMap,
    TxClass,
    TxKind,
    block_from_json,
)
from .dataset import load_dataset, top_active_accounts
from .mechanisms import make_mechanism
from .metrics import MetricsLedger
from .pbft import Replica
from .supervisor import Supervisor
from .transport import SUPERVISOR_ID, Envelope, SimNetwork, TcpMesh, node_id
from .txpool import TxPool

log = logging.getLogger(__name__)

# Hard ceiling on virtual time; a healthy run stops itself well before.
VIRTUAL_TIME_CAP_MS = 3_000_000


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    out_dir: Optional[str]
    supervisor: Supervisor
    replicas: dict[str, Replica] = field(default_factory=dict)

    def shard_replicas(self, shard: int) -> list[Replica]:
        return [r for r in self.replicas.values() if r.shard_id == shard]

    def root_logs(self) -> dict[str, list]:
        return {nid: list(r.root_log) for nid, r in self.replicas.items()}


# -- wiring --


def build_nodes(
    cfg: RunConfig, net_of: Callable[[str], Any]
) -> tuple[Supervisor, dict[str, Replica]]:
    """The supervisor and the replicas (shard-major) of one run."""
    rows = load_dataset(cfg.dataset_path, cfg.dataset_limit)
    brokers: list[bytes] = []
    if cfg.mechanism == "broker":
        brokers = cfg.brokers
        if cfg.brokers_top_k is not None:
            # Ranking needs every row first; read the file once for both.
            loaded = list(rows)
            brokers = top_active_accounts(loaded, cfg.brokers_top_k)
            rows = iter(loaded)
    pmap = PartitionMap(
        n_shards=cfg.n_shards, version=0, overrides={}, brokers=frozenset(brokers)
    )
    supervisor = Supervisor(cfg, pmap, net_of(SUPERVISOR_ID), rows)

    replicas: dict[str, Replica] = {}
    for k in range(cfg.n_shards):
        for i in range(cfg.nodes_per_shard):
            nid = node_id(k, i)
            replicas[nid] = Replica(
                shard_id=k,
                index=i,
                n_nodes=cfg.nodes_per_shard,
                theta=cfg.block_size,
                block_interval_ms=cfg.block_interval_ms,
                vc_timeout_ms=cfg.vc_timeout_ms,
                pool=TxPool(k, policy=cfg.pool_policy),
                pmap=pmap,
                hooks=make_mechanism(cfg.mechanism),
                net=net_of(nid),
            )

    if cfg.injection.prefill:
        per_shard = supervisor.prepare_prefill()
        for replica in replicas.values():
            replica.pool.preload(per_shard.get(replica.shard_id, []))
    return supervisor, replicas


def _finish(cfg: RunConfig, supervisor: Supervisor, replicas: dict[str, Replica]) -> RunResult:
    """The result of a stopped run. The supervisor closes its block files
    and, when the run has an output directory, writes the reports there."""
    exit_code, summary = supervisor.finalize(cfg.output_dir)
    return RunResult(
        exit_code=exit_code,
        summary=summary,
        out_dir=cfg.output_dir,
        supervisor=supervisor,
        replicas=replicas,
    )


class Emulation:
    """One configured run over the deterministic sim transport."""

    def __init__(self, cfg: RunConfig) -> None:
        if cfg.sim is None:
            raise ConfigError("Emulation drives the sim transport; use TcpRunner for tcp")
        if cfg.dataset_path is None:
            raise MissingKey("dataset_path")
        self.cfg = cfg
        self.net: Optional[SimNetwork] = None
        self.supervisor: Optional[Supervisor] = None
        self.replicas: dict[str, Replica] = {}
        self._ran = False

    def setup(self) -> None:
        cfg = self.cfg
        net = self.net = SimNetwork(latency_ms=cfg.sim.latency_ms, seed=cfg.sim.seed)
        self.supervisor, self.replicas = build_nodes(cfg, lambda _: net)
        # Registration order is broadcast order, which decides the latency
        # draws under jitter: supervisor first, then replicas shard-major.
        net.register(SUPERVISOR_ID, self.supervisor)
        for nid, replica in self.replicas.items():
            net.register(nid, replica, shard=replica.shard_id)
        for fault in cfg.faults:
            if fault.kind == "crash":
                net.schedule_crash(fault.node, fault.at_ms)
            else:
                self.replicas[fault.node].invalid_heights.add(fault.height)

    def execute(self) -> RunResult:
        if self.net is None:
            self.setup()
        assert not self._ran, "an Emulation instance runs once"
        self._ran = True
        sup = self.supervisor
        sup.on_start(0)
        for replica in self.replicas.values():
            replica.on_start(0)
        self.net.run(until=VIRTUAL_TIME_CAP_MS)
        if self.net._heap:
            sup.ledger.degraded = True
            sup.ledger.notes.append(
                f"virtual time cap {VIRTUAL_TIME_CAP_MS} ms hit before the run stopped"
            )
        return _finish(self.cfg, sup, self.replicas)


def run(cfg: RunConfig) -> RunResult:
    if cfg.tcp is not None:
        return TcpRunner(cfg).execute()
    emu = Emulation(cfg)
    emu.setup()
    return emu.execute()


# -- recomputation from stored blocks --


class BadBlockFile(Exception):
    """A block-file line that is not valid JSON, has a field of the wrong
    form, or carries a hash that does not match its content."""

    def __init__(self, path: str, line_no: int, exc: Exception) -> None:
        if isinstance(exc, json.JSONDecodeError):
            why = f"invalid JSON at column {exc.colno}: {exc.msg}"
        else:
            why = f"{type(exc).__name__}: {exc}"
        super().__init__(f"{path} line {line_no}: {why}")


def report_from_blocks(run_dir: str) -> dict:
    """Rebuild the metric reports from a run directory's block files.

    Injection records are inferred from the committed transactions
    themselves: a whole transaction stands for its own original, halves
    point at theirs through the origin hash. Classification is therefore
    by commitment shape, and the outputs land in a ``recomputed``
    subdirectory of the run directory. Every shard's block file must be
    present; a missing one raises ``FileNotFoundError``, and a line that
    does not decode to a block with matching hashes raises ``BadBlockFile``.
    """
    summary_path = os.path.join(run_dir, "summary.json")
    with open(summary_path, "r", encoding="utf-8") as fh:
        prior = json.load(fh)
    cfg_echo = prior["config"]
    n_shards = cfg_echo["n_shards"]
    ledger = MetricsLedger(n_shards, cfg_echo["epoch_ms"])

    # One table for the whole report: one bytes object per account.
    addresses = AddressTable()
    blocks: list[tuple[Optional[int], Block]] = []
    for k in range(n_shards):
        path = os.path.join(run_dir, f"blocks_shard{k}.jsonl")
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                try:
                    obj = json.loads(line)
                    commit_time = obj["commit_time"]
                    if commit_time is not None and type(commit_time) is not int:
                        raise ValueError(f"commit_time must be an integer or null, "
                                         f"not {commit_time!r}")
                    blocks.append((commit_time, block_from_json(obj, addresses)))
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise BadBlockFile(path, line_no, exc) from None
    blocks.sort(key=lambda pair: (pair[0] or 0, pair[1].shard_id))

    for _, block in blocks:
        for tx in block.txs:
            if tx.kind in DERIVED_KINDS:
                ledger.record_injection(
                    tx.origin_hash,
                    TxKind.ORIGINAL_CTX,
                    TxClass.CROSS_SHARD,
                    tx.payer,
                    tx.payee,
                    tx.inject_time or 0,
                )
            else:
                ledger.record_injection(
                    tx.hash,
                    tx.kind,
                    TxClass.REGULAR,
                    tx.payer,
                    tx.payee,
                    tx.inject_time or 0,
                )

    for commit_time, block in blocks:
        ledger.record_block(block, commit_time or block.timestamp, 0)

    out_dir = os.path.join(run_dir, "recomputed")
    summary = ledger.write_reports(out_dir, cfg_echo)
    return summary


# -- real-network runner --


class _TcpNodeDriver:
    """Thread that gives one node real timers and a real inbox.

    The node logic is written against the sim network interface; this
    adapter reimplements the ``send`` / ``broadcast`` / ``schedule`` calls
    over a TCP mesh and a monotonic millisecond clock.
    """

    def __init__(
        self,
        nid: str,
        ip_table: dict[str, str],
        shard_members: dict[int, list[str]],
        t0: float,
    ) -> None:
        self.nid = nid
        self.ip_table = ip_table
        self.t0 = t0
        self.inbox: "queue.Queue[Envelope]" = queue.Queue()
        self.timers: list[tuple[int, int, str, Any]] = []
        self._timer_seq = 0
        self.node: Any = None  # Replica or Supervisor, set by TcpRunner
        self.mesh: Optional[TcpMesh] = None
        self.thread = threading.Thread(target=self._loop, name=f"node-{nid}", daemon=True)
        self.shard_members = shard_members

    # network interface used by the node logic

    def send(self, to: str, env: Envelope) -> None:
        if to == self.nid:
            self.inbox.put(env)
        else:
            self.mesh.send(to, env)

    def broadcast_shard(self, shard: int, env: Envelope, include_self: bool = False) -> None:
        for nid in self.shard_members.get(shard, ()):
            if not include_self and nid == env.sender:
                continue
            self.send(nid, env)

    def broadcast_all(self, env: Envelope) -> None:
        for nid in self.ip_table:
            if nid != env.sender:
                self.send(nid, env)

    def schedule(self, nid: str, at: int, tag: str, data: Any = None) -> None:
        assert nid == self.nid, "tcp nodes arm only their own timers"
        self._timer_seq += 1
        heapq.heappush(self.timers, (at, self._timer_seq, tag, data))

    def now_ms(self) -> int:
        return int((time.monotonic() - self.t0) * 1000)

    # thread body

    def start(self) -> None:
        self.thread.start()

    def _loop(self) -> None:
        self.node.on_start(self.now_ms())
        while True:
            if getattr(self.node, "stopped", False) and self.inbox.empty():
                return
            timeout = 0.05
            if self.timers:
                timeout = max(0.0, min(timeout, (self.timers[0][0] - self.now_ms()) / 1000))
            try:
                env = self.inbox.get(timeout=timeout)
            except queue.Empty:
                env = None
            if env is not None:
                try:
                    self.node.on_envelope(env, self.now_ms())
                except Exception:
                    log.exception("%s failed handling %s", self.nid, env.msg_type)
            while self.timers and self.timers[0][0] <= self.now_ms():
                _, _, tag, data = heapq.heappop(self.timers)
                try:
                    self.node.on_timer(tag, data, self.now_ms())
                except Exception:
                    log.exception("%s failed on timer %s", self.nid, tag)


class TcpRunner:
    """Whole-run orchestration over loopback/LAN TCP."""

    def __init__(self, cfg: RunConfig) -> None:
        if cfg.tcp is None:
            raise ConfigError("TcpRunner needs a tcp transport section")
        if cfg.dataset_path is None:
            raise MissingKey("dataset_path")
        self.cfg = cfg
        with open(cfg.tcp.ip_table, "r", encoding="utf-8") as fh:
            self.ip_table: dict[str, str] = json.load(fh)

    def execute(self) -> RunResult:
        cfg = self.cfg
        t0 = time.monotonic()
        members = {
            k: [node_id(k, i) for i in range(cfg.nodes_per_shard)]
            for k in range(cfg.n_shards)
        }
        drivers = {nid: _TcpNodeDriver(nid, self.ip_table, members, t0) for nid in self.ip_table}
        supervisor, replicas = build_nodes(cfg, lambda nid: drivers[nid])
        for nid, node in [(SUPERVISOR_ID, supervisor), *replicas.items()]:
            drivers[nid].node = node

        for nid, driver in drivers.items():
            driver.mesh = TcpMesh(nid, self.ip_table, driver.inbox.put)
        for driver in drivers.values():
            driver.start()

        wall_s = (cfg.stop.wall_ms / 1000 + 5) if cfg.stop.wall_ms else 120
        deadline = time.monotonic() + wall_s
        for driver in drivers.values():
            driver.thread.join(timeout=max(0.1, deadline - time.monotonic()))
        hung = [d.nid for d in drivers.values() if d.thread.is_alive()]
        if hung:
            supervisor.ledger.degraded = True
            supervisor.ledger.notes.append(f"tcp nodes still running at teardown: {hung}")
        for driver in drivers.values():
            driver.mesh.close()
        return _finish(cfg, supervisor, replicas)

"""Run orchestration: wiring nodes together and driving them to completion.

``build_nodes`` is the one wiring of a run, shared by both transports. It
picks the brokers, builds the partition map, constructs the supervisor and
one replica per (shard, node), registering each on the run's network, and
pre-fills the pools.

``Emulation`` runs the wired nodes over one deterministic ``SimNetwork``:
it schedules scripted faults, starts the nodes, runs the event loop and
has the supervisor finalize the run. ``setup()`` and ``execute()`` are
separate so callers can inspect pools and state between wiring and
running. ``TcpRunner`` runs the same wiring over TCP, on a ``TcpLoop``,
the same event loop on a wall clock, every node on the one thread that
calls it.

``report_from_blocks`` rebuilds a run's reports from its block files. It
decodes them in parallel, whole files in groups of about equal bytes, one
group per process, each pinned to its own CPU, when the host gives the
process more than one CPU and the run has more than one shard, and stays
in one process otherwise, or where it cannot fork or other threads run
(``_block_columns``). Any error of the parallel pass has the decode redone
in one process, so a damaged file raises what it raises there.

``Emulation.setup``, ``Emulation.execute`` and ``report_from_blocks`` run
with the cyclic garbage collector paused (``_gc_paused``); the rebuild's
children inherit the pause. What they drop, reference counting frees at
once: they build no garbage cycles beyond the few objects of each indented
``json.dump``. The collector's passes over their live transactions, blocks
and state entries would free nothing. Set-up ends by promoting what it
built to the oldest generation, so no young collection walks it after the
pause.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .config import ConfigError, MissingKey, RunConfig
from .core import AddressTable, PartitionMap, block_from_json
from .dataset import DatasetReader, busiest_accounts
from .mechanisms import make_mechanism
from .metrics import MetricsLedger, original_hashes
from .pbft import RelaySeen, Replica
from .supervisor import Supervisor
from .transport import SUPERVISOR_ID, SimNetwork, TcpLoop, TcpMesh, close_meshes, node_id
from .txpool import TxPool

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


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, or the decorated
    call, and restore the caller's setting after it, also when it raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# -- wiring --


def build_nodes(cfg: RunConfig, net: SimNetwork) -> tuple[Supervisor, dict[str, Replica]]:
    """The supervisor and the replicas (shard-major) of one run, each
    registered on ``net`` as it is built. Registration order is start and
    broadcast order, which decides the latency draws under jitter. A
    prefilled run reads the whole dataset here, in one call; a live run's
    supervisor reads each batch when it injects it."""
    rows = DatasetReader(cfg.dataset_path, cfg.dataset_limit)
    prefill = rows.read() if cfg.injection.prefill else None
    brokers: list[bytes] = []
    if cfg.mechanism == "broker":
        brokers = cfg.brokers
        if cfg.brokers_top_k is not None:
            # Ranking needs every row; a live run reads the file once more
            # for its batches.
            ranked = prefill if prefill is not None else DatasetReader(
                cfg.dataset_path, cfg.dataset_limit).read()
            brokers = busiest_accounts(ranked.payers, ranked.payees, cfg.brokers_top_k)
    pmap = PartitionMap(
        n_shards=cfg.n_shards, version=0, overrides={}, brokers=frozenset(brokers)
    )
    supervisor = Supervisor(cfg, pmap, net, rows)
    net.register(SUPERVISOR_ID, supervisor)
    per_shard = supervisor.prepare_prefill(prefill) if prefill is not None else {}

    replicas: dict[str, Replica] = {}
    for k in range(cfg.n_shards):
        # One prefilled queue per shard; each replica gets a copy, which
        # shares the queue until its first write (``TxPool.copy``).
        # The shard's relay-dedupe record is one object, each replica
        # holding its own bit in it.
        pool = TxPool(k)
        if k in per_shard:
            pool.preload(per_shard[k])
        seen = RelaySeen()
        for i in range(cfg.nodes_per_shard):
            nid = node_id(k, i)
            replicas[nid] = replica = Replica(
                shard_id=k,
                index=i,
                n_nodes=cfg.nodes_per_shard,
                theta=cfg.block_size,
                block_interval_ms=cfg.block_interval_ms,
                vc_timeout_ms=cfg.vc_timeout_ms,
                pool=pool.copy() if i else pool,
                pmap=pmap,
                hooks=make_mechanism(cfg.mechanism),
                net=net,
                relay_seen=seen,
            )
            net.register(nid, replica, shard=k)
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

    @_gc_paused()
    def setup(self) -> None:
        cfg = self.cfg
        net = self.net = SimNetwork(latency_ms=cfg.sim.latency_ms, seed=cfg.sim.seed)
        self.supervisor, self.replicas = build_nodes(cfg, net)
        for fault in cfg.faults:
            if fault.kind == "crash":
                net.schedule_crash(fault.node, fault.at_ms)
            else:
                self.replicas[fault.node].invalid_heights.add(fault.height)
        # What set-up built lives for the whole run. Promoted to the oldest
        # generation, it is not walked by the young collection that the
        # first allocations after the pause would otherwise start.
        gc.freeze()
        gc.unfreeze()

    @_gc_paused()
    def execute(self) -> RunResult:
        if self.net is None:
            self.setup()
        assert not self._ran, "an Emulation instance runs once"
        self._ran = True
        sup = self.supervisor
        self.net.start()
        self.net.run(until=VIRTUAL_TIME_CAP_MS)
        if self.net._heap:
            sup.ledger.degraded = True
            sup.ledger.notes.append(
                f"virtual time cap {VIRTUAL_TIME_CAP_MS} ms hit before the run stopped"
            )
        result = _finish(self.cfg, sup, self.replicas)
        self.net.release()
        return result


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


class BadSummary(Exception):
    """A run directory's ``summary.json`` that is not valid JSON or whose
    config echo does not give ``n_shards`` and ``epoch_ms`` as positive
    integers."""

    def __init__(self, path: str, exc: Exception) -> None:
        super().__init__(f"{path}: {type(exc).__name__}: {exc}")


def _config_echo(run_dir: str) -> dict:
    """The config echo of a run directory's ``summary.json``, with the two
    keys a rebuild sizes itself by checked. A missing file raises
    ``FileNotFoundError``; a damaged one raises ``BadSummary``."""
    path = os.path.join(run_dir, "summary.json")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            echo = json.load(fh)["config"]
            for key in ("n_shards", "epoch_ms"):
                value = echo[key]
                if type(value) is not int or value < 1:
                    raise ValueError(f"config {key} must be a positive integer, not {value!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise BadSummary(path, exc) from None
    return echo


def _decode_files(paths: list[str]) -> list[list[tuple]]:
    """Decode and check every line of the given block files into
    ``_block_columns``' columns, one list per file in line order, parsing
    address literals through one table and keeping one object per
    original's hash, so the two halves of a relayed original share it. An
    error names its file and line."""
    addresses = AddressTable()
    originals: dict[bytes, bytes] = {}
    files = []
    for path in paths:
        columns: list[tuple] = []
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, 1):
                try:
                    obj = json.loads(line.decode("utf-8"))
                    commit_time = obj["commit_time"]
                    if commit_time is not None and type(commit_time) is not int:
                        raise ValueError(f"commit_time must be an integer or null, "
                                         f"not {commit_time!r}")
                    block = block_from_json(obj, addresses)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise BadBlockFile(path, line_no, exc) from None
                txs = block.txs
                columns.append((
                    block.timestamp if commit_time is None else commit_time,
                    block.shard_id, block.height, block.block_kind,
                    tuple([tx.kind for tx in txs]),
                    tuple([originals.setdefault(h, h) for h in original_hashes(txs)]),
                    tuple([tx.payer for tx in txs]),
                    tuple([tx.payee for tx in txs]),
                    tuple([tx.inject_time or 0 for tx in txs]),
                ))
        files.append(columns)
    return files


def _decoders(n_shards: int) -> int:
    """How many processes decode a run's block files: one per usable CPU, at
    most one per shard, and 1 where the host cannot fork or the process
    runs other threads (a fork copies no thread, and a lock one of them
    held would stay held in the child)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(n_shards, len(os.sched_getaffinity(0)))


def _groups(paths: list[str], n: int) -> list[list[str]]:
    """The files ``paths`` placed whole into ``n`` (at most ``len(paths)``)
    groups: each file, largest first, into the group holding the fewest
    bytes, of those the one holding the fewest files, so no group is empty.
    The groups come lightest first, each one's files in the order of
    ``paths``. A file that cannot be sized counts as 0 bytes: its decoder
    raises what it raises."""
    sizes = []
    for path in paths:
        try:
            sizes.append(os.path.getsize(path))
        except OSError:
            sizes.append(0)
    groups: list[list] = [[0, []] for _ in range(n)]  # [bytes, file indices]
    for k in sorted(range(len(paths)), key=sizes.__getitem__, reverse=True):
        group = min(groups, key=lambda g: (g[0], len(g[1])))
        group[0] += sizes[k]
        group[1].append(k)
    groups.sort(key=lambda g: g[0])
    return [[paths[k] for k in sorted(files)] for _, files in groups]


def _pin(cpus: set[int]) -> None:
    """Restrict the calling thread to ``cpus``, where the host allows it. An
    offline CPU, or a container that refuses the call, leaves the thread
    where it was: placement only speeds a rebuild up."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


class _Decoder:
    """A forked child, pinned to its own CPU (``_pin``), decoding whole block
    files into columns, which it sends back pickled through the pipe
    ``fd``. ``pid`` and ``fd`` are None once the child is reaped and the
    pipe closed. A refused fork raises its ``OSError``."""

    __slots__ = ("pid", "fd")

    def __init__(self, paths: list[str], cpu: int) -> None:
        # ``pickle`` and ``signal`` load on a parallel rebuild's first use,
        # so a run, and a rebuild in one process, pay neither their import
        # time nor their memory.
        import pickle

        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            # The child never returns, raises, prints or runs exit handlers:
            # its exit code and the bytes in the pipe are all it leaves.
            code = 1
            try:
                os.close(r)
                _pin({cpu})
                data = pickle.dumps(_decode_files(paths), pickle.HIGHEST_PROTOCOL)
                with open(w, "wb") as fh:
                    fh.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.pid, self.fd = pid, r

    def result(self) -> list[list[tuple]]:
        """The child's columns; raises if it sent a pickle that does not
        load or exited non-zero."""
        import pickle

        with open(self.fd, "rb") as fh:
            self.fd = None
            # Loaded from the pipe as it arrives; the pickle's bytes are
            # never held whole.
            got = pickle.load(fh)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status:
            raise ChildProcessError(f"a block-file decoder ended with status {status}")
        return got

    def stop(self) -> None:
        """Close the pipe, then kill and reap the child."""
        import signal

        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _block_columns(run_dir: str, n_shards: int) -> list[tuple]:
    """Decode and check every line of a run's block files, keeping of each
    block only its columns: (sort time, shard, height, block kind, kinds,
    originals' hashes, payers, payees, inject times), the last five one
    tuple each over the block's transactions. The sort time is the line's
    commit_time, or the block's own timestamp where the line gives none.
    The columns come in shard order, each file's in line order.

    The files are placed whole into ``_decoders`` groups (``_groups``).
    Forked children decode every group but the first, the lightest, which
    this process decodes meanwhile, since it also unpickles the children's
    columns afterwards. The i-th child pins itself to the i-th usable CPU,
    this process to the first for its own group, after which it restores
    the mask it had: left to the scheduler, a child often starts on its
    parent's CPU and the groups run one after the other. With one decoder
    (one usable CPU, a single shard, no ``fork``, or other threads running)
    this process decodes every file itself and pins nothing.
    Any error of the parallel pass, in a child or here, kills and reaps the
    children, and the whole decode is redone in this process, which raises
    what a one-process pass raises; an interrupt kills and reaps them too,
    then propagates. Each decoded block is let go once its columns are
    taken."""
    paths = [os.path.join(run_dir, f"blocks_shard{k}.jsonl") for k in range(n_shards)]
    own, *rest = _groups(paths, _decoders(n_shards))
    if rest:
        decoders: list[_Decoder] = []
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        try:
            for group, cpu in zip(rest, cpus[1:]):
                decoders.append(_Decoder(group, cpu))
            _pin({cpus[0]})
            try:
                files = _decode_files(own)
            finally:
                _pin(mask)
            for decoder in decoders:
                files += decoder.result()
            by_path = dict(zip([path for group in (own, *rest) for path in group], files))
            return [cols for path in paths for cols in by_path[path]]
        except Exception:
            pass
        finally:
            for decoder in decoders:
                decoder.stop()
    return [cols for columns in _decode_files(paths) for cols in columns]


@_gc_paused()
def report_from_blocks(run_dir: str) -> dict:
    """Rebuild the metric reports from a run directory's block files.

    Injection records are inferred from the committed transactions
    themselves: a whole transaction stands for its own original, of its
    own kind, and halves point at theirs, a cross-shard original, through
    the origin hash. The outputs land in a ``recomputed`` subdirectory of
    the run directory. Every shard's block file must be
    present; a missing one raises ``FileNotFoundError``, a line that does
    not decode to a block with matching hashes raises ``BadBlockFile``, and
    a damaged ``summary.json`` raises ``BadSummary``.

    Every line is decoded and checked whole, but the rebuild keeps only
    each block's columns (``_block_columns``, in forked children where the
    host has CPUs to spare), never the decoded blocks.
    The blocks are ordered stably by (time, shard); in that order each
    transaction banks its original at its first appearance, in one loop
    over the columns (``MetricsLedger.record_committed``), and then the
    first block of each (shard, height) settles through
    ``MetricsLedger.settle_block``. The whole rebuild runs with the cyclic
    garbage collector paused.
    """
    cfg_echo = _config_echo(run_dir)
    ledger = MetricsLedger(cfg_echo["n_shards"], cfg_echo["epoch_ms"])
    blocks = _block_columns(run_dir, cfg_echo["n_shards"])
    blocks.sort(key=lambda cols: (cols[0], cols[1]))

    ledger.record_committed(cols[4:] for cols in blocks)

    settled = ledger.blocks
    for commit_time, shard, height, block_kind, kinds, keys, *_ in blocks:
        if (shard, height) not in settled:
            ledger.settle_block(shard, height, block_kind, commit_time, 0, kinds, keys)
    del blocks

    out_dir = os.path.join(run_dir, "recomputed")
    summary = ledger.write_reports(out_dir, cfg_echo)
    return summary


# -- real-network runner --


def _is_address(value: Any) -> bool:
    """Whether ``value`` is a ``"host:port"`` string a mesh can listen on."""
    host, _, port = value.rpartition(":") if isinstance(value, str) else ("", "", "")
    return bool(host) and port.isascii() and port.isdigit() and int(port) < 65536


class TcpRunner:
    """Whole-run orchestration over loopback/LAN TCP, every node on the
    calling thread (``TcpLoop``). The ip table must be a JSON object that
    maps the supervisor and every replica, and nothing else, to a
    ``"host:port"`` string; any other table is a ``ConfigError``."""

    def __init__(self, cfg: RunConfig) -> None:
        if cfg.tcp is None:
            raise ConfigError("TcpRunner needs a tcp transport section")
        if cfg.dataset_path is None:
            raise MissingKey("dataset_path")
        self.cfg = cfg
        path = cfg.tcp.ip_table
        try:
            with open(path, "r", encoding="utf-8") as fh:
                table = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read ip_table {path}: {exc}") from None
        if not isinstance(table, dict) or not all(map(_is_address, table.values())):
            raise ConfigError(f'ip_table {path} is not a JSON object of "host:port" strings')
        nids = {SUPERVISOR_ID, *(node_id(k, i) for k in range(cfg.n_shards)
                                 for i in range(cfg.nodes_per_shard))}
        if table.keys() != nids:
            raise ConfigError(f"ip_table {path} must name exactly the supervisor and every "
                              f"replica: missing {sorted(nids - table.keys())}, "
                              f"unknown {sorted(table.keys() - nids)}")
        self.ip_table: dict[str, str] = table

    def execute(self) -> RunResult:
        cfg = self.cfg
        loop = TcpLoop()
        supervisor, replicas = build_nodes(cfg, loop)
        put = loop.inbox.put
        wall_s = (cfg.stop.wall_ms / 1000 + 5) if cfg.stop.wall_ms else 120
        try:
            for nid in self.ip_table:
                loop.meshes[nid] = TcpMesh(nid, self.ip_table,
                                           lambda env, nid=nid: put((nid, env)))
            hung = loop.serve(time.monotonic() + wall_s)
        finally:
            close_meshes(loop.meshes.values())
        if hung:
            supervisor.ledger.degraded = True
            supervisor.ledger.notes.append(f"tcp nodes still running at teardown: {hung}")
        result = _finish(cfg, supervisor, replicas)
        loop.release()
        return result

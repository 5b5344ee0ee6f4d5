"""Message envelopes, wire codec, and the two network backends.

Every message is an envelope ``{"type", "sender", "body"}`` serialized as
UTF-8 JSON behind a 4-byte big-endian length prefix. The simulated backend
delivers envelopes through a deterministic event heap on a virtual
millisecond clock; the TCP backend pushes the same frames over keep-alive
sockets. Node logic sees the same interface either way.
"""

from __future__ import annotations

import heapq
import json
import socket
import struct
import threading
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints

from .core import (
    AccountState,
    Block,
    Transaction,
    _digest,
    account_from_json,
    account_to_json,
    address_from_hex,
    address_to_hex,
    block_from_json,
    block_to_json,
    txs_from_json,
    txs_to_json,
)

SUPERVISOR_ID = "supervisor"

_LEN = struct.Struct("!I")


class FrameError(Exception):
    pass


class FrameTooShort(FrameError):
    """Buffer ends before the length prefix or the promised payload."""


class BadJson(FrameError):
    """Payload bytes are not a valid JSON envelope."""


class UnknownType(FrameError):
    """Envelope type is outside the closed message set."""


class UnknownPeer(Exception):
    """Destination id is not registered with the network."""


class PeerDown(Exception):
    """Destination is registered but its connection is gone (TCP only)."""


def node_id(shard: int, index: int) -> str:
    return f"{shard}.{index}"


def shard_of(nid: str) -> Optional[int]:
    """Shard number of a node id, None for the supervisor."""
    if nid == SUPERVISOR_ID:
        return None
    return int(nid.split(".", 1)[0])


# --- payload types ---


@dataclass(slots=True)
class InjectTxs:
    txs: list[Transaction]


@dataclass(slots=True)
class PrePrepare:
    block: Block


@dataclass(slots=True)
class Prepare:
    height: int
    view: int
    block_hash: bytes


@dataclass(slots=True)
class Commit:
    height: int
    view: int
    block_hash: bytes


@dataclass(slots=True)
class ViewChange:
    new_view: int
    height: int


@dataclass(slots=True)
class NewView:
    new_view: int
    height: int


@dataclass(slots=True)
class RelayCtx:
    """A batch of credit halves for one shard. ``taken`` is the receivers'
    memo, never encoded: None, or the shard's relay-dedupe record
    (``pbft.RelaySeen``) with a bitmask of its replicas that took the batch
    whole, every half new to them queued and none misrouted. One body
    object reaches every replica of its shard from every sender over the
    sim transport; a replica whose bit is set has nothing left to take from
    it (``BaseMechanism._on_relay``)."""

    source_shard: int
    txs: list[Transaction]
    taken: Optional[tuple[dict, int]] = field(default=None, init=False, compare=False,
                                              repr=False)


@dataclass(slots=True)
class PartitionResult:
    version: int
    overrides: dict[bytes, int]
    brokers: list[bytes]


@dataclass(slots=True)
class MigratedAccount:
    state: AccountState
    pending_txs: list[Transaction]


@dataclass(slots=True)
class AccountMigrate:
    version: int
    accounts: list[MigratedAccount]


@dataclass(slots=True)
class BlockInfo:
    """A replica's report of one committed block to the supervisor."""

    block: Block
    commit_time: int
    pool_size: int
    version: int


@dataclass(slots=True)
class Stop:
    pass


@dataclass(slots=True)
class Envelope:
    msg_type: str
    sender: str
    body: Any


# --- wire codec ---


_SCALAR_NAMES = {int: "an integer", str: "a string", type(None): "null"}


def _plain(name: str, hint: Any) -> tuple[Callable, Callable]:
    """The codec of a field that travels as a JSON scalar: encoded as is,
    decoded only if its JSON type fits the field's annotation (an int that
    is not a bool, a str, or null where the field is Optional), else
    ``ValueError``."""
    allowed = get_args(hint) if get_origin(hint) is Union else (hint,)
    if not set(allowed) <= set(_SCALAR_NAMES):
        raise TypeError(f"field {name} of type {hint} needs a codec")
    expected = " or ".join(_SCALAR_NAMES[t] for t in allowed)

    def decode(v: Any) -> Any:
        if type(v) not in allowed:
            raise ValueError(f"{name} must be {expected}, not {v!r}")
        return v

    return (lambda v: v), decode


def _record(cls, **codecs) -> tuple[Callable, Callable]:
    """(encode, decode) for one payload dataclass. Its ``init`` fields go
    out as JSON keys in declaration order; the fields named in ``codecs``
    pass through their own (encode, decode) pair, the rest are JSON scalars
    checked against their annotations (see ``_plain``). A field outside
    ``__init__`` is local state and does not travel."""
    hints = get_type_hints(cls)
    pairs = [(f.name, codecs[f.name] if f.name in codecs else _plain(f.name, hints[f.name]))
             for f in fields(cls) if f.init]

    def encode(obj: Any) -> dict:
        return {n: enc(getattr(obj, n)) for n, (enc, _) in pairs}

    def decode(obj: dict) -> Any:
        return cls(**{n: dec(obj[n]) for n, (_, dec) in pairs})

    return encode, decode


def _list(codec: tuple[Callable, Callable]) -> tuple[Callable, Callable]:
    encode, decode = codec
    return (lambda xs: [encode(x) for x in xs]), (lambda xs: [decode(x) for x in xs])


_HEX = (bytes.hex, lambda raw: _digest(raw, "block_hash"))
_ADDR = (address_to_hex, address_from_hex)
_SHARD = _plain("shard", int)[1]
_ADDR_MAP = (
    lambda m: {address_to_hex(a): s for a, s in m.items()},
    lambda m: {address_from_hex(a): _SHARD(s) for a, s in m.items()},
)
_TXS = (txs_to_json, txs_from_json)

# One entry per message type: the codec of its payload dataclass.
_BLOCK = (block_to_json, block_from_json)
_PAYLOADS = {
    "inject_txs": _record(InjectTxs, txs=_TXS),
    "preprepare": _record(PrePrepare, block=_BLOCK),
    "prepare": _record(Prepare, block_hash=_HEX),
    "commit": _record(Commit, block_hash=_HEX),
    "view_change": _record(ViewChange),
    "new_view": _record(NewView),
    "relay_ctx": _record(RelayCtx, txs=_TXS),
    "partition_result": _record(PartitionResult, overrides=_ADDR_MAP, brokers=_list(_ADDR)),
    "account_migrate": _record(
        AccountMigrate,
        accounts=_list(
            _record(MigratedAccount, state=(account_to_json, account_from_json), pending_txs=_TXS)
        ),
    ),
    "block_info": _record(BlockInfo, block=_BLOCK),
    "stop": _record(Stop),
}

MSG_TYPES = frozenset(_PAYLOADS)


def encode_frame(env: Envelope) -> bytes:
    """Length-prefixed UTF-8 JSON for one envelope."""
    if env.msg_type not in MSG_TYPES:
        raise UnknownType(env.msg_type)
    body = _PAYLOADS[env.msg_type][0](env.body)
    payload = json.dumps(
        {"type": env.msg_type, "sender": env.sender, "body": body}, separators=(",", ":")
    ).encode("utf-8")
    return _LEN.pack(len(payload)) + payload


def decode_frame(data: bytes) -> Envelope:
    """Parse one complete frame. Raises FrameTooShort on truncation, BadJson
    on an undecodable payload or a body that does not fit its type,
    UnknownType outside the message set."""
    if len(data) < _LEN.size:
        raise FrameTooShort(f"{len(data)} bytes is shorter than the length prefix")
    (size,) = _LEN.unpack_from(data)
    if len(data) < _LEN.size + size:
        raise FrameTooShort(f"frame promises {size} payload bytes, got {len(data) - _LEN.size}")
    raw = data[_LEN.size : _LEN.size + size]
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadJson(str(exc)) from None
    if not isinstance(obj, dict) or "type" not in obj or "sender" not in obj or "body" not in obj:
        raise BadJson("envelope must carry type, sender and body")
    msg_type = obj["type"]
    if msg_type not in MSG_TYPES:
        raise UnknownType(str(msg_type))
    try:
        body = _PAYLOADS[msg_type][1](obj["body"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadJson(f"{msg_type} body: {exc!r}") from None
    return Envelope(msg_type=msg_type, sender=obj["sender"], body=body)


# --- broadcast ---


class Fanout:
    """Shard and whole-run broadcasts as one ``send`` per recipient, shared
    by both backends. A backend provides ``send``, ``shard_members`` (each
    shard's node ids) and ``peers`` (keyed by every node id, in broadcast
    order). A broadcast skips its sender unless ``include_self`` is set."""

    shard_members: dict[int, list[str]]
    peers: dict[str, Any]

    def broadcast_shard(self, shard: int, env: Envelope, include_self: bool = False) -> None:
        for nid in self.shard_members.get(shard, ()):
            if not include_self and nid == env.sender:
                continue
            self.send(nid, env)

    def broadcast_all(self, env: Envelope) -> None:
        for nid in self.peers:
            if nid != env.sender:
                self.send(nid, env)


# --- simulated backend ---

_EV_MSG = 0
_EV_TIMER = 1
_EV_CRASH = 2


class SimNetwork(Fanout):
    """Deterministic discrete-event delivery on a virtual millisecond clock.

    Events are ordered by (time, enqueue sequence), so equal-time events
    fire in the order they were scheduled. Latency is either a fixed value
    or an inclusive uniform integer range drawn from a seeded generator.
    Envelopes travel by reference; handlers must treat them as read-only.
    """

    def __init__(
        self,
        latency_ms: int | tuple[int, int] = 5,
        seed: int = 0,
    ) -> None:
        import random

        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, int, str, Any]] = []
        self.peers: dict[str, Any] = {}  # node id -> handler
        self.shard_members: dict[int, list[str]] = {}
        self.crashed: set[str] = set()
        self._rng = random.Random(seed)
        if isinstance(latency_ms, int):
            self._lat_lo = self._lat_hi = latency_ms
        else:
            self._lat_lo, self._lat_hi = latency_ms
            if self._lat_lo > self._lat_hi:
                raise ValueError("latency range inverted")
        self.delivered = 0

    def register(self, nid: str, handler: Any, shard: Optional[int] = None) -> None:
        self.peers[nid] = handler
        if shard is not None:
            self.shard_members.setdefault(shard, []).append(nid)

    def release(self) -> None:
        """Drop the handler table of a finished run. Every node holds this
        network as its ``net``, so the table would keep the run's nodes in
        a reference cycle that only a full collection frees; without it,
        dropping the nodes frees them. The clock, the counters and the
        membership lists stay; an event still queued finds no handler."""
        self.peers = {}

    def _latency(self) -> int:
        if self._lat_lo == self._lat_hi:
            return self._lat_lo
        return self._rng.randint(self._lat_lo, self._lat_hi)

    def _put(self, at: int, kind: int, target: str, payload: Any) -> None:
        heapq.heappush(self._heap, (at, self._seq, kind, target, payload))
        self._seq += 1

    def send(self, to: str, env: Envelope) -> None:
        if to not in self.peers:
            raise UnknownPeer(to)
        if env.sender in self.crashed:
            return
        self._put(self.now + self._latency(), _EV_MSG, to, env)

    def schedule(self, nid: str, at: int, tag: str, data: Any = None) -> None:
        """Arm a timer for a node at absolute virtual time ``at``."""
        self._put(max(at, self.now), _EV_TIMER, nid, (tag, data))

    def schedule_crash(self, nid: str, at: int) -> None:
        self._put(at, _EV_CRASH, nid, None)

    def step(self) -> Optional[tuple[int, str, Any]]:
        """Pop and dispatch the earliest event; None when the queue is empty."""
        if not self._heap:
            return None
        at, _, kind, target, payload = heapq.heappop(self._heap)
        self.now = at
        if kind == _EV_CRASH:
            self.crashed.add(target)
            return at, target, "crash"
        if target in self.crashed:
            return at, target, None
        handler = self.peers.get(target)
        if handler is None:
            return at, target, None
        if kind == _EV_MSG:
            self.delivered += 1
            handler.on_envelope(payload, at)
        else:
            tag, data = payload
            handler.on_timer(tag, data, at)
        return at, target, payload

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue, optionally stopping past a virtual time."""
        steps = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            steps += 1
        return steps


# --- TCP backend ---


def read_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    return buf


def read_frame(sock: socket.socket) -> Envelope:
    header = read_exact(sock, _LEN.size)
    (size,) = _LEN.unpack(header)
    payload = read_exact(sock, size)
    return decode_frame(header + payload)


class TcpMesh:
    """Keep-alive TCP connections between every pair of nodes.

    Each participant listens on its address from the ip table and dials
    peers lazily on first send, keeping the socket open afterwards.
    Inbound envelopes are decoded by reader threads and handed to a
    callback; ordering is per-connection FIFO as TCP provides. ``close``
    closes every socket, the accepted ones included.
    """

    def __init__(self, nid: str, ip_table: dict[str, str], on_envelope: Callable[[Envelope], None]) -> None:
        if nid not in ip_table:
            raise UnknownPeer(nid)
        self.nid = nid
        self.ip_table = dict(ip_table)
        self._on_envelope = on_envelope
        self._out: dict[str, socket.socket] = {}
        self._in: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closing = False
        host, port = self._split(ip_table[nid])
        self._server = socket.create_server((host, port))
        self._server.settimeout(0.2)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    @staticmethod
    def _split(addr: str) -> tuple[str, int]:
        host, port = addr.rsplit(":", 1)
        return host, int(port)

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._in.add(conn)
            threading.Thread(target=self._read_loop, args=(conn,), daemon=True).start()

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            while not self._closing:
                env = read_frame(conn)
                self._on_envelope(env)
        except (ConnectionError, OSError):
            return
        finally:
            with self._lock:
                self._in.discard(conn)
            conn.close()

    def send(self, to: str, env: Envelope) -> None:
        if to not in self.ip_table:
            raise UnknownPeer(to)
        frame = encode_frame(env)
        with self._lock:
            sock = self._out.get(to)
            if sock is None:
                host, port = self._split(self.ip_table[to])
                try:
                    sock = socket.create_connection((host, port), timeout=5.0)
                except OSError as exc:
                    raise PeerDown(f"{to}: {exc}") from None
                self._out[to] = sock
            try:
                sock.sendall(frame)
            except OSError as exc:
                self._out.pop(to, None)
                try:
                    sock.close()
                finally:
                    raise PeerDown(f"{to}: {exc}") from None

    def close(self) -> None:
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            for sock in self._out.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._out.clear()
            for conn in self._in:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes its blocked reader
                except OSError:
                    pass
                conn.close()
            self._in.clear()

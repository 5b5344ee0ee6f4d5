"""Run configuration: parsing, validation, defaults, and echoing.

Configs are JSON objects. Unknown keys anywhere are rejected rather than
ignored so typos fail loudly. ``parse_config`` fills defaults and returns a
``RunConfig`` whose ``echo()`` is embedded verbatim in summary.json.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from .core import ADDRESS_SIZE, address_from_hex


class ConfigError(Exception):
    """Any configuration problem; maps to exit code 2."""


class MissingKey(ConfigError):
    def __init__(self, key: str) -> None:
        super().__init__(f"missing required config key: {key}")
        self.key = key


class BadValue(ConfigError):
    def __init__(self, key: str, why: str) -> None:
        super().__init__(f"bad value for {key}: {why}")
        self.key = key


class UnknownKey(ConfigError):
    def __init__(self, key: str) -> None:
        super().__init__(f"unknown config key: {key}")
        self.key = key


_NODE_ID_RE = re.compile(r"^(\d+)\.(\d+)$")
_TOP_K_RE = re.compile(r"^top:(\d+)$")


@dataclass
class SimTransport:
    latency_ms: Any = 5  # int, or (lo, hi) for uniform jitter
    seed: int = 0


@dataclass
class TcpTransport:
    ip_table: str = "ip_table.json"


@dataclass
class InjectionPlan:
    prefill: bool = False
    base_rate: float = 0.0
    ramp: float = 0.0
    batch_interval_ms: int = 250


@dataclass
class ClpaConfig:
    """beta damps the pull of already-loaded shards; rho is the number of
    rounds whose labelling ``mechanisms.clpa_partition`` returns, even
    though it stops at the first repeat. When the labellings settle into a
    2-cycle, as they mostly do at beta 0.5, the parity of rho picks which
    of the two."""

    beta: float = 0.5
    rho: int = 100


@dataclass
class StopRule:
    drain: bool = True
    wall_ms: Optional[int] = None


@dataclass
class FaultSpec:
    kind: str  # "crash" | "invalid_block"
    node: str  # "shard.index"
    at_ms: Optional[int] = None
    height: Optional[int] = None


@dataclass
class RunConfig:
    n_shards: int
    nodes_per_shard: int = 4
    block_size: int = 200
    block_interval_ms: int = 1000
    epoch_ms: int = 5000
    mechanism: str = "relay"
    partition: str = "static"
    brokers: list[bytes] = field(default_factory=list)
    brokers_top_k: Optional[int] = None
    injection: InjectionPlan = field(default_factory=lambda: InjectionPlan(prefill=True))
    pbft_view_change_timeout_ms: int = 0  # 0 means "10x block interval"
    clpa: ClpaConfig = field(default_factory=ClpaConfig)
    sim: Optional[SimTransport] = field(default_factory=SimTransport)
    tcp: Optional[TcpTransport] = None
    dataset_path: Optional[str] = None
    output_dir: Optional[str] = None
    stop: StopRule = field(default_factory=StopRule)
    pool_policy: str = "fifo"
    faults: list[FaultSpec] = field(default_factory=list)
    dataset_limit: Optional[int] = None

    @property
    def vc_timeout_ms(self) -> int:
        if self.pbft_view_change_timeout_ms > 0:
            return self.pbft_view_change_timeout_ms
        return 10 * self.block_interval_ms

    def echo(self) -> dict:
        """Normalized form embedded in summary.json."""
        inj: dict[str, Any]
        if self.injection.prefill:
            inj = {"prefill": True}
        else:
            inj = {
                "base_rate": self.injection.base_rate,
                "ramp": self.injection.ramp,
                "batch_interval_ms": self.injection.batch_interval_ms,
            }
        transport: dict[str, Any]
        if self.sim is not None:
            lat = self.sim.latency_ms
            transport = {
                "sim": {
                    "latency_ms": list(lat) if isinstance(lat, tuple) else lat,
                    "seed": self.sim.seed,
                }
            }
        else:
            transport = {"tcp": {"ip_table": self.tcp.ip_table}}
        out: dict[str, Any] = {
            "n_shards": self.n_shards,
            "nodes_per_shard": self.nodes_per_shard,
            "block_size": self.block_size,
            "block_interval_ms": self.block_interval_ms,
            "epoch_ms": self.epoch_ms,
            "mechanism": self.mechanism,
            "partition": self.partition,
            "brokers": (
                f"top:{self.brokers_top_k}"
                if self.brokers_top_k is not None
                else [b.hex() for b in self.brokers]
            ),
            "injection": inj,
            "pbft_view_change_timeout_ms": self.vc_timeout_ms,
            "clpa": {"beta": self.clpa.beta, "rho": self.clpa.rho},
            "transport": transport,
            "dataset_path": self.dataset_path,
            "output_dir": self.output_dir,
            "stop": (
                {"drain": self.stop.drain}
                | ({"wall_ms": self.stop.wall_ms} if self.stop.wall_ms is not None else {})
            ),
            "pool_policy": self.pool_policy,
            "faults": [
                {k: v for k, v in vars(f).items() if v is not None} for f in self.faults
            ],
        }
        if self.dataset_limit is not None:
            out["dataset_limit"] = self.dataset_limit
        return out


def _require(raw: dict, key: str) -> Any:
    if key not in raw:
        raise MissingKey(key)
    return raw[key]


def _int_at_least(raw: Any, key: str, floor: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise BadValue(key, f"expected integer, got {raw!r}")
    if raw < floor:
        raise BadValue(key, f"must be >= {floor}, got {raw}")
    return raw


def _number(raw: Any, key: str, floor: float = 0.0) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BadValue(key, f"expected number, got {raw!r}")
    if raw < floor:
        raise BadValue(key, f"must be >= {floor}, got {raw}")
    return float(raw)


def _check_keys(raw: dict, allowed: set[str], where: str) -> None:
    for key in raw:
        if key not in allowed:
            raise UnknownKey(f"{where}.{key}" if where else key)


def _parse_brokers(raw: Any) -> tuple[list[bytes], Optional[int]]:
    if isinstance(raw, str):
        m = _TOP_K_RE.match(raw)
        if not m or int(m.group(1)) < 1:
            raise BadValue("brokers", f"expected address list or 'top:K', got {raw!r}")
        return [], int(m.group(1))
    if not isinstance(raw, list):
        raise BadValue("brokers", f"expected address list or 'top:K', got {raw!r}")
    out = []
    for item in raw:
        try:
            addr = address_from_hex(item)
        except (TypeError, ValueError) as exc:
            raise BadValue("brokers", f"bad address {item!r}: {exc}") from exc
        if len(addr) != ADDRESS_SIZE:
            raise BadValue("brokers", f"address {item!r} is not {ADDRESS_SIZE} bytes")
        out.append(addr)
    if len(set(out)) != len(out):
        raise BadValue("brokers", "duplicate broker address")
    return sorted(out), None


def _parse_injection(raw: Any) -> InjectionPlan:
    if not isinstance(raw, dict):
        raise BadValue("injection", "expected an object")
    _check_keys(raw, {"prefill", "base_rate", "ramp", "batch_interval_ms"}, "injection")
    if raw.get("prefill"):
        if set(raw) - {"prefill"}:
            raise BadValue("injection", "prefill excludes rate-based keys")
        if raw["prefill"] is not True:
            raise BadValue("injection.prefill", "must be true when present")
        return InjectionPlan(prefill=True)
    if "base_rate" not in raw:
        raise MissingKey("injection.base_rate")
    return InjectionPlan(
        prefill=False,
        base_rate=_number(raw["base_rate"], "injection.base_rate"),
        ramp=_number(raw.get("ramp", 0.0), "injection.ramp"),
        batch_interval_ms=_int_at_least(
            raw.get("batch_interval_ms", 250), "injection.batch_interval_ms", 1
        ),
    )


def _parse_transport(raw: Any) -> tuple[Optional[SimTransport], Optional[TcpTransport]]:
    if raw is None:
        return SimTransport(), None
    if not isinstance(raw, dict):
        raise BadValue("transport", "expected an object")
    _check_keys(raw, {"sim", "tcp"}, "transport")
    if "sim" in raw and "tcp" in raw:
        raise BadValue("transport", "exactly one of sim or tcp")
    if "tcp" in raw:
        spec = raw["tcp"]
        if not isinstance(spec, dict):
            raise BadValue("transport.tcp", "expected an object")
        _check_keys(spec, {"ip_table"}, "transport.tcp")
        table = spec.get("ip_table", "ip_table.json")
        if not isinstance(table, str):
            raise BadValue("transport.tcp.ip_table", "expected a path string")
        return None, TcpTransport(ip_table=table)
    spec = raw.get("sim", {})
    if not isinstance(spec, dict):
        raise BadValue("transport.sim", "expected an object")
    _check_keys(spec, {"latency_ms", "seed"}, "transport.sim")
    lat: Any = spec.get("latency_ms", 5)
    if isinstance(lat, list):
        if (
            len(lat) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in lat)
            or not 0 <= lat[0] <= lat[1]
        ):
            raise BadValue("transport.sim.latency_ms", "expected int or [lo, hi]")
        lat = (lat[0], lat[1])
    else:
        lat = _int_at_least(lat, "transport.sim.latency_ms", 0)
    seed = raw.get("sim", {}).get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadValue("transport.sim.seed", "expected integer")
    return SimTransport(latency_ms=lat, seed=seed), None


def _parse_stop(raw: Any) -> StopRule:
    if raw is None:
        return StopRule()
    if not isinstance(raw, dict):
        raise BadValue("stop", "expected an object")
    _check_keys(raw, {"drain", "wall_ms"}, "stop")
    drain = raw.get("drain", "wall_ms" not in raw)
    if not isinstance(drain, bool):
        raise BadValue("stop.drain", "expected boolean")
    wall = raw.get("wall_ms")
    if wall is not None:
        wall = _int_at_least(wall, "stop.wall_ms", 1)
    if not drain and wall is None:
        raise BadValue("stop", "at least one of drain or wall_ms")
    return StopRule(drain=drain, wall_ms=wall)


def _parse_faults(raw: Any, n_shards: int, nodes_per_shard: int) -> list[FaultSpec]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise BadValue("faults", "expected a list")
    out: list[FaultSpec] = []
    for i, item in enumerate(raw):
        where = f"faults[{i}]"
        if not isinstance(item, dict):
            raise BadValue(where, "expected an object")
        kind = item.get("kind")
        if kind == "crash":
            _check_keys(item, {"kind", "node", "at_ms"}, where)
            if "at_ms" not in item:
                raise MissingKey(f"{where}.at_ms")
            spec = FaultSpec(
                kind="crash",
                node=str(item.get("node", "")),
                at_ms=_int_at_least(item["at_ms"], f"{where}.at_ms", 0),
            )
        elif kind == "invalid_block":
            _check_keys(item, {"kind", "node", "height"}, where)
            if "height" not in item:
                raise MissingKey(f"{where}.height")
            spec = FaultSpec(
                kind="invalid_block",
                node=str(item.get("node", "")),
                height=_int_at_least(item["height"], f"{where}.height", 1),
            )
        else:
            raise BadValue(f"{where}.kind", f"expected crash or invalid_block, got {kind!r}")
        m = _NODE_ID_RE.match(spec.node)
        if not m:
            raise BadValue(f"{where}.node", f"expected 'shard.index', got {spec.node!r}")
        shard, idx = int(m.group(1)), int(m.group(2))
        if shard >= n_shards or idx >= nodes_per_shard:
            raise BadValue(f"{where}.node", f"{spec.node} outside the node grid")
        out.append(spec)
    return out


_TOP_LEVEL = {
    "n_shards", "nodes_per_shard", "block_size", "block_interval_ms", "epoch_ms",
    "mechanism", "partition", "brokers", "injection", "pbft_view_change_timeout_ms",
    "clpa", "transport", "dataset_path", "output_dir", "stop", "pool_policy",
    "faults", "dataset_limit",
}


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise BadValue("<root>", "config must be a JSON object")
    _check_keys(raw, _TOP_LEVEL, "")

    n_shards = _int_at_least(_require(raw, "n_shards"), "n_shards", 1)
    nodes = _int_at_least(raw.get("nodes_per_shard", 4), "nodes_per_shard", 1)
    theta = _int_at_least(raw.get("block_size", 200), "block_size", 1)
    delta = _int_at_least(raw.get("block_interval_ms", 1000), "block_interval_ms", 1)
    epoch = _int_at_least(raw.get("epoch_ms", 5000), "epoch_ms", 1)

    mechanism = raw.get("mechanism", "relay")
    if mechanism not in ("relay", "broker"):
        raise BadValue("mechanism", f"expected relay or broker, got {mechanism!r}")
    partition = raw.get("partition", "static")
    if partition not in ("static", "clpa"):
        raise BadValue("partition", f"expected static or clpa, got {partition!r}")

    brokers, top_k = _parse_brokers(raw.get("brokers", []))
    if mechanism == "broker" and not brokers and top_k is None:
        raise BadValue("brokers", "broker mechanism needs broker accounts")

    injection = _parse_injection(raw.get("injection", {"prefill": True}))
    vc_timeout = _int_at_least(
        raw.get("pbft_view_change_timeout_ms", 0), "pbft_view_change_timeout_ms", 0
    )

    clpa_raw = raw.get("clpa", {})
    if not isinstance(clpa_raw, dict):
        raise BadValue("clpa", "expected an object")
    _check_keys(clpa_raw, {"beta", "rho"}, "clpa")
    clpa = ClpaConfig(
        beta=_number(clpa_raw.get("beta", 0.5), "clpa.beta"),
        rho=_int_at_least(clpa_raw.get("rho", 100), "clpa.rho", 1),
    )
    if clpa.beta >= 1.0:
        raise BadValue("clpa.beta", "damping must stay below 1")

    sim, tcp = _parse_transport(raw.get("transport"))

    dataset_path = raw.get("dataset_path")
    if dataset_path is not None and not isinstance(dataset_path, str):
        raise BadValue("dataset_path", "expected a path string")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise BadValue("output_dir", "expected a path string")

    stop = _parse_stop(raw.get("stop"))

    policy = raw.get("pool_policy", "fifo")
    if policy not in ("fifo", "fee"):
        raise BadValue("pool_policy", f"expected fifo or fee, got {policy!r}")

    faults = _parse_faults(raw.get("faults"), n_shards, nodes)
    if faults and nodes < 4:
        raise BadValue("faults", "fault tolerance needs at least 4 nodes per shard")
    if faults and tcp is not None:
        raise BadValue("faults", "fault scripts need the deterministic sim transport")

    limit = raw.get("dataset_limit")
    if limit is not None:
        limit = _int_at_least(limit, "dataset_limit", 1)

    return RunConfig(
        n_shards=n_shards,
        nodes_per_shard=nodes,
        block_size=theta,
        block_interval_ms=delta,
        epoch_ms=epoch,
        mechanism=mechanism,
        partition=partition,
        brokers=brokers,
        brokers_top_k=top_k,
        injection=injection,
        pbft_view_change_timeout_ms=vc_timeout,
        clpa=clpa,
        sim=sim,
        tcp=tcp,
        dataset_path=dataset_path,
        output_dir=output_dir,
        stop=stop,
        pool_policy=policy,
        faults=faults,
        dataset_limit=limit,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)

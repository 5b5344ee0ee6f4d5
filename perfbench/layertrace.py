"""Per-layer tracing from outside the emulator.

``install`` wraps public functions and methods of the ``shardemu`` modules
in spans; ``layer_metrics`` turns the spans, the program's own public
counters and a replay of the captured envelopes through the wire codec
into the per-layer metrics. Nothing under ``src/`` is changed: module
functions are rebound in every ``shardemu`` namespace that imported them,
methods are replaced on their classes.

A span's self time is its duration minus the time of the spans it
contains. Per-transaction functions are deliberately left unwrapped (their
call counts would dominate the traced run); their work is counted from the
arguments of the per-block callers instead.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

from shardemu import (
    core,
    dataset,
    harness,
    mechanisms,
    metrics,
    oracle,
    pbft,
    supervisor,
    transport,
    txpool,
)

CountHook = Callable[[tuple, Any], dict]


class Tracer:
    """Span statistics keyed by span name: calls, self seconds, counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        # One [name, child seconds] frame per open span.
        self._stack: list[list] = []
        # Every distinct envelope handed to SimNetwork.send, by identity.
        self.envelopes: dict[int, Any] = {}

    def _account(self, name: str, frame: list, elapsed: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _add(self, name: str, counts: dict) -> None:
        for key, n in counts.items():
            key = f"{name}.{key}"
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, before: Optional[CountHook] = None,
             after: Optional[CountHook] = None) -> Callable:
        """Span around ``fn``. ``before(args, None)`` and ``after(args,
        result)`` return counts to add under the span's name. A call made
        while a span of the same name is innermost (an overriding method
        calling its base) is not counted again."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                self._add(name, before(args, None))
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self._account(name, frame, elapsed)
            if after is not None:
                self._add(name, after(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Span around each step of a generator function: its work happens
        when a caller pulls the next item, inside that caller's span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - t0
                    stack.pop()
                    self._account(name, frame, elapsed)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap the module function ``module.attr`` in a span."""
        original = getattr(module, attr)
        self.rebind(original, self.wrap(name, original, **hooks))

    @staticmethod
    def rebind(original: Callable, wrapped: Callable) -> None:
        """Replace ``original`` in every loaded shardemu namespace that
        holds it: importers bind module functions under their own names."""
        attr = original.__name__
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "shardemu" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap ``attr`` on ``cls`` and on every loaded subclass that
        overrides it."""
        classes = [cls] + [c for c in _all_subclasses(cls) if attr in vars(c)]
        for c in classes:
            setattr(c, attr, self.wrap(name, vars(c)[attr], **hooks))


def _all_subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the emulator."""
    fn = tracer.patch_function

    def root_work(args, _):
        state = args[0]
        # A cached root costs nothing; count only roots actually hashed.
        return {} if state._root is not None else {"computed": 1, "leaves": len(state)}

    fn(core, "compute_state_root", "core.compute_state_root", before=root_work)
    fn(core, "apply_txs", "core.apply_txs", before=lambda a, _: {"txs": len(a[1])})
    fn(core, "verify_block", "core.verify_block")
    fn(core, "replace_tx_list", "core.replace_tx_list", after=lambda a, r: {"txs": len(r)})
    fn(core, "block_to_json", "core.block_to_json")
    fn(core, "block_from_json", "core.block_from_json")
    fn(mechanisms, "clpa_partition", "mechanisms.clpa_partition")
    fn(oracle, "proximity_report", "oracle.proximity_report")
    tracer.rebind(dataset.load_dataset,
                  tracer.wrap_generator("dataset.load_dataset", dataset.load_dataset))

    meth = tracer.patch_method
    meth(txpool.TxPool, "remove_committed", "txpool.remove_committed",
         before=lambda a, _: {"offered": len(a[1])},
         after=lambda a, r: {"removed": r})
    meth(txpool.TxPool, "pack_block_txs", "txpool.pack_block_txs")
    meth(txpool.TxPool, "append_relays", "txpool.append_relays")
    meth(txpool.TxPool, "extract_for_migration", "txpool.extract_for_migration")
    meth(txpool.TxPool, "preload", "txpool.preload")
    for attr in ("op_mining", "op_verification", "op_confirmation",
                 "handle_inter_shard_msg", "evict_misplaced"):
        meth(mechanisms.BaseMechanism, attr, f"mechanisms.{attr}")
    meth(mechanisms.MigrationController, "on_commit", "mechanisms.migration_on_commit")
    meth(pbft.Replica, "on_envelope", "pbft.on_envelope")
    meth(pbft.Replica, "on_timer", "pbft.on_timer")
    meth(supervisor.Supervisor, "stamp_rows", "supervisor.stamp_rows",
         before=lambda a, _: {"rows": len(a[1])})
    meth(supervisor.Supervisor, "on_envelope", "supervisor.on_envelope")
    meth(supervisor.Supervisor, "on_timer", "supervisor.on_timer")
    meth(supervisor.Supervisor, "finalize", "supervisor.finalize")
    meth(transport.SimNetwork, "run", "transport.loop")
    meth(harness.Emulation, "execute", "harness.execute")
    meth(metrics.MetricsLedger, "record_injection", "metrics.record_injection")
    meth(metrics.MetricsLedger, "record_block", "metrics.record_block")
    meth(metrics.MetricsLedger, "write_reports", "metrics.write_reports")

    send = transport.SimNetwork.send
    envelopes = tracer.envelopes

    def capturing_send(net, to, env):
        envelopes[id(env)] = env
        return send(net, to, env)

    transport.SimNetwork.send = capturing_send


def codec_replay(envelopes) -> tuple[dict, list[str]]:
    """Encode and decode each captured envelope once, outside any timed
    region. Returns the codec metrics and any round-trip failures, checked
    on bytes: ``encode(decode(encode(e)))`` must equal ``encode(e)``."""
    frames = 0
    total = 0
    by_type = {t: 0 for t in sorted(transport.MSG_TYPES)}
    encode_s = decode_s = 0.0
    problems: list[str] = []
    for env in envelopes:
        t0 = time.perf_counter()
        raw = transport.encode_frame(env)
        t1 = time.perf_counter()
        back = transport.decode_frame(raw)
        t2 = time.perf_counter()
        encode_s += t1 - t0
        decode_s += t2 - t1
        if transport.encode_frame(back) != raw and len(problems) < 5:
            problems.append(f"{env.msg_type} from {env.sender} does not round-trip")
        frames += 1
        total += len(raw)
        by_type[env.msg_type] += len(raw)
    out = {
        "transport.codec.frames": frames,
        "transport.codec.bytes": total,
        "transport.codec.encode_s": encode_s,
        "transport.codec.decode_s": decode_s,
    }
    for msg_type, n in by_type.items():
        out[f"transport.codec.bytes.{msg_type}"] = n
    return out, problems


# Spans reported with calls and self time, and those reported by self time
# alone (called once or a handful of times per run).
CALL_SPANS = (
    "core.compute_state_root", "core.apply_txs", "core.verify_block",
    "core.replace_tx_list", "core.block_to_json", "core.block_from_json",
    "txpool.remove_committed", "txpool.pack_block_txs", "txpool.append_relays",
    "txpool.extract_for_migration",
    "mechanisms.op_mining", "mechanisms.op_verification", "mechanisms.op_confirmation",
    "mechanisms.handle_inter_shard_msg", "mechanisms.evict_misplaced",
    "mechanisms.migration_on_commit", "mechanisms.clpa_partition",
    "pbft.on_envelope", "pbft.on_timer",
    "supervisor.stamp_rows", "supervisor.on_envelope", "supervisor.on_timer",
    "metrics.record_injection", "metrics.record_block",
)
SELF_SPANS = (
    "txpool.preload", "supervisor.finalize", "metrics.write_reports",
    "oracle.proximity_report", "dataset.load_dataset",
)


def layer_metrics(tracer: Tracer, emu, summary: dict, events: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition, and codec problems."""
    out: dict[str, float] = {}
    for name in CALL_SPANS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    blocks = summary["blocks_committed"]
    rows = summary["counters"]["W"]
    for key in ("core.compute_state_root.leaves", "core.apply_txs.txs",
                "core.replace_tx_list.txs", "txpool.remove_committed.removed",
                "supervisor.stamp_rows.rows"):
        out[key] = tracer.counts.get(key, 0)
    out["core.roots_per_block"] = tracer.counts.get("core.compute_state_root.computed", 0) / blocks
    offered = tracer.counts.get("txpool.remove_committed.offered", 0)
    out["txpool.remove_committed.hit_ratio"] = (
        out["txpool.remove_committed.removed"] / offered if offered else 0.0
    )

    envelopes = list(tracer.envelopes.values())
    preprepares = sum(1 for e in envelopes if e.msg_type == "preprepare")
    # Views advanced, summed over replicas.
    out["pbft.view_changes"] = sum(r.view for r in emu.replicas.values())
    out["pbft.blocks_committed"] = blocks
    out["pbft.preprepares_per_commit"] = preprepares / blocks

    net = emu.net
    out["transport.events"] = events
    out["transport.delivered"] = net.delivered
    out["transport.msgs_per_block"] = net.delivered / blocks
    out["transport.loop.self_s"] = tracer.self_s.get("transport.loop", 0.0)
    out["harness.unattributed_s"] = tracer.self_s.get("harness.execute", 0.0)

    codec, problems = codec_replay(envelopes)
    codec["transport.codec.bytes_per_row"] = codec["transport.codec.bytes"] / rows
    out.update(codec)
    return out, problems

"""Correctness gate applied to every repetition, and the output fingerprint.

The functions here take plain data (counters, root logs, digests) so the
gate can be exercised with doctored inputs as well as real runs.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Mapping, Sequence


def conservation_problems(c: Mapping[str, int]) -> list[str]:
    """Drained-run identities over the ledger counters X, Y, Z, U, V, W."""
    out = []
    if c["Z"] + c["Y"] != c["X"]:
        out.append(f"Z+Y != X ({c['Z']}+{c['Y']} != {c['X']})")
    if c["Z"] + 2 * c["Y"] != c["W"]:
        out.append(f"Z+2Y != W ({c['Z']}+2*{c['Y']} != {c['W']})")
    if not c["Y"] == c["U"] == c["V"]:
        out.append(f"Y, U, V differ ({c['Y']}, {c['U']}, {c['V']})")
    return out


def root_problems(root_logs: Mapping[str, Sequence[Sequence]]) -> list[str]:
    """Every replica's (height, root) log must be a prefix of the longest log
    of its shard: replicas agree at every height they committed, and one
    that stopped early (a crashed replica) holds a prefix. Entries may carry
    a trailing commit time, which is ignored: it differs between replicas
    under jittered delivery."""
    by_shard: dict[str, list[tuple[str, list[tuple]]]] = {}
    for nid, log in sorted(root_logs.items()):
        shard = nid.split(".")[0]
        by_shard.setdefault(shard, []).append((nid, [tuple(e[:2]) for e in log]))
    out = []
    for shard, logs in sorted(by_shard.items()):
        ref_nid, ref = max(logs, key=lambda item: len(item[1]))
        for nid, log in logs:
            for entry, ref_entry in zip(log, ref):
                if entry != ref_entry:
                    out.append(
                        f"shard {shard}: {nid} has {entry} where {ref_nid} has {ref_entry}"
                    )
                    break
    return out


def report_problems(run: Mapping[str, int], recomputed: Mapping[str, int]) -> list[str]:
    """``report_from_blocks`` must rebuild the run's own counters."""
    if dict(run) != dict(recomputed):
        return [f"recomputed counters {dict(recomputed)} != run counters {dict(run)}"]
    return []


def run_outcome(result, recomputed: Mapping) -> dict:
    """What the gate needs from a finished run: its ``RunResult`` and the
    summary ``report_from_blocks`` rebuilt from its block files."""
    return {
        "exit_code": result.exit_code,
        "counters": result.summary["counters"],
        "unconfirmed": result.summary["unconfirmed"],
        "root_logs": result.root_logs(),
        "report_counters": recomputed["counters"],
    }


def outcome_problems(outcome: Mapping) -> list[str]:
    """Every check on one repetition; an empty list means it passed."""
    out = []
    if outcome["exit_code"] != 0:
        out.append(f"exit code {outcome['exit_code']}")
    out += conservation_problems(outcome["counters"])
    out += root_problems(outcome["root_logs"])
    out += report_problems(outcome["counters"], outcome["report_counters"])
    return out


def failed_originals(outcome: Mapping, problems: Sequence[str]) -> int:
    """Unconfirmed originals count as failed; so do all originals of a run
    that fails any check."""
    if problems:
        return outcome["counters"]["X"]
    return outcome["unconfirmed"]


def fingerprint(run_dir: str) -> str:
    """SHA-256 over the run's report CSVs and block files, by file name.

    ``summary.json`` is left out because it echoes the run's paths, and so
    is the ``recomputed`` subdirectory."""
    names = sorted(
        n
        for n in os.listdir(run_dir)
        if n.endswith(".csv") or (n.startswith("blocks_shard") and n.endswith(".jsonl"))
    )
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def fingerprint_problems(fingerprints: Iterable[str]) -> list[str]:
    """All repetitions of one workload and seed must write the same bytes."""
    distinct = sorted(set(fingerprints))
    if len(distinct) > 1:
        return [f"output fingerprints differ across repetitions: {distinct}"]
    return []

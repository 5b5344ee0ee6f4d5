"""Paired benchmark of two revisions, in alternating fresh processes on one host.

Both revisions are checked out with ``git worktree add`` into a temporary
directory (local only; the worktrees are removed at exit, also on an error
or an interrupt). Each pair then runs both trees, one after the other: the
base first in even pairs (0, 2, ...), the head first in odd ones. Per tree,
a pair runs

- one ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` for
  each workload the base tree's ``BENCHMARK.json`` lists, or for each one
  named by ``--workload`` (repeatable), and
- unless ``--desk-shards 0``, one ``scripts/desk_bench.py --shards N
  --repeat 1`` (the desk protocol at N shards, one run with ``output_dir``
  and one without),

each tree with its own copy of these scripts, which run that tree's
``src``. After the pairs, ``scripts/same_bytes.py`` runs once per tree.

Next to each workload's scaled metrics, the summary compares its raw mean
phase walls, ``raw_setup_s``, ``raw_run_s`` and ``raw_report_s``, and the
mean time of the reference workload they are scaled by,
``raw_reference_s``, all read from the ``measured:`` line
``perfbench/run.py`` prints: a scaled time moves with the reference
workload too, and the raw walls show whether the phase itself moved, the
reference whether the scale did (as when the emulator's heap slows it).

For every metric the summary gives both medians over the pairs, their
ratio (head over base), the pairs the head won, tied and lost (lower is
better except where ``BENCHMARK.json`` or the desk row says higher), each
side's interquartile range, and whether the medians lie apart in the
head's favour by more than the base's interquartile range. It also says
whether each workload's output fingerprints and the ``same_bytes.py``
lines match between the trees; where either differs, it lists for each
config which keys of its ``same_bytes.py`` line differ
(``same_bytes_keys``), so a block-layout change, which moves ``sha256``
alone, shows apart from a changed result. ``--json`` writes the raw
values per pair with the summary.

Usage:

    python scripts/ab_bench.py --base HEAD~1 --pairs 10
    python scripts/ab_bench.py --base HEAD~1 --pairs 12 --workload clpa_rate_4 --desk-shards 0
    python scripts/ab_bench.py --base v1 --head v2 --pairs 10 --seed 13 --json ab.json

The exit code is 0 only if every invocation passed its own checks and
both trees wrote the same outputs: the same fingerprint per workload and
the same ``same_bytes.py`` lines, compared on the keys both trees print.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

# Desk-row metrics and which way is better.
DESK_METRICS = {"wall_s": "lower", "setup_s": "lower", "rows_per_s": "higher",
                "peak_rss_mb": "lower", "report_s": "lower"}
# The unscaled mean phase walls of a perfbench invocation and its mean
# reference time, from its ``measured:`` line. Scaled times divide by the
# reference workload's time, which itself moves with the emulator's heap;
# the raw walls and the reference tell that apart from a change in the
# phase itself.
RAW_METRICS = {"raw_setup_s": "lower", "raw_run_s": "lower", "raw_report_s": "lower",
               "raw_reference_s": "lower"}


def iqr(xs: list[float]) -> float:
    """Third quartile minus first, interpolated between the values
    themselves (as ``desk_bench.quartiles``); 0 for a single value."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def compare(base: list[float], head: list[float], better: str) -> dict:
    """Summary of one metric over paired values, pair i being
    ``(base[i], head[i])``. A pair is won when the head's value is better,
    tied when the two are equal, lost otherwise."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same positive number of base and head values")
    sign = 1 if better == "lower" else -1
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    ties = sum(1 for b, h in zip(base, head) if h == b)
    base_median, head_median = statistics.median(base), statistics.median(head)
    base_iqr = iqr(base)
    return {
        "better": better,
        "pairs": len(base),
        "base_median": base_median,
        "head_median": head_median,
        "ratio": head_median / base_median if base_median else None,
        "won": won,
        "ties": ties,
        "lost": len(base) - won - ties,
        "base_iqr": base_iqr,
        "head_iqr": iqr(head),
        "clears_base_iqr": sign * (base_median - head_median) > base_iqr,
    }


def _git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _python(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """A script of ``tree`` in a fresh interpreter, from the tree's root."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def raw_walls(lines: list[str]) -> dict[str, float]:
    """The mean phase walls and the mean reference time on a perfbench
    ``measured:`` line, as ``RAW_METRICS`` names them; empty when no line
    gives them, as when no repetition ran untraced.

    The line reads ``measured: mean wall setup_s 0.0839 s, run_s 0.6781 s,
    report_s 0.2155 s; mean reference 0.1019 s (nominal 0.15 s)``."""
    for line in lines:
        head, sep, tail = line.strip().partition("; mean reference ")
        if not (sep and head.startswith("measured: mean wall ")):
            continue
        items = head[len("measured: mean wall "):].split(", ")
        items.append("reference_s " + " ".join(tail.split()[:2]))
        walls = {}
        for item in items:
            name, value, unit = item.split()
            if unit == "s" and f"raw_{name}" in RAW_METRICS:
                walls[f"raw_{name}"] = float(value)
        return walls
    return {}


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation: its metric values, its raw phase
    walls (``raw_walls``), fingerprint and whether every repetition
    passed."""
    proc = _python(tree, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0")
    lines = proc.stdout.strip().splitlines()
    prints = [ln.split()[-1] for ln in lines if ln.strip().startswith("output fingerprint")]
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "why": tail[0], "metrics": {}, "raw": {},
                "fingerprint": None}
    return {"correct": proc.returncode == 0 and last["correct"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()},
            "raw": raw_walls(lines),
            "fingerprint": prints[0] if prints else None}


def run_desk(tree: Path, shards: int, out_dir: Path) -> dict:
    """One ``desk_bench.py --repeat 1`` invocation: its two run rows, keyed
    ``with_output`` and ``without_output``."""
    proc = _python(tree, "scripts/desk_bench.py", "--out", str(out_dir), "--shards",
                   str(shards), "--repeat", "1")
    rows = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    runs = {("with_output" if r["output_dir"] else "without_output"): r
            for r in rows if "runs" not in r}
    good = (proc.returncode == 0 and len(runs) == 2
            and all(r.get("exit") == 0 for r in runs.values()))
    return {"correct": good, "runs": runs}


def same_bytes_lines(tree: Path, out_dir: Path) -> list[str]:
    proc = _python(tree, "scripts/same_bytes.py", "--out", str(out_dir))
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return [f"same_bytes.py exited {proc.returncode}: {tail[0]}"]
    return proc.stdout.strip().splitlines()


def same_bytes_match(base: list[str], head: list[str]) -> bool:
    """Whether two trees' ``same_bytes.py`` lines agree: as many lines, and
    each pair of JSON lines equal under every key both print, so a base that
    predates a key (such as ``recomputed``) is compared on the rest. Lines
    that are not JSON objects must be equal as text."""
    if len(base) != len(head):
        return False
    for b, h in zip(base, head):
        try:
            b_obj, h_obj = json.loads(b), json.loads(h)
        except json.JSONDecodeError:
            b_obj, h_obj = b, h
        if isinstance(b_obj, dict) and isinstance(h_obj, dict):
            shared = b_obj.keys() & h_obj.keys()
            if not shared or any(b_obj[k] != h_obj[k] for k in shared):
                return False
        elif b != h:
            return False
    return True


def same_bytes_keys(base: list[str], head: list[str]) -> list[str]:
    """Per config, which keys of two trees' ``same_bytes.py`` lines differ,
    compared on the keys both print, as ``relay_50_s4: sha256 only; exit,
    reports, chain, recomputed match``: a block-layout change moves
    ``sha256`` alone, a changed result the other digests too. Lines that
    are not JSON objects are compared as text."""
    out = []
    for b, h in zip(base, head):
        try:
            b_obj, h_obj = json.loads(b), json.loads(h)
        except json.JSONDecodeError:
            b_obj = h_obj = None
        if not (isinstance(b_obj, dict) and isinstance(h_obj, dict)):
            out.append(f"{h}: {'same' if b == h else 'differs from ' + b}")
            continue
        name = b_obj.get("config")
        if h_obj.get("config") != name:
            name = f"{name} / {h_obj.get('config')}"
        shared = [k for k in b_obj if k in h_obj and k != "config"]
        differ = [k for k in shared if b_obj[k] != h_obj[k]]
        same = ", ".join(k for k in shared if k not in differ)
        if not differ:
            out.append(f"{name}: {same} match")
        elif same:
            out.append(f"{name}: {', '.join(differ)} only; {same} match")
        else:
            out.append(f"{name}: {', '.join(differ)} differ")
    if len(base) != len(head):
        out.append(f"{len(base)} lines base, {len(head)} head")
    return out


def chosen_workloads(spec: dict, names: Optional[list[str]]) -> list[str]:
    """The workloads to run: every one ``spec`` (a ``BENCHMARK.json``)
    lists, in its order, or ``names`` in the order given, each once."""
    listed = [w["name"] for w in spec["workloads"]]
    if not names:
        return listed
    unknown = sorted(set(names) - set(listed))
    if unknown:
        raise SystemExit(f"--workload {', '.join(unknown)}: not in BENCHMARK.json "
                         f"(it lists {', '.join(listed)})")
    return list(dict.fromkeys(names))


def run_pairs(trees: dict[str, Path], workloads: list[str], n_pairs: int, seed: int,
              seconds: float, desk_shards: int, tmp: Path) -> list[dict]:
    """The alternating pairs: per pair and tree, one ``run_perfbench`` per
    workload and, unless ``desk_shards`` is 0, one ``run_desk``. The base
    goes first in even pairs, the head in odd ones."""
    pairs = []
    for i in range(n_pairs):
        pair: dict = {"first": "base" if i % 2 == 0 else "head"}
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            tree = trees[side]
            got: dict = {"perfbench": {w: run_perfbench(tree, w, seed, seconds)
                                       for w in workloads}}
            if desk_shards:
                got["desk"] = run_desk(tree, desk_shards, tmp / f"desk-{side}-{i}")
            pair[side] = got
        pairs.append(pair)
        print(f"pair {i + 1}/{n_pairs} done ({pair['first']} first)", flush=True)
    return pairs


def _series(pairs: list[dict], side: str, *path: str) -> list:
    """The value at ``path`` in each pair's ``side``, None where that
    invocation gave none."""
    out = []
    for pair in pairs:
        value = pair[side]
        for key in path:
            value = value.get(key, {}) if isinstance(value, dict) else {}
        out.append(value if isinstance(value, (int, float)) else None)
    return out


def summarize(pairs: list[dict], workloads: dict[str, str], desk: bool) -> dict:
    """Per metric ``compare`` over the pairs in which both sides gave a value;
    ``workloads`` maps each end-to-end metric name to its better direction.
    Each workload's raw walls (``RAW_METRICS``) follow its scaled metrics."""
    metrics: list[tuple[str, tuple, str]] = []
    for workload in pairs[0]["base"]["perfbench"]:
        for name, better in workloads.items():
            metrics.append((f"{workload} {name}", ("perfbench", workload, "metrics", name),
                            better))
        for name, better in RAW_METRICS.items():
            metrics.append((f"{workload} {name}", ("perfbench", workload, "raw", name), better))
    if desk:
        for which in ("with_output", "without_output"):
            for name, better in DESK_METRICS.items():
                metrics.append((f"desk {which} {name}", ("desk", "runs", which, name), better))
    out = {}
    for label, path, better in metrics:
        both = [(b, h) for b, h in zip(_series(pairs, "base", *path), _series(pairs, "head", *path))
                if b is not None and h is not None]
        if both:
            out[label] = compare([b for b, _ in both], [h for _, h in both], better)
    return out


def _print_summary(summary: dict) -> None:
    for label, s in summary.items():
        ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "n/a"
        print(f"{label:<36} base {s['base_median']:<11.5g} head {s['head_median']:<11.5g} "
              f"ratio {ratio}  won {s['won']}/{s['pairs']} (ties {s['ties']})  "
              f"IQR base {s['base_iqr']:.4g} head {s['head_iqr']:.4g}  "
              f"clears base IQR: {'yes' if s['clears_base_iqr'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--head", default="HEAD", help="revision under test (default HEAD)")
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs to run")
    parser.add_argument("--seed", type=int, default=1, help="perfbench dataset seed")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="perfbench --seconds per invocation (at least 3 repetitions run)")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="a BENCHMARK.json workload to run (repeatable; default all)")
    parser.add_argument("--desk-shards", type=int, default=8,
                        help="shard count of the desk run in each pair; 0 runs none")
    parser.add_argument("--json", help="write the raw pairs and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.desk_shards < 0:
        parser.error("--desk-shards must be 0 (no desk run) or more")
    revs = {"base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "head": _git("rev-parse", "--verify", f"{args.head}^{{commit}}")}
    # A terminated run still removes its worktrees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        added = []
        try:
            for side, rev in revs.items():
                _git("worktree", "add", "--detach", str(trees[side]), rev)
                added.append(trees[side])
            spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
            workloads = chosen_workloads(spec, args.workload)
            directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
            pairs = run_pairs(trees, workloads, args.pairs, args.seed, args.seconds,
                              args.desk_shards, Path(tmp))
            same = {side: same_bytes_lines(trees[side], Path(tmp) / f"same-{side}")
                    for side in revs}
        finally:
            for tree in added:
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                str(tree)], capture_output=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)

    summary = summarize(pairs, directions, bool(args.desk_shards))
    failures = []
    for i, pair in enumerate(pairs):
        for side in revs:
            runs = dict(pair[side]["perfbench"])
            if "desk" in pair[side]:
                runs["desk"] = pair[side]["desk"]
            failures += [f"pair {i} {side} {what}" for what, run in runs.items()
                         if not run["correct"]]
    fingerprints = {w: {side: sorted({str(p[side]["perfbench"][w]["fingerprint"]) for p in pairs})
                        for side in revs} for w in workloads}
    prints_match = {w: f["base"] == f["head"] and "None" not in f["base"]
                    for w, f in fingerprints.items()}
    same_match = same_bytes_match(same["base"], same["head"])

    print(f"base {revs['base'][:12]}  head {revs['head'][:12]}  pairs {args.pairs}  "
          f"seed {args.seed}")
    _print_summary(summary)
    for w, ok in prints_match.items():
        print(f"{w} fingerprints: {'match' if ok else 'DIFFER'} "
              f"(base {fingerprints[w]['base']}, head {fingerprints[w]['head']})")
    print(f"same_bytes.py: {'match' if same_match else 'DIFFER'} "
          f"({len(same['base'])} lines base, {len(same['head'])} head)")
    keys = same_bytes_keys(same["base"], same["head"])
    if not (same_match and all(prints_match.values())):
        for line in keys:
            print(f"  {line}")
    for f in failures:
        print(f"FAILED: {f}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "base": revs["base"], "head": revs["head"], "seed": args.seed,
            "seconds": args.seconds, "workloads": workloads, "desk_shards": args.desk_shards,
            "pairs": pairs,
            "summary": summary, "fingerprints": fingerprints, "same_bytes": same,
            "same_bytes_match": same_match, "same_bytes_keys": keys,
            "failures": failures,
        }, indent=1) + "\n")
    return 0 if not failures and all(prints_match.values()) and same_match else 1


if __name__ == "__main__":
    raise SystemExit(main())

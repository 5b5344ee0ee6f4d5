"""End-to-end runs over the simulated transport: wiring, outputs, reruns."""

import contextlib
import dataclasses
import gc
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
import weakref
from collections import Counter

import pytest

import shardemu
from helpers import CreditIntake, addr, cfg_dict, relay_record_problems
from shardemu.checks import final_state_problems
from shardemu.config import ConfigError, MissingKey, parse_config
from shardemu import core, harness, mechanisms, txpool
from shardemu.core import DERIVED_KINDS, TxKind, block_from_json, block_line, compute_state_root
from shardemu.dataset import gen_dataset, load_dataset
from shardemu.harness import Emulation, report_from_blocks, run
from shardemu.metrics import MetricsLedger


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "transfers.csv"
    gen_dataset(str(path), accounts=40, txs=150, skew="uniform", seed=7)
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out)))
    return run(cfg), out


def _read_chain(out_dir, shard):
    blocks = []
    with open(out_dir / f"blocks_shard{shard}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            blocks.append((obj, block_from_json(obj)))
    return blocks


def test_run_drains_cleanly(tiny_run):
    result, _ = tiny_run
    assert result.exit_code == 0
    counters = result.summary["counters"]
    assert counters["X"] == 150
    assert counters["Z"] + counters["Y"] == counters["X"]
    assert counters["Z"] + 2 * counters["Y"] == counters["W"]
    assert counters["Y"] == counters["U"] == counters["V"]
    assert result.summary["unconfirmed"] == 0
    assert not result.summary["degraded"]
    assert "max_pct_distance" in result.summary["oracle"]


def test_report_files_and_headers(tiny_run):
    _, out = tiny_run
    expect = {
        "tps_epochs.csv": "epoch,start_ms,end_ms,credit,tps",
        "tcl.csv": "tx_hash,kind,inject_ms,confirm_ms,tcl_ms",
        "pool_size.csv": "time_ms,shard,size",
        "workload.csv": "shard,packed_txs,share",
    }
    for name, header in expect.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1, f"{name} has no data rows"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n_shards"] == 2


def _assert_linked(chain):
    """Heights run 1, 2, ... and each block names the one before it."""
    assert [blk.height for _, blk in chain] == list(range(1, len(chain) + 1))
    for (_, parent), (_, child) in zip(chain, chain[1:]):
        assert child.parent_hash == parent.hash


def test_block_files_form_valid_chains(tiny_run):
    result, out = tiny_run
    for shard in (0, 1):
        chain = _read_chain(out, shard)
        assert chain, "every shard committed something"
        _assert_linked(chain)
        confirms = [obj["commit_time"] for obj, _ in chain]
        assert confirms == sorted(confirms)

        # the stored roots are exactly what consensus agreed on
        log = result.replicas[f"{shard}.0"].root_log
        stored = [(blk.height, blk.state_root.hex()) for _, blk in chain]
        agreed = [(h, root) for h, root, _ in log]
        assert stored == agreed


def test_replicas_agree_within_each_shard(tiny_run):
    result, _ = tiny_run
    for shard in (0, 1):
        group = result.shard_replicas(shard)
        assert len(group) == 4
        logs = [r.root_log for r in group]
        assert all(log == logs[0] for log in logs)
        roots = {compute_state_root(r.state) for r in group}
        assert len(roots) == 1, "final states replicate exactly"


def test_pool_and_workload_accounting(tiny_run):
    result, out = tiny_run
    rows = (out / "workload.csv").read_text().splitlines()[1:]
    shares = [float(r.split(",")[2]) for r in rows]
    assert sum(shares) == pytest.approx(1.0)
    packed = sum(int(r.split(",")[1]) for r in rows)
    assert packed == result.summary["counters"]["W"]

    final_pool_rows = (out / "pool_size.csv").read_text().splitlines()[1:]
    last_by_shard = {}
    for row in final_pool_rows:
        _, shard, size = row.split(",")
        last_by_shard[shard] = int(size)
    assert set(last_by_shard.values()) == {0}, "a drained run ends with empty pools"


@pytest.fixture(autouse=True)
def _real_cpu_mask_kept():
    """A rebuild on a host faked by ``_on_cpus`` restores the faked mask,
    which on a host with more CPUs than faked differs from the real one:
    put the real one back after each test."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask, pin = os.sched_getaffinity(0), os.sched_setaffinity
    yield
    pin(0, mask)


def _on_cpus(monkeypatch, cpus):
    """Make the host offer ``cpus`` usable CPUs, and count the forks in the
    list returned. The thread count is pinned to 1, so a thread an earlier
    test left behind does not keep a rebuild in one process."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(harness.threading, "active_count", lambda: 1)
    return forks


def _rebuild_on(run_dir, monkeypatch, cpus):
    """``report_from_blocks`` on a host with ``cpus`` usable CPUs: its summary,
    the bytes of each ``recomputed/`` file, and how many children it forked."""
    with monkeypatch.context() as m:
        forks = _on_cpus(m, cpus)
        summary = report_from_blocks(str(run_dir))
    return summary, _recomputed_files(run_dir), len(forks)


def _recomputed_files(run_dir):
    return {p.name: p.read_bytes() for p in sorted((run_dir / "recomputed").iterdir())}


def _assert_no_child_left(capfd):
    """Every child the rebuild forked is reaped, and none printed."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


def _assert_rebuild_matches(result, out, monkeypatch, capfd):
    """The reports rebuilt from the block files equal the live ones: the
    counters, the cross-shard ratio, ``workload.csv`` and ``tps_epochs.csv``
    byte for byte, and ``tcl.csv`` up to its row order (the live file lists
    originals by injection, the rebuilt one by first commit). Rebuilt in
    one process and in several, the summary and every file are the same."""
    n_shards = result.summary["config"]["n_shards"]
    capfd.readouterr()
    serial = _rebuild_on(out, monkeypatch, 1)
    assert serial[2] == 0
    for cpus in sorted({2, n_shards}):
        parallel = _rebuild_on(out, monkeypatch, cpus)
        assert parallel[2] == cpus - 1
        assert parallel[:2] == serial[:2], f"{cpus} decoders"
        _assert_no_child_left(capfd)
    recomputed = serial[0]
    assert recomputed["counters"] == result.summary["counters"]
    assert recomputed["ctx_ratio"] == pytest.approx(result.summary["ctx_ratio"])
    sub = out / "recomputed"
    for name in ("tps_epochs.csv", "tcl.csv", "workload.csv", "summary.json"):
        assert (sub / name).exists()
    for name in ("workload.csv", "tps_epochs.csv"):
        assert (sub / name).read_bytes() == (out / name).read_bytes(), name
    live, rebuilt = ((d / "tcl.csv").read_text().splitlines() for d in (out, sub))
    assert live[0] == rebuilt[0] and sorted(live[1:]) == sorted(rebuilt[1:])
    assert len(live) == result.summary["counters"]["X"] - result.summary["unconfirmed"] + 1


def test_recomputed_reports_match_run(tiny_run, monkeypatch, capfd):
    result, out = tiny_run
    _assert_rebuild_matches(result, out, monkeypatch, capfd)


@pytest.fixture(scope="module")
def three_shard_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("three")
    cfg = parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out), n_shards=3))
    return run(cfg), out


def test_recomputed_reports_match_a_three_shard_run(three_shard_run, monkeypatch, capfd):
    """Three shards over two decoders split unevenly; over three, one each."""
    result, out = three_shard_run
    assert result.exit_code == 0
    _assert_rebuild_matches(result, out, monkeypatch, capfd)


def test_recomputed_reports_match_a_broker_run_with_a_crash(dataset, tmp_path, monkeypatch,
                                                             capfd):
    out = tmp_path / "broker"
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(out), mechanism="broker", brokers="top:4",
        transport={"sim": {"latency_ms": [1, 20], "seed": 0}},
        faults=[{"kind": "crash", "node": "0.1", "at_ms": 300}],
    ))
    result = run(cfg)
    assert result.exit_code == 0 and result.summary["counters"]["Y"] > 0
    assert result.replicas["0.1"].head.height < result.replicas["0.0"].head.height
    _assert_rebuild_matches(result, out, monkeypatch, capfd)


def _corrupt_lines(*where):
    """Give the height of each (shard, line index) a non-integer form."""
    def damage(run_dir):
        for shard, i in where:
            path = run_dir / f"blocks_shard{shard}.jsonl"
            lines = path.read_text().splitlines(keepends=True)
            lines[i] = lines[i].replace('"height": ', '"height": "', 1)
            path.write_text("".join(lines))
    return damage


def _remove_last_file(run_dir):
    (run_dir / "blocks_shard2.jsonl").unlink()


@pytest.mark.parametrize("damage, named", [
    (_corrupt_lines((0, 1), (2, -1)), "blocks_shard0.jsonl line 2: "),
    (_corrupt_lines((2, -1)), "blocks_shard2.jsonl line "),
    (_corrupt_lines((1, 0), (2, 0)), "blocks_shard1.jsonl line 1: "),
    (_remove_last_file, "blocks_shard2.jsonl"),
], ids=["first_slice", "last_slice", "two_children", "missing_last_file"])
def test_a_parallel_rebuild_raises_what_the_serial_one_raises(three_shard_run, tmp_path,
                                                             monkeypatch, capfd, damage, named):
    """The first error in shard order is raised, as the one-process pass
    raises it, and no child outlives the rebuild."""
    _, out = three_shard_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    damage(run_dir)
    capfd.readouterr()
    raised = []
    for cpus in (1, 2, 3):
        with pytest.raises((harness.BadBlockFile, FileNotFoundError)) as info:
            _rebuild_on(run_dir, monkeypatch, cpus)
        raised.append((type(info.value), str(info.value)))
        _assert_no_child_left(capfd)
    assert named in raised[0][1]
    assert raised == [raised[0]] * 3


def _fail_in_a_child(monkeypatch):
    parent, decode = os.getpid(), harness._decode_files

    def decode_here_only(*args):
        if os.getpid() != parent:
            raise RuntimeError("a child fails")
        return decode(*args)

    monkeypatch.setattr(harness, "_decode_files", decode_here_only)


def _send_a_short_pickle(monkeypatch):
    parent, dumps = os.getpid(), pickle.dumps

    def short_in_a_child(*args):
        data = dumps(*args)
        return data if os.getpid() == parent else data[: len(data) // 2]

    monkeypatch.setattr(pickle, "dumps", short_in_a_child)


def _refuse_to_fork(monkeypatch):
    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)


@pytest.mark.parametrize("fail", [_fail_in_a_child, _send_a_short_pickle, _refuse_to_fork])
def test_a_failed_child_leaves_its_slice_to_the_parent(three_shard_run, monkeypatch, capfd,
                                                      fail):
    _, out = three_shard_run
    capfd.readouterr()
    serial = _rebuild_on(out, monkeypatch, 1)
    with monkeypatch.context() as m:
        forks = _on_cpus(m, 3)
        fail(m)
        summary = report_from_blocks(str(out))
    assert len(forks) == (0 if fail is _refuse_to_fork else 2)
    assert summary == serial[0]
    assert _recomputed_files(out) == serial[1]
    _assert_no_child_left(capfd)


def _interrupted_here(monkeypatch, run_dir):
    """Interrupt this process as it starts decoding; children decode."""
    parent, decode = os.getpid(), harness._decode_files

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return decode(*args)

    monkeypatch.setattr(harness, "_decode_files", interrupted)
    return pytest.raises(KeyboardInterrupt)


def test_an_interrupted_rebuild_kills_and_reaps_its_children(three_shard_run, monkeypatch,
                                                             capfd):
    _, out = three_shard_run
    capfd.readouterr()
    with _interrupted_here(monkeypatch, out):
        _rebuild_on(out, monkeypatch, 3)
    _assert_no_child_left(capfd)


def _record_pins(monkeypatch, path, children=0):
    """Record each ``os.sched_setaffinity`` call, of this process and of its
    forked children, as a line of ``path``; no call changes a mask. Returns
    a reader giving this process's masks in call order, and each child's
    masks, sorted by child. Each call of this process, the first made once
    every child is forked, waits (up to 10 s) until ``children`` children
    have recorded theirs: a rebuild that ends on its first line would
    otherwise kill a child before the child pins, and which one it reaches
    first would depend on the scheduler."""
    parent = os.getpid()

    def pinned_children():
        lines = path.read_text().splitlines() if path.exists() else []
        return {line.split(" ")[0] for line in lines} - {str(parent)}

    def record(pid, cpus):
        if os.getpid() == parent and children:
            deadline = time.monotonic() + 10
            while len(pinned_children()) < children and time.monotonic() < deadline:
                time.sleep(0.005)
        line = f"{os.getpid()} {pid} {','.join(map(str, sorted(cpus)))}\n"
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def read():
        here, children = [], {}
        lines = path.read_text().splitlines() if path.exists() else []
        for line in lines:
            caller, pid, cpus = line.split(" ")
            assert pid == "0", "a decoder pins only itself"
            mask = {int(c) for c in cpus.split(",")}
            if int(caller) == os.getpid():
                here.append(mask)
            else:
                children.setdefault(int(caller), []).append(mask)
        return here, sorted(children.values(), key=lambda masks: sorted(masks[0]))

    monkeypatch.setattr(os, "sched_setaffinity", record)
    return read


# A usable set that is not 0..n-1, so a decoder placed by index, not by
# the CPUs the host offers, shows.
_USABLE = {3, 5, 8}


@pytest.mark.parametrize("cpus", [2, 3])
def test_each_decoder_runs_on_its_own_usable_cpu(three_shard_run, tmp_path, monkeypatch,
                                                 capfd, cpus):
    """The i-th child pins itself to the i-th usable CPU before it decodes,
    and this process to the first for its own slice, then restores its
    mask."""
    _, out = three_shard_run
    usable = set(sorted(_USABLE)[:cpus])
    capfd.readouterr()
    serial = _rebuild_on(out, monkeypatch, 1)
    with monkeypatch.context() as m:
        forks = _on_cpus(m, cpus)
        m.setattr(os, "sched_getaffinity", lambda pid: set(usable))
        pins = _record_pins(m, tmp_path / "pins")
        summary = report_from_blocks(str(out))
    here, children = pins()
    first, *others = sorted(usable)
    assert len(forks) == cpus - 1
    assert here == [{first}, usable]
    assert children == [[{cpu}] for cpu in others]
    assert (summary, _recomputed_files(out)) == serial[:2]
    _assert_no_child_left(capfd)


def _ends_cleanly(monkeypatch, run_dir):
    return contextlib.nullcontext()


def _a_child_fails(monkeypatch, run_dir):
    _fail_in_a_child(monkeypatch)
    return contextlib.nullcontext()


def _bad_first_line_of(shard):
    """Corrupt the first line of ``shard``'s block file."""
    def damage(monkeypatch, run_dir):
        _corrupt_lines((shard, 0))(run_dir)
        return pytest.raises(harness.BadBlockFile)
    return damage


@pytest.mark.parametrize("ending", [_ends_cleanly, _a_child_fails, _bad_first_line_of(0),
                                    _bad_first_line_of(2), _interrupted_here],
                         ids=["clean", "failed_child", "bad_own_slice", "bad_child_slice",
                              "interrupt"])
def test_the_parent_restores_its_mask_however_the_rebuild_ends(three_shard_run, tmp_path,
                                                               monkeypatch, capfd, ending):
    _, out = three_shard_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    capfd.readouterr()
    with monkeypatch.context() as m:
        forks = _on_cpus(m, 3)
        pins = _record_pins(m, tmp_path / "pins", children=2)
        with ending(m, run_dir):
            report_from_blocks(str(run_dir))
    here, children = pins()
    assert len(forks) == 2
    assert here == [{0}, {0, 1, 2}]
    assert children == [[{1}], [{2}]]
    _assert_no_child_left(capfd)


def test_a_refused_pin_leaves_the_rebuild_as_it_was(three_shard_run, monkeypatch, capfd):
    """Where ``sched_setaffinity`` fails, every process decodes unpinned:
    the same reports from as many children, none of which fails, so this
    process decodes its own slice only."""
    _, out = three_shard_run
    capfd.readouterr()
    serial = _rebuild_on(out, monkeypatch, 1)
    plain = _rebuild_on(out, monkeypatch, 3)
    parent, decode = os.getpid(), harness._decode_files
    calls = []

    def counting_decode(*args):
        if os.getpid() == parent:
            calls.append(1)
        return decode(*args)

    def refused(pid, cpus):
        raise OSError(22, "Invalid argument")

    with monkeypatch.context() as m:
        m.setattr(os, "sched_setaffinity", refused)
        m.setattr(harness, "_decode_files", counting_decode)
        refused_run = _rebuild_on(out, monkeypatch, 3)
    assert refused_run == plain
    assert refused_run[:2] == serial[:2] and refused_run[2] == 2
    assert len(calls) == 1
    _assert_no_child_left(capfd)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no os.sched_getaffinity")
def test_a_rebuild_leaves_the_real_cpu_mask_as_it_found_it(three_shard_run, monkeypatch,
                                                            capfd):
    _, out = three_shard_run
    monkeypatch.setattr(harness.threading, "active_count", lambda: 1)
    capfd.readouterr()
    before = os.sched_getaffinity(0)
    report_from_blocks(str(out))
    assert os.sched_getaffinity(0) == before
    _assert_no_child_left(capfd)


def test_one_decoder_per_usable_cpu_and_shard_unless_it_cannot_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(harness.threading, "active_count", lambda: 1)
    assert [harness._decoders(n) for n in (1, 3, 8)] == [1, 3, 4]
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert harness._decoders(8) == 1
    with monkeypatch.context() as m:
        m.setattr(harness.threading, "active_count", lambda: 2)
        assert harness._decoders(8) == 1, "another thread runs"
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as m:
            m.delattr(os, name)
            assert harness._decoders(8) == 1, f"no os.{name}"


def test_groups_place_each_file_whole_lightest_group_first(tmp_path):
    """Each file lies whole in one group, largest first into the group
    holding the fewest bytes; the groups come lightest first, each in file
    order, and a file that cannot be sized counts as 0 bytes."""
    def grouped(sizes, n):
        # Each file as its size in bytes; None: missing.
        where = tmp_path / str(len(list(tmp_path.iterdir())))
        where.mkdir()
        paths = []
        for k, size in enumerate(sizes):
            path = where / f"f{k}"
            if size is not None:
                path.write_bytes(b"x" * size)
            paths.append(str(path))
        groups = harness._groups(paths, n)
        assert sorted(p for group in groups for p in group) == sorted(paths), "each file once"
        return [[paths.index(p) for p in group] for group in groups]

    # Broker's skew, 2.0 / 2.0 / 2.35 / 3.4 MB: 4.35 | 5.4, where cuts
    # between whole files in shard order could do no better than 4.0 | 5.75.
    assert grouped([200, 200, 235, 340], 2) == [[0, 2], [1, 3]]
    assert grouped([200, 200, 235, 340], 4) == [[0], [1], [2], [3]]
    assert grouped([30, 10, 15], 2) == [[1, 2], [0]], "lightest group first, in file order"
    assert grouped([5, 5, 5], 1) == [[0, 1, 2]]
    assert grouped([8, None, 4], 2) == [[1, 2], [0]], "a missing file counts as 0 bytes"
    assert grouped([None, None, 4], 3) == [[0], [1], [2]], "no group is left empty"


def test_block_columns_are_the_same_at_every_cpu_count(three_shard_run, monkeypatch, capfd):
    """Decoded in one process, or in groups over two or three, the columns
    are one list: shard order, each file in line order."""
    _, out = three_shard_run
    paths = [str(out / f"blocks_shard{k}.jsonl") for k in range(3)]
    serial = [cols for columns in harness._decode_files(paths) for cols in columns]
    assert [cols[1] for cols in serial] == sorted(cols[1] for cols in serial)
    capfd.readouterr()
    for cpus in (1, 2, 3):
        with monkeypatch.context() as m:
            forks = _on_cpus(m, cpus)
            assert harness._block_columns(str(out), 3) == serial, f"{cpus} CPUs"
        assert len(forks) == cpus - 1
        _assert_no_child_left(capfd)


def test_damage_in_two_groups_raises_the_lower_shards_error(three_shard_run, tmp_path,
                                                            monkeypatch, capfd):
    """One damaged file in this process's group and a lower shard's in a
    child's: the rebuild raises the lower shard's ``BadBlockFile``, as one
    process raises it, and leaves no child behind."""
    _, out = three_shard_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    paths = [str(run_dir / f"blocks_shard{k}.jsonl") for k in range(3)]
    own, *rest = harness._groups(paths, 3)
    high = max(paths.index(p) for p in own)
    low = min(paths.index(p) for group in rest for p in group)
    assert low < high, "the lower shard's file lies in a child's group"
    _corrupt_lines((high, 1), (low, 2))(run_dir)
    capfd.readouterr()
    raised = []
    for cpus in (1, 2, 3):
        with pytest.raises(harness.BadBlockFile) as info:
            _rebuild_on(run_dir, monkeypatch, cpus)
        raised.append(str(info.value))
        _assert_no_child_left(capfd)
    assert f"blocks_shard{low}.jsonl line 3: " in raised[0]
    assert raised == [raised[0]] * 3


def test_rebuild_banks_a_line_without_commit_time_at_its_timestamp(tiny_run, tmp_path):
    """A block line whose commit_time is null is sorted and counted at the
    block's timestamp, so the rebuilt tcl.csv stays in commit order."""
    _, out = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / "blocks_shard0.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    last = max(i for i, obj in enumerate(objs) if "regular" in obj["txs"]["kind"])
    objs[last]["commit_time"] = None
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))

    # The time each original first commits in, by the rule the rebuild uses.
    first_commit = {}
    for k in (0, 1):
        for obj, block in _read_chain(run_dir, k):
            at = block.timestamp if obj["commit_time"] is None else obj["commit_time"]
            for tx in block.txs:
                key = (tx.origin_hash or tx.hash).hex()
                first_commit[key] = min(first_commit.get(key, at), at)
    earliest = min(first_commit.values())
    assert objs[last]["timestamp"] > earliest, "the nulled block is not the first"

    report_from_blocks(str(run_dir))
    with open(run_dir / "recomputed" / "tcl.csv", encoding="utf-8") as fh:
        next(fh)
        rows = [line.split(",") for line in fh]
    assert len(rows) == len(first_commit)
    times = [first_commit[row[0]] for row in rows]
    assert times == sorted(times)
    txs = objs[last]["txs"]
    nulled = {h for h, kind in zip(txs["hash"], txs["kind"]) if kind == "regular"}
    assert {int(row[3]) for row in rows if row[0] in nulled} == {objs[last]["timestamp"]}


def _rebuild_whole_blocks(run_dir, out_dir):
    """The rebuild over whole decoded blocks, kept as an oracle: decode every
    line, sort stably by (time, shard), bank each transaction's original at
    its first appearance, then settle the first block of each (shard, height)."""
    cfg_echo = json.loads((run_dir / "summary.json").read_text())["config"]
    ledger = MetricsLedger(cfg_echo["n_shards"], cfg_echo["epoch_ms"])
    blocks = []
    for k in range(cfg_echo["n_shards"]):
        for obj, block in _read_chain(run_dir, k):
            at = block.timestamp if obj["commit_time"] is None else obj["commit_time"]
            blocks.append((at, block))
    blocks.sort(key=lambda pair: (pair[0], pair[1].shard_id))
    for _, block in blocks:
        for tx in block.txs:
            if tx.kind in DERIVED_KINDS:
                key, kind = tx.origin_hash, TxKind.ORIGINAL_CTX
            else:
                key, kind = tx.hash, tx.kind
            ledger.record_injection(key, kind, tx.payer, tx.payee, tx.inject_time or 0)
    for at, block in blocks:
        ledger.record_block(block, at, 0)
    ledger.write_reports(str(out_dir), cfg_echo)


def _swap_two_lines(lines):
    """Commit times go backwards between two neighbouring lines."""
    i = next(i for i in range(len(lines) - 1)
             if json.loads(lines[i])["commit_time"] < json.loads(lines[i + 1])["commit_time"])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def _second_line_for_one_height(lines):
    """A different block at the height of a block with transactions, committed
    later, written ahead of the first: only the earlier one may settle."""
    i = next(i for i, line in enumerate(lines) if len(json.loads(line)["txs"]["hash"]) > 1)
    obj = json.loads(lines[i])
    first = block_from_json(obj)
    other = dataclasses.replace(first, txs=first.txs[1:], hash=b"")
    assert other.hash != first.hash
    return [block_line(other, obj["commit_time"] + 7) + "\n"] + lines


def _null_commit_time(lines):
    i = len(lines) // 2
    obj = json.loads(lines[i])
    obj["commit_time"] = None
    lines[i] = json.dumps(obj) + "\n"
    return lines


@pytest.mark.parametrize("edit", [None, _swap_two_lines, _second_line_for_one_height,
                                  _null_commit_time])
def test_rebuild_matches_the_whole_block_fold(tiny_run, tmp_path, edit):
    """``report_from_blocks`` writes the bytes the fold over whole decoded
    blocks writes, on the run's files and on files edited out of order."""
    _, out = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    shutil.rmtree(run_dir / "recomputed", ignore_errors=True)
    if edit is not None:
        path = run_dir / "blocks_shard1.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
    report_from_blocks(str(run_dir))
    _rebuild_whole_blocks(run_dir, tmp_path / "reference")
    names = sorted(os.listdir(tmp_path / "reference"))
    assert sorted(os.listdir(run_dir / "recomputed")) == names
    for name in names:
        assert ((run_dir / "recomputed" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name


def test_rebuild_keeps_no_decoded_transactions_while_writing(tiny_run, monkeypatch):
    """While the rebuilt reports are written, at most one block's worth of
    decoded transactions is still alive."""
    result, out = tiny_run

    def live_txs():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is core.Transaction)

    during = []
    write = MetricsLedger.write_reports

    def counting_write(self, *args, **kwargs):
        during.append(live_txs())
        return write(self, *args, **kwargs)

    monkeypatch.setattr(MetricsLedger, "write_reports", counting_write)
    before = live_txs()
    report_from_blocks(str(out))
    assert result.summary["counters"]["W"] > 2 * result.summary["config"]["block_size"]
    assert len(during) == 1
    assert during[0] - before <= result.summary["config"]["block_size"]


def test_a_rebuild_in_one_process_holds_one_hash_object_per_original(tiny_run, monkeypatch):
    """The two halves of a relayed original, in two shards' files, share
    one object for their original's hash in the decoded columns."""
    _, out = tiny_run
    monkeypatch.setattr(harness, "_decoders", lambda n_shards: 1)
    keys = [key for cols in harness._block_columns(str(out), 2) for key in cols[5]]
    assert len(set(keys)) < len(keys), "a relay run commits both halves of an original"
    assert len({id(key) for key in keys}) == len(set(keys))


def test_rerun_is_byte_identical(dataset, tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out)))
        assert run(cfg).exit_code == 0
        outputs.append(out)
    first, second = outputs
    for name in (
        "tps_epochs.csv", "tcl.csv", "pool_size.csv", "workload.csv",
        "blocks_shard0.jsonl", "blocks_shard1.jsonl",
    ):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_wall_only_stop_is_not_degraded(dataset, tmp_path):
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(tmp_path / "w"),
        stop={"wall_ms": 2000},
    ))
    result = run(cfg)
    assert result.exit_code == 0
    assert not result.summary["degraded"]


def test_wall_cutting_a_drain_run_short_degrades(dataset, tmp_path):
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(tmp_path / "cut"),
        stop={"drain": True, "wall_ms": 300},
    ))
    result = run(cfg)
    assert result.exit_code == 3
    assert result.summary["degraded"]
    assert any("wall stop" in n for n in result.summary["notes"])
    assert result.summary["unconfirmed"] > 0


def test_a_drained_run_that_commits_a_minted_credit_exits_three(tmp_path):
    """Leader 0.0 appends a credit half worth 10**9, with a made-up origin,
    to its block at height 5, and its shard commits it. Every original
    settles, so the run drains, but U and W count the minted half: the run
    is degraded and exits 3, naming each broken identity and its sides."""
    path = tmp_path / "transfers.csv"
    gen_dataset(str(path), accounts=60, txs=200, skew="uniform", seed=4)
    emu = Emulation(parse_config(cfg_dict(block_size=25, dataset_path=str(path))))
    emu.setup()
    leader = emu.replicas["0.0"]
    pack = leader.pool.pack_block_txs
    minted = core.make_transaction(addr("mint-payer", shard=1), addr("mint-payee", shard=0),
                                   10**9, 0, TxKind.INTER_RELAY, origin_hash=b"\x5a" * 32)

    def minting_pack(theta):
        packed = pack(theta)
        if leader.next_height == 5:
            assert len(packed) < theta
            packed.append(minted)
        return packed

    leader.pool.pack_block_txs = minting_pack
    result = emu.execute()

    assert [r.state.get(minted.payee).balance for r in result.shard_replicas(0)] == [10**9] * 4
    assert result.summary["counters"] == {"X": 200, "Y": 105, "Z": 95, "U": 106, "V": 105,
                                          "W": 306}
    assert result.summary["unconfirmed"] == 0
    assert result.exit_code == 3 and result.summary["degraded"]
    assert result.summary["notes"] == ["drained run breaks Z+2Y==W: Z+2Y=305, W=306",
                                       "drained run breaks Y==U==V: Y=105, U=106, V=105"]


def test_rate_injection_run_drains(dataset, tmp_path):
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(tmp_path / "rate"),
        injection={"base_rate": 200, "batch_interval_ms": 100},
    ))
    result = run(cfg)
    assert result.exit_code == 0
    assert result.summary["counters"]["X"] == 150
    assert result.summary["unconfirmed"] == 0


def _tcl_by_hash(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return {
            row[0]: (row[2], row[3]) for row in (line.rstrip("\n").split(",") for line in fh)
        }


def _clpa_cfg(dataset, output_dir, latency_ms=5):
    """A two-shard CLPA run with live injection that migrates accounts."""
    return parse_config(cfg_dict(
        dataset_path=str(dataset), output_dir=output_dir,
        block_size=50, block_interval_ms=100, epoch_ms=200, partition="clpa",
        injection={"base_rate": 600, "batch_interval_ms": 50},
        transport={"sim": {"latency_ms": latency_ms, "seed": 0}},
    ))


def test_recomputed_latencies_match_live_under_migration(tmp_path):
    """Block files carry the supervisor's injection stamp, so latencies
    rebuilt from them equal the live ones, re-forwarded entries included."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    out = tmp_path / "clpa"
    assert run(_clpa_cfg(dataset, str(out))).exit_code == 0
    migrations = sum(
        1 for k in (0, 1) for obj, _ in _read_chain(out, k) if obj["block_kind"] == "migration"
    )
    assert migrations > 0, "the run must migrate accounts to exercise re-forwarding"
    report_from_blocks(str(out))
    live = _tcl_by_hash(out / "tcl.csv")
    rebuilt = _tcl_by_hash(out / "recomputed" / "tcl.csv")
    assert len(live) == 1500
    assert rebuilt == live


def test_one_map_object_per_version_and_one_content_check_per_tx(tmp_path, monkeypatch):
    """Every replica adopts a new partition version through
    ``PartitionMap.updated`` on the map it holds, which hands back the
    child already built for that version, so all replicas and the
    supervisor share one map object and followers share each block's
    verdict. Without it each replica builds its own map at the first
    migration, and the three followers of a shard each check every later
    transaction."""
    checked = {}
    real_local = core.tx_local_to_shard

    def counting_local(tx, shard_id, pmap):
        key = (tx.hash, pmap.version)
        checked[key] = checked.get(key, 0) + 1
        return real_local(tx, shard_id, pmap)

    # Counts the calls ``core._content_reject`` makes; packing calls the
    # function the mechanisms module imported.
    monkeypatch.setattr(core, "tx_local_to_shard", counting_local)
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    emu = Emulation(_clpa_cfg(dataset, None))
    emu.setup()
    result = emu.execute()
    assert result.exit_code == 0
    pmap = emu.supervisor.pmap
    assert pmap.version > 1
    assert all(replica.pmap is pmap for replica in emu.replicas.values())
    assert set(checked.values()) == {1}
    assert len(checked) == result.summary["counters"]["W"], \
        "one follower checks each committed transaction, under one map version"


def test_replicas_of_a_shard_share_each_migration_pass(tmp_path, monkeypatch):
    """Under a fixed latency the followers of a shard hold equal pools at
    each extraction and each requeue-then-evict, so of a shard's four
    replicas at most the leader and one follower run each whole-pool pass;
    the others adopt the shard's last split. Every replica still makes the
    call, and the run ends in the same final states."""
    calls, passes = Counter(), Counter()
    split = txpool.TxPool.split

    def counting_split(pool, rule, key, requeue=()):
        calls[rule] += 1
        return split(pool, rule, key, requeue)

    def counting(rule):
        def counted(queue, key):
            passes[counted] += 1
            return rule(queue, key)
        return counted

    monkeypatch.setattr(txpool.TxPool, "split", counting_split)
    monkeypatch.setattr(txpool, "touching", counting(txpool.touching))
    monkeypatch.setattr(mechanisms, "misplaced", counting(mechanisms.misplaced))
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    assert run(_clpa_cfg(dataset, None)).exit_code == 0
    rules = (txpool.touching, mechanisms.misplaced)
    assert set(calls) == set(rules) and calls[rules[0]] == calls[rules[1]] > 0
    for rule in rules:
        assert calls[rule] % 4 == 0, "each replica of an involved shard makes the call"
        assert passes[rule] <= calls[rule] // 2, f"{passes[rule]} passes for {calls[rule]} calls"


def _relay_cfg(dataset, tmp_path):
    return parse_config(cfg_dict(dataset_path=dataset))


def _broker_crash_cfg(dataset, tmp_path):
    return parse_config(cfg_dict(
        dataset_path=dataset, mechanism="broker", brokers="top:4",
        transport={"sim": {"latency_ms": [1, 20], "seed": 0}},
        faults=[{"kind": "crash", "node": "0.1", "at_ms": 300}],
    ))


def _fixed_latency_clpa_cfg(dataset, tmp_path):
    data = tmp_path / "zipf.csv"
    gen_dataset(str(data), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    return _clpa_cfg(data, None)


@pytest.mark.parametrize("make_cfg", [_relay_cfg, _broker_crash_cfg, _fixed_latency_clpa_cfg],
                         ids=["relay", "broker_crash", "clpa_fixed_latency"])
def test_each_shard_keeps_one_relay_record_with_a_bit_per_replica(dataset, tmp_path,
                                                                  monkeypatch, make_cfg):
    """The replicas of a shard share one relay-dedupe record, and each
    replica's bits in it are the credit halves it queued, by relay or by a
    migration's requeue: what its own set used to hold. The run still ends
    in the dataset's final states."""
    intake = CreditIntake(monkeypatch)
    cfg = make_cfg(dataset, tmp_path)
    result = run(cfg)
    assert result.exit_code == 0
    assert relay_record_problems(result.replicas.values(), intake) == []
    rows = load_dataset(cfg.dataset_path, cfg.dataset_limit)
    assert final_state_problems(rows, result.replicas.values(), result.supervisor.pmap.brokers) == []
    if cfg.mechanism == "relay":
        assert all(r.relay_seen for r in result.replicas.values()), "every shard took relays"


@pytest.mark.parametrize("make_cfg", [_broker_crash_cfg, _fixed_latency_clpa_cfg],
                         ids=["broker_crash", "clpa_fixed_latency"])
def test_block_files_replay_to_their_state_roots(dataset, tmp_path, make_cfg):
    """Each shard's block file, applied line by line from its genesis
    block, reaches the state root every line records, migration
    departures and installs included."""
    out = tmp_path / "run"
    cfg = dataclasses.replace(make_cfg(dataset, tmp_path), output_dir=str(out))
    assert run(cfg).exit_code == 0
    departures = 0
    for k in range(cfg.n_shards):
        head, state = core.genesis_block(k), core.StateTree()
        with open(out / f"blocks_shard{k}.jsonl", encoding="utf-8") as fh:
            for line in fh:
                block = block_from_json(json.loads(line))
                assert (block.shard_id, block.height, block.parent_hash) == (
                    k, head.height + 1, head.hash)
                state = core.apply_block_to_state(state, block)
                assert compute_state_root(state) == block.state_root
                departures += len(block.migration_departures)
                head = block
        assert head.height > 0, "every shard committed something"
    if cfg.partition == "clpa":
        assert departures > 0, "the run must move accounts out of a shard"


def test_recomputed_latencies_match_live_under_jitter_and_crash(tmp_path):
    """Replicas commit a block at different times under jitter; the block
    files carry the commit time the live ledger counted, so the rebuilt
    latencies equal the live ones, across a crashed replica too."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="uniform", seed=3)
    out = tmp_path / "jitter"
    cfg = parse_config(cfg_dict(
        dataset_path=str(dataset), output_dir=str(out), block_size=50,
        transport={"sim": {"latency_ms": [1, 20], "seed": 0}},
        faults=[{"kind": "crash", "node": "0.0", "at_ms": 300}],
    ))
    assert run(cfg).exit_code == 0
    report_from_blocks(str(out))
    live = _tcl_by_hash(out / "tcl.csv")
    assert len(live) == 1500
    assert _tcl_by_hash(out / "recomputed" / "tcl.csv") == live
    for shard in (0, 1):
        _assert_linked(_read_chain(out, shard))


def test_wall_stopped_run_keeps_every_counted_block(tmp_path):
    """Views churn and one replica falls behind its shard; the block files
    still hold every block the live counters saw."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=2000, skew="uniform", seed=3)
    out = tmp_path / "wall"
    cfg = parse_config(cfg_dict(
        dataset_path=str(dataset), output_dir=str(out), block_size=50,
        pbft_view_change_timeout_ms=150,
        transport={"sim": {"latency_ms": [1, 400], "seed": 3}},
        stop={"drain": True, "wall_ms": 60000},
    ))
    result = run(cfg)
    assert any("wall stop" in n for n in result.summary["notes"])
    live = result.summary["counters"]
    rebuilt = report_from_blocks(str(out))["counters"]
    assert {k: rebuilt[k] for k in "ZYUVW"} == {k: live[k] for k in "ZYUVW"}


def test_exit_does_not_depend_on_output_dir(tmp_path):
    """Jittered delivery leaves this migrating run with unconfirmed
    originals; it ends the same way whether or not it writes reports."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, txs=1500, skew="zipf:1.0", seed=3)
    outcomes = []
    for out_dir in (None, str(tmp_path / "clpa")):
        result = run(_clpa_cfg(dataset, out_dir, latency_ms=[1, 5]))
        outcomes.append((result.exit_code, result.summary["unconfirmed"]))
    assert outcomes[0] == outcomes[1]


def test_crashed_writer_is_replaced_on_disk(dataset, tmp_path):
    out = tmp_path / "crash"
    cfg = parse_config(cfg_dict(
        dataset_path=dataset, output_dir=str(out),
        faults=[{"kind": "crash", "node": "0.0", "at_ms": 0}],
    ))
    result = run(cfg)
    assert result.exit_code == 0
    chain = _read_chain(out, 0)
    assert chain, "the stand-in writer kept the chain"
    live_log = result.replicas["0.1"].root_log
    assert [(b.height, b.state_root.hex()) for _, b in chain] == \
        [(h, root) for h, root, _ in live_log]


def test_setup_execute_are_separable(dataset):
    cfg = parse_config(cfg_dict(dataset_path=dataset))
    emu = Emulation(cfg)
    emu.setup()
    pools = [len(r.pool) for r in emu.replicas.values() if r.shard_id == 0]
    assert len(set(pools)) == 1 and pools[0] > 0, "prefill replicates per shard"
    result = emu.execute()
    assert result.exit_code == 0
    assert result.out_dir is None, "no output_dir means no files, still a result"
    with pytest.raises(AssertionError):
        emu.execute()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_run_and_report_pause_the_collector_and_restore_it(dataset, tmp_path, monkeypatch,
                                                          enabled):
    seen = []
    wiring, writing = harness.build_nodes, MetricsLedger.write_reports

    def spy_wiring(*args):
        seen.append(("build_nodes", gc.isenabled()))
        return wiring(*args)

    def spy_writing(*args, **kwargs):
        seen.append(("write_reports", gc.isenabled()))
        return writing(*args, **kwargs)

    monkeypatch.setattr(harness, "build_nodes", spy_wiring)
    monkeypatch.setattr(MetricsLedger, "write_reports", spy_writing)
    out = tmp_path / "out"
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        emu = Emulation(parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out))))
        emu.setup()
        assert gc.isenabled() is enabled
        assert emu.execute().exit_code == 0
        assert gc.isenabled() is enabled
        report_from_blocks(str(out))
        assert gc.isenabled() is enabled
        lines = (out / "blocks_shard1.jsonl").read_text().splitlines()
        (out / "blocks_shard1.jsonl").write_text("\n".join(lines[:-1] + ["{"]) + "\n")
        with pytest.raises(harness.BadBlockFile):
            report_from_blocks(str(out))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [("build_nodes", False), ("write_reports", False), ("write_reports", False)]


def test_setup_leaves_no_young_collection_behind(dataset):
    """Set-up promotes what it built to the oldest generation before its
    pause ends: the collector is back on with nothing young to count, and
    the next allocations start no collection."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    emu = Emulation(parse_config(cfg_dict(dataset_path=dataset)))
    gc.callbacks.append(note)
    try:
        emu.setup()
        young = gc.get_count()[0]
        fresh = [[] for _ in range(gc.get_threshold()[0] // 2)]
        enabled = gc.isenabled()
    finally:
        gc.callbacks.remove(note)
        if not was_enabled:
            gc.disable()
    assert enabled and young == 0 and len(fresh) > 0
    assert started == []


# Indented ``json.dump`` runs the standard library's pure-Python encoder,
# whose nested closures leave 33 unreachable objects per call; a run and
# its rebuild each dump one summary.
GARBAGE_BOUND = 100


def test_a_run_and_its_report_leave_no_garbage_cycles_of_their_own(dataset, tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(cfg_dict(dataset_path=dataset, output_dir=str(out)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = run(cfg)
        report_from_blocks(str(out))
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert result.exit_code == 0
    assert found < GARBAGE_BOUND, f"{found} unreachable objects after one tiny run"


def test_a_finished_run_is_freed_by_reference_counting_alone(dataset):
    """Every node holds the network; once the run is over the network lets
    its handlers go, so dropping the run frees it with the collector off.
    The delivery count and the result keep working."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        emu = Emulation(parse_config(cfg_dict(dataset_path=dataset)))
        emu.setup()
        result = emu.execute()
        assert result.exit_code == 0 and emu.net.delivered > 0
        assert len(result.shard_replicas(0)) == 4 and result.root_logs()["0.0"]
        assert result.replicas["0.0"].net is emu.net
        nodes = [result.supervisor, *result.replicas.values(), emu.net]
        alive = [weakref.ref(node) for node in nodes]
        del emu, result, nodes
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        if was_enabled:
            gc.enable()


def test_prefilled_replicas_hold_equal_but_independent_pools(dataset):
    emu = Emulation(parse_config(cfg_dict(dataset_path=dataset)))
    emu.setup()
    counters = ("injected", "appended", "packed", "extracted", "removed")
    for shard in range(2):
        pools = [r.pool for r in emu.replicas.values() if r.shard_id == shard]
        queue = pools[0].snapshot()
        assert len(pools) == 4 and len(queue) > 3
        for pool in pools:
            assert pool.shard_id == shard and pool.snapshot() == queue
            assert [getattr(pool, c) for c in counters] == [len(queue), 0, 0, 0, 0]
        # Packing on any one replica leaves the other three as they were.
        want = [queue] * 4
        for i, pool in enumerate(pools):
            assert pool.pack_block_txs(3) == queue[:3]
            want[i] = queue[3:]
            assert [p.snapshot() for p in pools] == want
            assert [p.packed for p in pools] == [3 if w is not queue else 0 for w in want]


def test_emulation_rejects_wrong_transport_or_missing_dataset(dataset):
    with pytest.raises(MissingKey):
        Emulation(parse_config(cfg_dict()))
    tcp_cfg = parse_config(cfg_dict(
        dataset_path=dataset, transport={"tcp": {"ip_table": "x.json"}},
    ))
    with pytest.raises(ConfigError):
        Emulation(tcp_cfg)


@pytest.mark.parametrize("data, over", [
    (dict(txs=2000, skew="uniform"), dict(
        block_size=50, pbft_view_change_timeout_ms=60,
        transport={"sim": {"latency_ms": [1, 50], "seed": 4}},
        stop={"drain": True, "wall_ms": 60000})),
    (dict(txs=1500, skew="zipf:1.0"), dict(
        n_shards=3, block_size=50, epoch_ms=200, partition="clpa",
        injection={"base_rate": 600, "batch_interval_ms": 50},
        transport={"sim": {"latency_ms": [1, 20], "seed": 2}})),
], ids=["relay_view_churn", "clpa_3_shards"])
def test_bytes_do_not_depend_on_the_hash_seed(tmp_path, data, over):
    """Two processes with different string hash seeds write the same
    reports and block files: no output follows set or dict order of
    hashed bytes."""
    dataset = tmp_path / "transfers.csv"
    gen_dataset(str(dataset), accounts=200, seed=3, **data)
    src = os.path.dirname(os.path.dirname(shardemu.__file__))
    outcomes = []
    for seed in ("0", "1"):
        out = tmp_path / f"run{seed}"
        cfg_path = tmp_path / f"run{seed}.json"
        cfg_path.write_text(json.dumps(cfg_dict(
            dataset_path=str(dataset), output_dir=str(out), **over)))
        proc = subprocess.run(
            [sys.executable, "-m", "shardemu.cli", "run", "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=120, cwd=src,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        files = sorted(out.glob("*.csv")) + sorted(out.glob("blocks_shard*.jsonl"))
        assert files
        outcomes.append((proc.returncode, {f.name: f.read_bytes() for f in files}))
    assert outcomes[0] == outcomes[1]

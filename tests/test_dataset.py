"""Synthetic dataset generation and strict CSV loading."""

import hashlib

import pytest

from helpers import addr
from shardemu.dataset import (
    BadRow,
    DatasetRow,
    gen_dataset,
    involvement_coverage,
    load_dataset,
    parse_skew,
    synthetic_addresses,
    top_active_accounts,
)


def test_parse_skew():
    assert parse_skew("uniform") == ("uniform", 0.0)
    assert parse_skew("zipf:1.2") == ("zipf", 1.2)
    for bad in ("zipf:0", "zipf:-1", "zipf:x", "normal", "zipf"):
        with pytest.raises(ValueError):
            parse_skew(bad)


def test_synthetic_addresses_are_stable_and_distinct():
    a = synthetic_addresses(50, seed=3)
    assert a == synthetic_addresses(50, seed=3)
    assert a != synthetic_addresses(50, seed=4)
    assert len(set(a)) == 50
    assert all(len(x) == 20 for x in a)


def test_gen_uniform_dataset(tmp_path):
    out = tmp_path / "u.csv"
    stats = gen_dataset(str(out), accounts=40, txs=500, skew="uniform", seed=7)
    assert stats["txs"] == 500 and stats["accounts"] == 40
    rows = list(load_dataset(str(out)))
    assert len(rows) == 500
    assert all(row.payer != row.payee for row in rows)
    known = set(synthetic_addresses(40, seed=7))
    assert all(row.payer in known and row.payee in known for row in rows)
    assert all(1 <= row.value < 1_000_000 for row in rows)


def test_gen_dataset_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    gen_dataset(str(first), accounts=30, txs=400, skew="zipf:1.1", seed=9)
    gen_dataset(str(second), accounts=30, txs=400, skew="zipf:1.1", seed=9)
    assert first.read_bytes() == second.read_bytes()
    shifted = tmp_path / "c.csv"
    gen_dataset(str(shifted), accounts=30, txs=400, skew="zipf:1.1", seed=10)
    assert first.read_bytes() != shifted.read_bytes()


def test_zipf_concentrates_on_low_ranks(tmp_path):
    flat = tmp_path / "flat.csv"
    skewed = tmp_path / "skewed.csv"
    gen_dataset(str(flat), accounts=200, txs=4000, skew="uniform", seed=5)
    zstats = gen_dataset(str(skewed), accounts=200, txs=4000, skew="zipf:1.2", seed=5)
    top = set(synthetic_addresses(200, seed=5)[:10])
    flat_cov = involvement_coverage(load_dataset(str(flat)), top)
    skew_cov = involvement_coverage(load_dataset(str(skewed)), top)
    assert skew_cov > 3 * flat_cov, "rank-popularity draw concentrates traffic"
    assert zstats["top10_coverage"] == pytest.approx(skew_cov)


def test_gen_dataset_needs_two_accounts(tmp_path):
    with pytest.raises(ValueError):
        gen_dataset(str(tmp_path / "x.csv"), accounts=1, txs=10, skew="uniform", seed=0)


def test_load_assigns_per_payer_nonces(tmp_path):
    a, b, c = (addr(f"ds-{i}") for i in range(3))
    path = tmp_path / "n.csv"
    path.write_text(
        "from,to,value\n"
        f"{a.hex()},{b.hex()},5\n"
        "\n"  # blank lines are skipped
        f"{a.hex()},{c.hex()},6\n"
        f"{b.hex()},{a.hex()},7\n"
        f"{a.hex()},{b.hex()},8\n"
    )
    rows = list(load_dataset(str(path)))
    assert [r.nonce for r in rows] == [0, 1, 0, 2]
    assert rows[0] == DatasetRow(payer=a, payee=b, value=5, nonce=0)


def test_load_hands_out_one_object_per_account(tmp_path):
    path = tmp_path / "one.csv"
    gen_dataset(str(path), accounts=12, txs=300, skew="uniform", seed=5)
    rows = list(load_dataset(str(path)))
    objects: dict[bytes, set[int]] = {}
    for row in rows:
        assert isinstance(row, tuple) and tuple(row) == (row.payer, row.payee, row.value, row.nonce)
        for a in (row.payer, row.payee):
            objects.setdefault(a, set()).add(id(a))
    assert len(objects) == 12
    assert all(len(ids) == 1 for ids in objects.values())
    # Each load has its own table: nothing is cached across loads.
    again = next(load_dataset(str(path)))
    assert again.payer == rows[0].payer and again.payer is not rows[0].payer


def test_load_limit_stops_early(tmp_path):
    path = tmp_path / "l.csv"
    gen_dataset(str(path), accounts=10, txs=100, skew="uniform", seed=1)
    assert len(list(load_dataset(str(path), limit=7))) == 7


@pytest.mark.parametrize("content, line_no", [
    ("payer,payee,amount\n", 1),
    ("from,to,value\nabc\n", 2),
    ("from,to,value\n" + "ab" * 20 + "," + "cd" * 20 + ",1,extra\n", 2),
    ("from,to,value\nxyz," + "cd" * 20 + ",1\n", 2),
    ("from,to,value\n" + "ab" * 19 + "," + "cd" * 20 + ",1\n", 2),
    ("from,to,value\n" + "ab" * 19 + "  ," + "cd" * 20 + ",1\n", 2),
    ("from,to,value\n" + "ab" * 20 + "," + "cd" * 20 + ",one\n", 2),
    ("from,to,value\n" + "ab" * 20 + "," + "cd" * 20 + ",-3\n", 2),
    ("from,to,value\n" + f"{'ab' * 20},{'cd' * 20},1\n" + "broken\n", 3),
])
def test_bad_rows_carry_line_numbers(tmp_path, content, line_no):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(BadRow) as err:
        list(load_dataset(str(path)))
    assert err.value.line_no == line_no


def test_top_active_accounts_ranking(tmp_path):
    a, b, c, d = sorted(addr(f"rank-{i}") for i in range(4))
    path = tmp_path / "r.csv"
    lines = ["from,to,value"]
    lines += [f"{a.hex()},{b.hex()},1"] * 3   # a=3+1 below, b=3
    lines += [f"{c.hex()},{a.hex()},1"]       # c=1, a=4
    lines += [f"{d.hex()},{c.hex()},1"]       # d=1, c=2
    path.write_text("\n".join(lines) + "\n")
    ranked = top_active_accounts(load_dataset(str(path)), 4)
    assert ranked[:2] == [a, b]
    assert ranked[2:] == [c, d] if c < d else [d, c]
    assert top_active_accounts(load_dataset(str(path)), 1) == [a]
    # ties at count 1: c and d, low address first
    tied = top_active_accounts(load_dataset(str(path)), 4)[2:]
    assert tied == sorted(tied)


def test_involvement_coverage_bounds():
    a, b, c = (addr(f"cov-{i}") for i in range(3))
    rows = [
        DatasetRow(a, b, 1, 0),
        DatasetRow(b, c, 1, 0),
        DatasetRow(c, b, 1, 0),
    ]
    assert involvement_coverage(rows, {a}) == pytest.approx(1 / 3)
    assert involvement_coverage(rows, {b}) == pytest.approx(1.0)
    assert involvement_coverage(rows, set()) == 0.0
    assert involvement_coverage([], {a}) == 0.0


def test_loader_replay_matches_generator_count(tmp_path):
    # the loader's running nonce counters mean replays build identical txs
    path = tmp_path / "replay.csv"
    gen_dataset(str(path), accounts=20, txs=300, skew="uniform", seed=2)
    first = [(r.payer, r.nonce) for r in load_dataset(str(path))]
    second = [(r.payer, r.nonce) for r in load_dataset(str(path))]
    assert first == second
    digest_one = hashlib.sha256(repr(first).encode()).hexdigest()
    digest_two = hashlib.sha256(repr(second).encode()).hexdigest()
    assert digest_one == digest_two

"""Synthetic transfer datasets: generation, loading, and account scans.

The on-disk format is a CSV with header ``from,to,value``; addresses are
40-char lowercase hex, values are non-negative integers. Nonces are not
stored: both the generator and the loader assign each payer a running
counter, so replaying a file always yields the same transactions. Rows are
tuples, and one load hands out one ``bytes`` object per account.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import ADDRESS_SIZE, AddressTable, digest

HEADER = "from,to,value"


class BadRow(Exception):
    def __init__(self, line_no: int, why: str) -> None:
        super().__init__(f"dataset line {line_no}: {why}")
        self.line_no = line_no


class DatasetRow(NamedTuple):
    payer: bytes
    payee: bytes
    value: int
    nonce: int


def parse_skew(skew: str) -> tuple[str, float]:
    """'uniform' or 'zipf:S' with exponent S > 0."""
    if skew == "uniform":
        return "uniform", 0.0
    if skew.startswith("zipf:"):
        try:
            s = float(skew[5:])
        except ValueError:
            s = -1.0
        if s > 0:
            return "zipf", s
    raise ValueError(f"skew must be 'uniform' or 'zipf:S', got {skew!r}")


def synthetic_addresses(accounts: int, seed: int) -> list[bytes]:
    """Deterministic account set; hashing keeps shard suffixes unbiased."""
    return [
        digest(b"account:%d:%d" % (seed, i))[:ADDRESS_SIZE] for i in range(accounts)
    ]


def _zipf_cdf(accounts: int, s: float) -> list[float]:
    acc = 0.0
    out = []
    for rank in range(1, accounts + 1):
        acc += rank ** -s
        out.append(acc)
    return out


def gen_dataset(
    out_path: str,
    accounts: int,
    txs: int,
    skew: str,
    seed: int,
) -> dict:
    """Write a synthetic dataset; returns generation stats.

    Uniform mode draws payer and payee independently (payee re-indexed so
    the pair always differs). Zipf mode draws both endpoints from a rank
    popularity law with the given exponent. Fixed seed, byte-identical
    output.
    """
    if accounts < 2:
        raise ValueError("need at least two accounts")
    mode, s = parse_skew(skew)
    addrs = synthetic_addresses(accounts, seed)
    rng = random.Random(seed)
    cdf = _zipf_cdf(accounts, s) if mode == "zipf" else []
    total = cdf[-1] if cdf else 0.0

    def draw() -> int:
        if mode == "uniform":
            return rng.randrange(accounts)
        return bisect.bisect_left(cdf, rng.random() * total)

    top10 = set(addrs[: min(10, accounts)])
    covered = 0
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        for _ in range(txs):
            payer = draw()
            if mode == "uniform":
                payee = rng.randrange(accounts - 1)
                if payee >= payer:
                    payee += 1
            else:
                payee = draw()
                while payee == payer:
                    payee = draw()
            value = rng.randrange(1, 1_000_000)
            if addrs[payer] in top10 or addrs[payee] in top10:
                covered += 1
            fh.write(f"{addrs[payer].hex()},{addrs[payee].hex()},{value}\n")
    return {
        "accounts": accounts,
        "txs": txs,
        "skew": skew,
        "seed": seed,
        "top10_coverage": covered / txs if txs else 0.0,
    }


def load_dataset(path: str, limit: Optional[int] = None) -> Iterator[DatasetRow]:
    """Stream rows, assigning per-payer nonces; BadRow aborts with context.
    The load parses each distinct address literal once, through one
    ``AddressTable``, so its rows share one object per account."""
    addresses = AddressTable()
    nonces: dict[bytes, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise BadRow(1, f"expected header {HEADER!r}, got {header!r}")
        emitted = 0
        for line_no, line in enumerate(fh, start=2):
            if limit is not None and emitted >= limit:
                return
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise BadRow(line_no, f"expected 3 columns, got {len(parts)}")
            try:
                payer = addresses[parts[0]]
                payee = addresses[parts[1]]
            except ValueError as exc:
                raise BadRow(line_no, str(exc)) from exc
            try:
                value = int(parts[2])
            except ValueError:
                raise BadRow(line_no, f"bad value {parts[2]!r}") from None
            if value < 0:
                raise BadRow(line_no, f"negative value {value}")
            nonce = nonces.get(payer, 0)
            nonces[payer] = nonce + 1
            emitted += 1
            yield DatasetRow(payer, payee, value, nonce)


def top_active_accounts(rows: Iterable[DatasetRow], k: int) -> list[bytes]:
    """The K most transfer-active addresses among ``rows``; ties break
    toward low address."""
    counts = Counter(chain.from_iterable((row.payer, row.payee) for row in rows))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [addr for addr, _ in ranked[:k]]


def involvement_coverage(rows: Iterable[DatasetRow], addrs: set[bytes]) -> float:
    total = 0
    hit = 0
    for row in rows:
        total += 1
        if row.payer in addrs or row.payee in addrs:
            hit += 1
    return hit / total if total else 0.0

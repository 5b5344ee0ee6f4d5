"""Synthetic transfer datasets: generation, loading, and account scans.

The on-disk format is a CSV with header ``from,to,value``; addresses are
40-char hex, values are ASCII decimal integers below 2**128. Nonces are not
stored: both the generator and the loader assign each payer a running
counter, so replaying a file always yields the same transactions.

``DatasetReader`` is the format's one parser. It reads a block of lines at a
time and parses the rows it is asked for into a ``RowBatch``: one list per
field, so set-up and injection take a whole batch without a tuple per row.
``load_dataset`` hands the same rows out one ``DatasetRow`` at a time. One
reader hands out one ``bytes`` object per account.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter, defaultdict
from itertools import count, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import ADDRESS_SIZE, VALUE_BITS, AddressTable, digest

HEADER = "from,to,value"

# Characters of the file read at a time.
BLOCK_CHARS = 1 << 16
# Rows ``load_dataset`` parses at a time.
LOAD_BATCH = 4096
# A value field of at most this many digits lies below 2**128 (10**38 < 2**128).
_SHORT_VALUE = 38


class BadRow(Exception):
    def __init__(self, line_no: int, why: str) -> None:
        super().__init__(f"dataset line {line_no}: {why}")
        self.line_no = line_no


class DatasetRow(NamedTuple):
    payer: bytes
    payee: bytes
    value: int
    nonce: int


class RowBatch:
    """Dataset rows as columns: payers, payees, values and nonces, one list
    each, in file order. ``len`` is the row count; iterating gives each row
    as a ``DatasetRow``."""

    __slots__ = ("payers", "payees", "values", "nonces")

    def __init__(self, payers: list[bytes], payees: list[bytes], values: list[int],
                 nonces: list[int]) -> None:
        self.payers, self.payees, self.values, self.nonces = payers, payees, values, nonces

    @classmethod
    def of(cls, rows: Iterable[DatasetRow]) -> "RowBatch":
        """The batch of the given rows."""
        columns = tuple(map(list, zip(*rows))) or ([], [], [], [])
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.payers)

    def __iter__(self) -> Iterator[DatasetRow]:
        return map(DatasetRow, self.payers, self.payees, self.values, self.nonces)


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


def _line_blocks(path: str) -> Iterator[list[str]]:
    """The lines after the header, a block at a time, without their line
    ends; the header is checked before the first block. Lines end where a
    text-mode file's lines end. The file is opened at the first ``next``
    and closed at the end, or when the generator is dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise BadRow(1, f"expected header {HEADER!r}, got {header!r}")
        tail = ""
        for text in iter(lambda: fh.read(BLOCK_CHARS), ""):
            lines = (tail + text).split("\n")
            tail = lines.pop()
            yield lines
        if tail:
            yield [tail]


def _value(text: str, line_no: int) -> int:
    """A value field: ASCII decimal digits below 2**128."""
    if text.isascii() and text.isdigit():
        if len(text.lstrip("0")) <= len(str(1 << VALUE_BITS)) and int(text) < 1 << VALUE_BITS:
            return int(text)
        raise BadRow(line_no, f"value {text} is not below 2**{VALUE_BITS}")
    magnitude = text[1:]
    if text[:1] == "-" and magnitude.isascii() and magnitude.isdigit() and magnitude.strip("0"):
        raise BadRow(line_no, f"negative value -{magnitude.lstrip('0')}")
    raise BadRow(line_no, f"bad value {text!r}")


class DatasetReader:
    """The dataset format's one parser: ``read(n)`` parses the next ``n``
    rows of the file, every row left when ``n`` is None, into a
    ``RowBatch``, assigning each payer a running nonce. Fewer come back only
    at the end of the file or of ``limit``, the rows of the whole pass.

    The file is opened at the first ``read`` and read a block of lines at a
    time, so a live run parses each batch when it injects it. Blank lines
    are skipped; a line the format refuses raises ``BadRow`` with its line
    number, and nothing past the rows asked for is parsed. Each distinct
    address literal is parsed once, through one ``AddressTable``, so the
    reader's rows share one object per account."""

    def __init__(self, path: str, limit: Optional[int] = None) -> None:
        self._blocks = _line_blocks(path)
        self._lines: list[str] = []
        self._pos = 0
        # The line number of ``_lines[0]``; line 1 is the header.
        self._first_no = 2
        self._left = limit
        self._addresses = AddressTable()
        # Each payer's running nonce.
        self._counters: defaultdict[bytes, Iterator[int]] = defaultdict(count)

    def read(self, n: Optional[int] = None) -> RowBatch:
        batch = RowBatch([], [], [], [])
        left = self._left
        want = left if n is None or (left is not None and left < n) else n
        while want is None or len(batch) < want:
            if self._pos == len(self._lines):
                lines = next(self._blocks, None)
                if lines is None:
                    # The file is done: no later read needs the tables.
                    self._lines, self._pos = [], 0
                    self._addresses, self._counters = AddressTable(), defaultdict(count)
                    break
                self._first_no += len(self._lines)
                self._lines, self._pos = lines, 0
            else:
                self._parse(batch, want)
        if left is not None:
            self._left = left - len(batch)
        return batch

    def _parse(self, batch: RowBatch, want: Optional[int]) -> None:
        """Parse the current block from ``_pos`` into ``batch`` until it
        holds ``want`` rows or the block ends. The lines that could hold
        those rows are first taken whole (``_take``); where that fails, one
        line at a time, each by ``_row``."""
        lines, start = self._lines, self._pos
        stop = len(lines) if want is None else min(len(lines), start + want - len(batch))
        if self._take(lines[start:stop], batch):
            self._pos = stop
            return
        payers, payees, values, nonces = batch.payers, batch.payees, batch.values, batch.nonces
        counter_of = self._counters.__getitem__
        pos = start - 1
        for pos, line in enumerate(islice(lines, start, None), start):
            row = self._row(line, self._first_no + pos)
            if row is None:
                continue
            payer, payee, value = row
            payers.append(payer)
            payees.append(payee)
            values.append(value)
            nonces.append(next(counter_of(payer)))
            if len(payers) == want:
                break
        self._pos = pos + 1

    def _take(self, lines: list[str], batch: RowBatch) -> bool:
        """Append the rows of ``lines`` to ``batch`` if every line is three
        fields, two address literals and an ASCII decimal of at most 38
        digits, parsing them column by column in C loops; otherwise leave
        ``batch`` as it was and return False."""
        fields = list(map(str.split, lines, repeat(",")))
        if set(map(len, fields)) != {3}:
            return False
        payer_texts, payee_texts, value_texts = zip(*fields)
        digits = "".join(value_texts)
        if (not digits.isdigit() or not digits.isascii() or "" in value_texts
                or max(map(len, value_texts)) > _SHORT_VALUE):
            return False
        address_of = self._addresses.__getitem__
        try:
            payers = list(map(address_of, payer_texts))
            payees = list(map(address_of, payee_texts))
        except ValueError:
            return False
        batch.payers += payers
        batch.payees += payees
        batch.values += map(int, value_texts)
        batch.nonces += map(next, map(self._counters.__getitem__, payers))
        return True

    def _row(self, line: str, line_no: int) -> Optional[tuple[bytes, bytes, int]]:
        """(payer, payee, value) of one line, None for a blank one; BadRow
        for a line the format refuses."""
        line = line.strip()
        if not line:
            return None
        parts = line.split(",")
        if len(parts) != 3:
            raise BadRow(line_no, f"expected 3 columns, got {len(parts)}")
        try:
            payer = self._addresses[parts[0]]
            payee = self._addresses[parts[1]]
        except ValueError as exc:
            raise BadRow(line_no, str(exc)) from exc
        return payer, payee, _value(parts[2], line_no)


def load_dataset(path: str, limit: Optional[int] = None) -> Iterator[DatasetRow]:
    """Stream rows, assigning per-payer nonces; BadRow aborts with context.
    A generator over one ``DatasetReader``, which parses a batch ahead of
    the rows handed out."""
    reader = DatasetReader(path, limit)
    while True:
        batch = reader.read(LOAD_BATCH)
        yield from batch
        if len(batch) < LOAD_BATCH:
            return


def busiest_accounts(payers: list[bytes], payees: list[bytes], k: int) -> list[bytes]:
    """The K accounts that appear most often as payer or payee; ties break
    toward low address. The one ranking of ``top:K`` brokers."""
    counts = Counter(payers)
    counts.update(payees)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [addr for addr, _ in ranked[:k]]


def top_active_accounts(rows: Iterable[DatasetRow], k: int) -> list[bytes]:
    """The K most transfer-active addresses among ``rows``
    (``busiest_accounts``)."""
    batch = RowBatch.of(rows)
    return busiest_accounts(batch.payers, batch.payees, k)


def involvement_coverage(rows: Iterable[DatasetRow], addrs: set[bytes]) -> float:
    total = 0
    hit = 0
    for row in rows:
        total += 1
        if row.payer in addrs or row.payee in addrs:
            hit += 1
    return hit / total if total else 0.0

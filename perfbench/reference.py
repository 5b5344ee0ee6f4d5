"""A fixed pure-Python workload that gauges how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts: the same code can
take 30 % longer in one minute than in the next, and process CPU time
drifts with wall time, so neither clock alone separates the program's cost
from the host's load. The worker therefore times this reference next to
every phase, and ``run.py`` scales the phase times to a host on which the
reference takes ``NOMINAL_S``:

    scaled = mean wall time * NOMINAL_S / mean reference time

Means, not medians: the host switches within seconds between a fast and a
slow state, so a median of a few short reference times jumps between the
two while the mean follows the share of time spent in each.

The reference does work of the kinds the emulator does: shuffled lookups
in a dict of byte keys, like the state trees, and JSON round trips of
transaction-like rows, like the block files. It never imports the
emulator, so a change to the program does not change it. It runs in the
worker between phases with the cyclic garbage collector paused, so the
emulator's heap does not change its time; its own peak is about 5 MiB,
which ``peak_rss_mb`` can include.
"""

from __future__ import annotations

import gc
import json
import random
import time

# Seconds the reference takes on the nominal host; sets the scale of every
# scaled time. A two-core x86 VM at 2.1 GHz on a shared host takes 0.09 to
# 0.18 s, so scaled and wall seconds are of the same size there.
NOMINAL_S = 0.15


def _lookups(n: int = 20_000, passes: int = 6) -> int:
    """Shuffled lookups in a dict of byte-string keys larger than the
    processor's fast caches, like the emulator's state trees."""
    rng = random.Random(2)
    table = {i.to_bytes(8, "big") * 2: (i, i * 3) for i in range(n)}
    keys = list(table)
    total = 0
    for _ in range(passes):
        rng.shuffle(keys)
        total += sum(table[k][1] for k in keys)
    return total


def _json_round_trips(n: int = 2_500, rounds: int = 3) -> int:
    """Encode and decode transaction-like rows, like the block files."""
    total = 0
    for r in range(rounds):
        rows = [{"from": "%040x" % i, "to": "%040x" % (i * 7 + r), "value": i,
                 "time": i * 3, "kind": "relay1"} for i in range(n)]
        total += len(json.loads(json.dumps(rows)))
    return total


def reference_s() -> float:
    """Wall seconds the reference takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _lookups()
        _json_round_trips()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()

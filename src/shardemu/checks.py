"""Checks of a finished run that share no code path with the ledger.

``final_state_problems`` compares the replicas' account states with a fold
of the dataset alone. ``core.apply_txs`` has no overdraft rule, and an
account a state tree does not hold reads as balance 0 and nonce 0, so
after a drained run each account's balance is what it received minus what
it paid over the whole dataset, and its nonce is the number of rows it
pays, whatever the schedule, mechanism or partition. The conservation
identities in a run's summary come from the ledger, which the code under
test feeds; this check reads only the dataset and the states.
"""

from __future__ import annotations

from typing import Any, Iterable

from .dataset import DatasetRow


def final_state_problems(
    rows: Iterable[DatasetRow], replicas: Iterable[Any], brokers: Iterable[bytes]
) -> list[str]:
    """One line per account whose final state disagrees with the dataset.

    Each shard is read from one replica, the one with the highest head
    (the first of them in ``replicas`` on a tie): a crashed or lagging
    replica holds a stale state. A broker is held in every shard, so its
    balance and nonce are summed over the shards; every other account must
    be held by exactly one shard. An empty list means every account
    matches."""
    want: dict[bytes, list[int]] = {}
    for row in rows:
        payer = want.setdefault(row.payer, [0, 0])
        payer[0] -= row.value
        payer[1] += 1
        want.setdefault(row.payee, [0, 0])[0] += row.value

    heads: dict[int, Any] = {}
    for replica in replicas:
        best = heads.get(replica.shard_id)
        if best is None or replica.head.height > best.head.height:
            heads[replica.shard_id] = replica
    got: dict[bytes, list[int]] = {}
    holders: dict[bytes, list[int]] = {}
    for shard in sorted(heads):
        for addr, acct in heads[shard].state.entries.items():
            total = got.setdefault(addr, [0, 0])
            total[0] += acct.balance
            total[1] += acct.nonce
            holders.setdefault(addr, []).append(shard)

    brokers = frozenset(brokers)
    problems = []
    for addr in sorted(want.keys() | got.keys()):
        balance, nonce = got.get(addr, (0, 0))
        expected = want.get(addr, (0, 0))
        where = holders.get(addr, [])
        if (balance, nonce) != tuple(expected):
            problems.append(f"account {addr.hex()}: balance {balance} nonce {nonce} in shards "
                            f"{where}, the dataset gives balance {expected[0]} nonce "
                            f"{expected[1]}")
        elif addr not in brokers and len(where) != 1:
            problems.append(f"account {addr.hex()}: held by shards {where}, not by one")
    return problems

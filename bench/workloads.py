"""Seeded scenario generators for the benchmark workloads.

Every workload is a pure function of its seed: the same seed gives a
byte-identical scenario document, which the benchmark writes to disk and
hands to `cloudtrust run` as the only input.

All workloads use two services, `exchange` (required level I, so every
request is granted) and `archive` (required level II).  Provider choice
is random rather than ranked: ranked choice never takes the
recommendation path, so it would measure nothing of chain search.

The three random networks draw an explicit schedule in rounds instead of
`random_schedule`.  In round r every entity asks its r-th provider (a
seeded permutation of its peers) for `exchange`, which misses its direct
table and is resolved over recommendation chains; the round also carries
repeat `exchange` requests to providers already known (direct path) and
`archive` requests to random providers.  The out-degree of every entity
therefore grows by one per round.  With `random_schedule` the density of
the graph follows a random walk, and chain search (which grows with
density to the power of the chain length) varied by 20-30% between seeds
at equal size; in rounds it varies by a few percent.
"""
from __future__ import annotations

import random

DEFAULT_SEED = 0

SERVICES = [
    {"id": "exchange", "required_level": "I"},
    {"id": "archive", "required_level": "II"},
]

GRADES = ("High", "Medium", "Low")

# SHA-256 of trace.csv for each workload at DEFAULT_SEED, recorded at
# the commit that introduced the benchmark.  A change that alters a
# trace on purpose must say so and re-pin.
PINNED_TRACE_SHA256 = {
    "fuzz6": "cd59f8c69690d97043555f032831a6693b3b42c4cd8d88a7ef12e7e669995315",
    "dense20": "90b1890628ed5385d389663f76aee60813197ad7ab6ab2085c19449ff67ca2dd",
    "wide60": "eb8f0287f402e2fc247706e38439d188c9a61ee14a57174917125ee4cbf9832f",
    "replay10": "ff0bb7960b5241c8d0574e0ab74facddc1eef83a2f5b839ca44772282ee880d7",
}


def fuzz6(seed: int) -> dict:
    """The criterion-7 acceptance fuzz scenario: 6 entities, 10,000
    ticks, history_cap 64, tau 6.  Seed 0 is the acceptance test's own
    scenario; other seeds change only the simulation seed."""
    roster = [
        ("a", "High", 0.95, 25.0),
        ("b", "Medium", 0.85, 25.0),
        ("c", "Low", 0.7, 25.0),
        ("d", "Medium", 0.5, 4.0),
        ("e", "High", 0.3, 4.0),
        ("f", "Low", 0.95, 25.0),
    ]
    return {
        "seed": 20260810 + seed,
        "entities": [
            {"id": entity, "grade": grade, "sla": sla, "sla_concentration": concentration}
            for entity, grade, sla, concentration in roster
        ],
        "services": SERVICES,
        "random_schedule": {"ticks": 10_000, "requests_per_tick": 1, "provider_choice": "random"},
        "decay": {"k": 1, "tau": 6.0},
        "history_cap": 64,
    }


def _network(
    name: str,
    seed: int,
    *,
    n: int,
    rounds: int,
    max_len: int,
    repeats: int,
    archives: int,
) -> dict:
    rng = random.Random(f"{name}:{seed}")
    ids = [f"e{i:03d}" for i in range(n)]
    grades = [GRADES[i % len(GRADES)] for i in range(n)]
    rng.shuffle(grades)
    # an evenly spaced quality grid, dealt out by the seed, keeps the mix
    # of good and bad providers the same for every seed
    qualities = [round(0.3 + 0.65 * i / (n - 1), 4) for i in range(n)]
    rng.shuffle(qualities)
    peers = {e: rng.sample([p for p in ids if p != e], n - 1) for e in ids}
    schedule = []
    for r in range(rounds):
        batch = [(e, "exchange", peers[e][r % (n - 1)]) for e in ids]
        if r > 0:
            batch += [
                (e, "exchange", rng.choice(peers[e][: min(r, n - 1)]))
                for e in rng.choices(ids, k=repeats)
            ]
        batch += [
            (e, "archive", rng.choice(peers[e])) for e in rng.choices(ids, k=archives)
        ]
        rng.shuffle(batch)
        for requester, service, provider in batch:
            schedule.append(
                {
                    "tick": len(schedule),
                    "requester": requester,
                    "service": service,
                    "provider": provider,
                }
            )
    return {
        "seed": rng.randrange(2**31),
        "entities": [
            {"id": e, "grade": g, "sla": q} for e, g, q in zip(ids, grades, qualities)
        ],
        "services": SERVICES,
        "schedule": schedule,
        "decay": {"k": 1, "tau": 6.0},
        "max_chain_length": max_len,
    }


def dense20(seed: int) -> dict:
    """20 entities, max_chain_length 4: exhaustive chain search over a
    graph that ends at out-degree 12 dominates the run."""
    return _network("dense20", seed, n=20, rounds=12, max_len=4, repeats=20, archives=10)


def wide60(seed: int) -> dict:
    """60 entities, max_chain_length 2: chain search is trivial, while
    every miss rebuilds a snapshot of a few hundred edges."""
    return _network("wide60", seed, n=60, rounds=6, max_len=2, repeats=40, archives=40)


def replay10(seed: int) -> dict:
    """10 entities run with graph snapshots on; every trace row is then
    replayed with `cloudtrust trust` on its snapshot."""
    return _network("replay10", seed, n=10, rounds=20, max_len=4, repeats=10, archives=5)


WORKLOADS = {
    "fuzz6": fuzz6,
    "dense20": dense20,
    "wide60": wide60,
    "replay10": replay10,
}

# `cloudtrust run` flags per workload beyond the config and --out.
RUN_FLAGS = {"replay10": ["--snapshots"]}

"""Golden traces: SHA-256 pins of byte-exact simulator output.

A refactor must leave these digests unchanged.  A change that alters
them on purpose says why in CHANGES.md and updates the pin here.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

from cloudtrust.calculus import DecayParams, Grade, TrustLevel
from cloudtrust.simulation import (
    EntitySpec,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SlaProfile,
    run,
)

from test_acceptance import fuzz_scenario

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_demo_trace_digest():
    result = run(ScenarioConfig.from_file(DEMO))
    assert sha256(result.trace_csv()) == (
        "feab306e2e29442136cc20acbeefdb0e046dccbf2511c0ba742d2ef515efd741"
    )


def test_demo_graph_snapshots_digest():
    config = ScenarioConfig.from_file(DEMO)
    config.graph_snapshots = True
    snapshots = run(config).graph_snapshots
    text = "".join(snapshots[key].to_json() for key in sorted(snapshots))
    assert sha256(text) == (
        "4639617118c64fd3e1e94cf53d54964caaae514e3ef825661cc3fa8bedabaf8d"
    )


def test_demo_store_snapshots_digest():
    stores = run(ScenarioConfig.from_file(DEMO)).stores
    text = "".join(stores[owner].to_json() for owner in sorted(stores))
    assert sha256(text) == (
        "4864d3fa0f1023681451c3b68eb78ab104b3ed9df753e754f52a29b3508387a5"
    )


def test_fuzz_trace_digest():
    assert sha256(run(fuzz_scenario()).trace_csv()) == (
        "cd59f8c69690d97043555f032831a6693b3b42c4cd8d88a7ef12e7e669995315"
    )


def multihop_scenario() -> ScenarioConfig:
    """Ten entities asking each other in rounds, chains of up to 4 hops.

    In round r entity i asks peer (i + r) % 10 for `files` for the first
    time, which misses its own table and resolves over recommendation
    chains; repeat `files` requests and `vault` requests (level II) to
    seeded peers ride along.  Three poor providers score below the
    positive threshold, so the graph carries zero-weight edges too.
    """
    ids = [f"n{i}" for i in range(10)]
    qualities = [0.95, 0.2, 0.85, 0.6, 0.9, 0.35, 0.75, 0.5, 0.99, 0.3]
    grades = [Grade.HIGH, Grade.MEDIUM, Grade.LOW]
    rng = random.Random(8)
    schedule = []
    for r in range(1, len(ids)):
        batch = [(i, "files", (i + r) % 10) for i in range(10)]
        batch += [(i, "files", (i + rng.randint(1, r)) % 10) for i in rng.sample(range(10), 5)]
        batch += [(i, "vault", (i + rng.randint(1, 9)) % 10) for i in rng.sample(range(10), 3)]
        rng.shuffle(batch)
        for i, service, j in batch:
            schedule.append(Request(len(schedule) // 3, ids[i], service, ids[j]))
    return ScenarioConfig(
        seed=88,
        entities=[
            EntitySpec(entity, grades[i % 3], SlaProfile.uniform(quality, concentration=8.0))
            for i, (entity, quality) in enumerate(zip(ids, qualities))
        ],
        services=[
            ServiceSpec("files", TrustLevel.NO_OPINION),
            ServiceSpec("vault", TrustLevel.LOW_DISTRUST),
        ],
        schedule=schedule,
        decay=DecayParams(2, 8.0),
        max_chain_length=4,
    )


def test_multihop_trace_digest():
    result = run(multihop_scenario())
    assert sum(record.path == "recommended" for record in result.trace) >= 50
    assert sha256(result.trace_csv()) == (
        "e50b5cdd80bdde5c5d189516426215d311b93b14b0857aaac6a598d46c2ff165"
    )

"""Golden traces: SHA-256 pins of byte-exact simulator output.

A refactor must leave these digests unchanged.  A change that alters
them on purpose says why in CHANGES.md and updates the pin here.
"""
from __future__ import annotations

import hashlib
import random
import re
import types
from pathlib import Path

import pytest

from cloudtrust.calculus import DecayParams, Grade, TrustLevel
from cloudtrust.cli import main
from cloudtrust.simulation import (
    EntitySpec,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SlaProfile,
    run,
)

from test_acceptance import fuzz_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo.json"


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


def test_demo_graph_snapshot_files_digest(tmp_path, capsys):
    # the files `cloudtrust run --snapshots` writes, joined in (tick,
    # index) order, hold the bytes pinned above
    out_dir = tmp_path / "out"
    assert main(["run", str(DEMO), "--out", str(out_dir), "--snapshots"]) == 0
    files = {}
    for path in out_dir.glob("graph_t*_r*.json"):
        tick, index = re.fullmatch(r"graph_t(\d+)_r(\d+)\.json", path.name).groups()
        files[(int(tick), int(index))] = path.read_text(encoding="utf-8")
    text = "".join(files[key] for key in sorted(files))
    assert len(files) == 7
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


def ranked_scenario() -> ScenarioConfig:
    """Ten entities on a seeded random schedule that leaves three
    requests in four to ranked provider choice.

    A `random_schedule` with ranked choice never leaves a requester's
    first candidate; here one request in four names a random provider,
    so a ranked request weighs several direct degrees, and the named
    requests also resolve over chains.  `vault` (level II) denies
    ignorance.
    """
    ids = [f"n{i}" for i in range(10)]
    qualities = [0.95, 0.2, 0.85, 0.6, 0.9, 0.35, 0.75, 0.5, 0.99, 0.3]
    grades = [Grade.HIGH, Grade.MEDIUM, Grade.LOW]
    rng = random.Random(18)
    schedule = []
    for tick in range(1000):
        i, service = rng.randrange(10), rng.choice(["files", "vault"])
        provider = ids[(i + rng.randint(1, 9)) % 10] if rng.random() < 0.25 else None
        schedule.append(Request(tick // 2, ids[i], service, provider))
    return ScenarioConfig(
        seed=18,
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
    )


def test_ranked_trace_digest():
    config = ranked_scenario()
    result = run(config)
    pairs = zip(config.schedule, result.trace)
    ranked = [record for request, record in pairs if request.provider is None]
    assert len({(record.requester, record.provider) for record in ranked}) > 20
    assert sum(record.path == "recommended" for record in result.trace) >= 30
    assert sha256(result.trace_csv()) == (
        "8fc4c05430cef1120660e3dac8c7a9671728574f67e5c97edbbfdefc4621af63"
    )


def bench_workloads() -> types.ModuleType:
    """`bench/workloads.py`, executed from its source so that nothing is
    written under `bench/`."""
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = bench_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.PINNED_TRACE_SHA256))
def test_bench_trace_digest(name):
    config = ScenarioConfig.from_dict(WORKLOADS.WORKLOADS[name](WORKLOADS.DEFAULT_SEED))
    config.graph_snapshots = "--snapshots" in WORKLOADS.RUN_FLAGS.get(name, [])
    assert sha256(run(config).trace_csv()) == WORKLOADS.PINNED_TRACE_SHA256[name]


def emitted_snapshots(config: ScenarioConfig) -> str:
    """Every graph a `--snapshots` run hands its sink, rendered and joined
    in the order the run emits them."""
    config.graph_snapshots = True
    texts = []
    run(config, lambda key, graph: texts.append(graph.to_json()))
    return "".join(texts)


def test_replay10_snapshots_digest():
    # the 490 graphs the bench writes for replay10 at seed 0
    config = ScenarioConfig.from_dict(WORKLOADS.WORKLOADS["replay10"](WORKLOADS.DEFAULT_SEED))
    text = emitted_snapshots(config)
    assert text.count('{\n  "nodes"') == 490
    assert sha256(text) == "157622c0690dcd386b33f8b3d1321171c0ef04cbc792729e2fa5f0998bca7b64"


def test_ranked_snapshots_digest():
    # ranked choice reads each request's snapshot when there is one
    assert sha256(emitted_snapshots(ranked_scenario())) == (
        "21d3f7e0f39eda6062c1bd402919a9a931872cddfe22730dc9b2d04367846863"
    )


@pytest.mark.parametrize("name, digest", [
    ("fuzz6", "cc9630af1163417d56aa5b4b1a95eaaed9bb469ae1554c04e615e05162059d96"),
    ("wide60", "6b24083749477eec5893dc8689464144b78fea752a6e0f1395840207e0ecfdd7"),
])
def test_bench_store_snapshots_digest(name, digest):
    # every store document `cloudtrust run` writes for the workload at
    # seed 0, joined in owner order
    config = ScenarioConfig.from_dict(WORKLOADS.WORKLOADS[name](WORKLOADS.DEFAULT_SEED))
    stores = run(config).stores
    text = "".join(stores[owner].to_json() for owner in sorted(stores))
    assert text.count('{\n  "owner"') == len(config.entities)
    assert sha256(text) == digest

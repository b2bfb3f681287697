"""Golden traces: SHA-256 pins of byte-exact simulator output.

A refactor must leave these digests unchanged.  A change that alters
them on purpose says why in CHANGES.md and updates the pin here.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

from cloudtrust.simulation import ScenarioConfig, run

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


def test_fuzz_trace_digest():
    assert sha256(run(fuzz_scenario()).trace_csv()) == (
        "cd59f8c69690d97043555f032831a6693b3b42c4cd8d88a7ef12e7e669995315"
    )

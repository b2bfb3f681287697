"""Trust-management engine and deterministic network simulator.

The package splits into five layers:

* `calculus` — pure trust formulas (decay, direct trust, chain
  evaluation, satisfaction scoring, level classification);
* `tables` — per-entity state: direct-trust and recommended-list
  tables with JSON snapshots;
* `graph` — the directed trust graph, chain discovery, and
  recommendation evaluation;
* `simulation` — the seeded tick-based protocol simulator;
* `cli` — the `cloudtrust` command line on top of all of it.
"""
from .calculus import (
    ChainEdge,
    DecayParams,
    Grade,
    InteractionRecord,
    ReputationFactor,
    SlaMetrics,
    TrustChain,
    TrustLevel,
    aggregate_recommendations,
    chain_trust,
    classify_level,
    clamp01,
    decay_factor,
    direct_trust,
    edge_weight,
    resolve_trust_degree,
    satisfaction_level,
)
from .graph import EdgeStats, TrustGraph, discover_chains, evaluate_recommendation
from .simulation import (
    EntitySpec,
    RandomSchedule,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SimulationResult,
    SlaProfile,
    TraceRecord,
    gate_access,
    run,
    sample_sla,
)
from .tables import DirectTrustTable, EntityStore, RecommendedListTable

__version__ = "0.1.0"

__all__ = [
    "ChainEdge",
    "DecayParams",
    "DirectTrustTable",
    "EdgeStats",
    "EntitySpec",
    "EntityStore",
    "Grade",
    "InteractionRecord",
    "RandomSchedule",
    "RecommendedListTable",
    "ReputationFactor",
    "Request",
    "ScenarioConfig",
    "ServiceSpec",
    "SimulationResult",
    "SlaMetrics",
    "SlaProfile",
    "TraceRecord",
    "TrustChain",
    "TrustGraph",
    "TrustLevel",
    "aggregate_recommendations",
    "chain_trust",
    "classify_level",
    "clamp01",
    "decay_factor",
    "direct_trust",
    "discover_chains",
    "edge_weight",
    "evaluate_recommendation",
    "gate_access",
    "resolve_trust_degree",
    "run",
    "sample_sla",
    "satisfaction_level",
]

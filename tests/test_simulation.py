"""Simulator tests: protocol order, determinism, and bookkeeping."""
from __future__ import annotations

import random
import weakref
from pathlib import Path

import pytest

from cloudtrust.calculus import (
    DecayParams,
    Grade,
    InteractionRecord,
    ReputationFactor,
    TrustLevel,
    classify_level,
    direct_trust,
)
from cloudtrust.graph import evaluate_recommendation
from cloudtrust.simulation import (
    ConfigError,
    EntitySpec,
    RandomSchedule,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SlaProfile,
    TRACE_HEADER,
    gate_access,
    run,
    sample_sla,
    snapshot_graph,
    _LiveGraph,
    _Simulator,
)


DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


def five_entity_config(**overrides):
    """Scripted scenario touching all three resolution paths."""
    base = dict(
        seed=7,
        entities=[
            EntitySpec("a", Grade.HIGH, SlaProfile.uniform(0.9)),
            EntitySpec("b", Grade.MEDIUM, SlaProfile.uniform(0.9)),
            EntitySpec("c", Grade.LOW, SlaProfile.uniform(0.85)),
            EntitySpec("d", Grade.MEDIUM, SlaProfile.uniform(0.8)),
            EntitySpec("e", Grade.HIGH, SlaProfile.uniform(0.95)),
        ],
        services=[
            ServiceSpec("exchange", TrustLevel.NO_OPINION),
            ServiceSpec("archive", TrustLevel.LOW_DISTRUST),
        ],
        schedule=[
            Request(0, "a", "archive", "c"),
            Request(1, "a", "exchange", "b"),
            Request(2, "b", "exchange", "c"),
            Request(3, "a", "exchange", "b"),
            Request(4, "a", "exchange", "c"),
            Request(5, "d", "exchange"),
            Request(6, "a", "archive", "c"),
        ],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def rebuild_history_from_trace(trace):
    """Replay bookkeeping from the trace alone: every grant appends one
    record to the requester's table for (provider, service)."""
    histories: dict = {}
    for record in trace:
        if record.granted:
            histories.setdefault(
                (record.requester, record.provider, record.service), []
            ).append(record)
    return histories


# ---------------------------------------------------------------------------
# gate_access / sample_sla


@pytest.mark.parametrize(
    "td, required, granted",
    [
        (0.5, TrustLevel.MEDIUM_TRUST, True),
        (0.4, TrustLevel.MEDIUM_TRUST, False),
        (1.0, TrustLevel.COMPLETE_TRUST, True),
        (0.0, TrustLevel.NO_OPINION, True),
        (0.99, TrustLevel.COMPLETE_TRUST, False),
    ],
)
def test_gate_access_level_ordering(td, required, granted):
    assert gate_access(td, required) is granted


def test_sample_sla_point_masses():
    rng = random.Random(1)
    perfect = sample_sla(SlaProfile.uniform(1.0), rng)
    assert perfect.as_tuple() == (1.0, 1.0, 1.0, 1.0, 1.0)
    broken = sample_sla(SlaProfile.uniform(0.0), rng)
    assert broken.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_sample_sla_is_seed_deterministic():
    draws_a = [sample_sla(SlaProfile.uniform(0.7), random.Random(42)) for _ in range(1)]
    draws_b = [sample_sla(SlaProfile.uniform(0.7), random.Random(42)) for _ in range(1)]
    assert draws_a == draws_b
    rng1, rng2 = random.Random(9), random.Random(9)
    seq1 = [sample_sla(SlaProfile.uniform(0.7), rng1).as_tuple() for _ in range(20)]
    seq2 = [sample_sla(SlaProfile.uniform(0.7), rng2).as_tuple() for _ in range(20)]
    assert seq1 == seq2


def test_sample_sla_stays_in_unit_interval():
    rng = random.Random(5)
    profile = SlaProfile(0.9, 0.2, 0.5, 0.99, 0.01, concentration=3.0)
    for _ in range(500):
        assert all(0.0 <= v <= 1.0 for v in sample_sla(profile, rng).as_tuple())


# ---------------------------------------------------------------------------
# the scripted scenario


def test_fresh_network_first_request_is_ignorance_and_denied():
    result = run(five_entity_config())
    first = result.trace[0]
    assert first.path == "ignorance"
    assert first.td == 0.0
    assert first.level is TrustLevel.NO_OPINION
    assert not first.granted  # archive requires level II


def test_all_three_paths_appear():
    result = run(five_entity_config())
    assert {r.path for r in result.trace} == {"ignorance", "direct", "recommended"}


def test_direct_path_value_matches_logged_history():
    config = five_entity_config()
    result = run(config)
    record = result.trace[3]
    assert record.path == "direct"
    # rebuild the requester's history for (provider, service) from the
    # trace itself and recompute with the core formula
    history = [
        InteractionRecord(r.tick, r.score, r.score >= config.positive_threshold)
        for r in rebuild_history_from_trace(result.trace[:3])[
            (record.requester, record.provider, record.service)
        ]
    ]
    rf = ReputationFactor(Grade.MEDIUM, config.grade_bonus[Grade.MEDIUM])
    assert record.td == direct_trust(history, record.tick, config.decay, rf)


def test_recommended_path_value_matches_graph_snapshot():
    config = five_entity_config(graph_snapshots=True)
    result = run(config)
    record = result.trace[4]
    assert record.path == "recommended"
    graph = result.graph_snapshots[(record.tick, 0)]
    value, _count = evaluate_recommendation(
        graph, record.requester, record.provider, record.service, config.max_chain_length
    )
    assert record.td == value


def test_protocol_order_invariant_from_trace_replay():
    result = run(five_entity_config())
    seen: set = set()
    for record in result.trace:
        key = (record.requester, record.provider, record.service)
        if record.path in ("recommended", "ignorance"):
            assert key not in seen, f"direct entry existed at tick {record.tick}"
        else:
            assert key in seen, f"direct path without history at tick {record.tick}"
        if record.granted:
            seen.add(key)


def test_granted_iff_level_meets_requirement():
    config = five_entity_config()
    required = {s.id: s.required_level for s in config.services}
    result = run(config)
    for record in result.trace:
        assert record.level is classify_level(record.td)
        assert record.granted == (record.level >= required[record.service])


def test_conservation_every_grant_appends_exactly_one_record():
    config = five_entity_config()
    result = run(config)
    total_records = sum(
        store.direct.entry(trustee, service).n_total
        for store in result.stores.values()
        for trustee, service in store.direct.keys()
    )
    granted = sum(1 for r in result.trace if r.granted)
    assert granted > 0
    assert total_records == granted
    # and denied requests leave no trace in any table
    histories = rebuild_history_from_trace(result.trace)
    for (requester, provider, service), grants in histories.items():
        entry = result.stores[requester].direct.entry(provider, service)
        assert entry.n_total == len(grants)


def test_same_seed_gives_byte_identical_traces():
    a = run(five_entity_config()).trace_csv()
    b = run(five_entity_config()).trace_csv()
    assert a == b
    assert a.splitlines()[0] == TRACE_HEADER


def test_different_seed_changes_outcomes():
    a = run(five_entity_config()).trace_csv()
    b = run(five_entity_config(seed=8)).trace_csv()
    assert a != b


def test_auto_selection_is_deterministic_and_ranked():
    # tick 5 lets d pick any provider; with no evidence the tie breaks
    # to the lexicographically smallest candidate
    result = run(five_entity_config())
    record = result.trace[5]
    assert record.requester == "d"
    assert record.provider == "a"


def test_scores_feed_positive_tallies():
    config = five_entity_config(positive_threshold=0.99)
    result = run(config)
    for store in result.stores.values():
        for trustee, service in store.direct.keys():
            entry = store.direct.entry(trustee, service)
            assert entry.n_positive == sum(
                1 for r in entry.history if r.score >= 0.99
            )


# ---------------------------------------------------------------------------
# decay and reputation dynamics


def test_direct_trust_decays_toward_latest_evidence():
    # declining scores with k=2: the weighted mean slides toward the
    # newest (lowest) score as the clock advances without interactions
    history = [
        InteractionRecord(0, 0.95, True),
        InteractionRecord(2, 0.8, True),
        InteractionRecord(4, 0.55, True),
    ]
    params = DecayParams(2, 4.0)
    values = [direct_trust(history, t, params) for t in range(4, 40, 2)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.55, abs=0.01)


def test_grade_gap_shows_up_in_final_tables():
    # identical providers except for grade: the lookup difference is the
    # bonus gap exactly (pre-clamp regime)
    history = [InteractionRecord(0, 0.5, True), InteractionRecord(1, 0.6, True)]
    params = DecayParams(1, 1.0)
    high = direct_trust(history, 2, params, ReputationFactor(Grade.HIGH, 0.10))
    low = direct_trust(history, 2, params, ReputationFactor(Grade.LOW, 0.00))
    assert high - low == pytest.approx(0.10, abs=1e-15)


# ---------------------------------------------------------------------------
# config parsing and validation


def minimal_config_dict():
    return {
        "seed": 3,
        "entities": [
            {"id": "a", "grade": "High", "sla": 0.9},
            {"id": "b", "grade": "Low", "sla": 0.8},
        ],
        "services": [{"id": "files", "required_level": "I"}],
        "schedule": [{"tick": 0, "requester": "a", "service": "files"}],
    }


def test_config_from_dict_roundtrip():
    config = ScenarioConfig.from_dict(minimal_config_dict())
    assert config.seed == 3
    assert config.entities[0].grade is Grade.HIGH
    assert config.services[0].required_level is TrustLevel.NO_OPINION
    assert config.schedule == [Request(0, "a", "files")]


PER_METRIC_SLA = {
    "availability": 0.9,
    "processing_capacity": 0.8,
    "recovery_time": 0.7,
    "connectivity": 0.6,
    "peak_load_performance": 0.5,
}


def test_config_accepts_per_metric_sla_and_weights():
    data = minimal_config_dict()
    data["entities"][0]["sla"] = dict(PER_METRIC_SLA)
    data["sl_weights"] = [0.4, 0.3, 0.1, 0.1, 0.1]
    config = ScenarioConfig.from_dict(data)
    assert config.entities[0].profile.connectivity == 0.6
    assert config.sl_weights == (0.4, 0.3, 0.1, 0.1, 0.1)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("seed"),
        lambda d: d.update(seed=-1),
        lambda d: d["entities"].append({"id": "a", "grade": "Low", "sla": 0.5}),
        lambda d: d["entities"][0].update(grade="Epic"),
        lambda d: d["services"][0].update(required_level="IX"),
        lambda d: d["schedule"].append({"tick": 0, "requester": "zz", "service": "files"}),
        lambda d: d["schedule"].append({"tick": 0, "requester": "a", "service": "files", "provider": "a"}),
        lambda d: d.update(rf_bonus={"High": 0.0, "Medium": 0.05, "Low": 0.1}),
        lambda d: d.update(sl_weights=[1, 1, 1, 1, 1]),
        lambda d: d.update(max_chain_length=1),
        lambda d: d.pop("schedule"),
        lambda d: d.update(random_schedule={"ticks": 5}),  # both schedules set
        lambda d: d.update(decay={"k": 0}),
        lambda d: d.update(history_cap="5"),
        lambda d: d.update(history_cap=2.5),
        lambda d: d.update(positive_threshold="x"),
        lambda d: d.update(max_chain_length="4"),
        lambda d: d.update(sl_weights=5),
        lambda d: d.update(graph_snapshots="false"),
        lambda d: d.update(random_schedule={"ticks": "3"}) or d.pop("schedule"),
        lambda d: d.update(sl_weights=[True, False, False, False, False]),
        lambda d: d.update(decay={"tau": True}),
        lambda d: d["entities"][0].update(sla_concentration=True),
        lambda d: d.update(rf_bonus={"High": 0.1, "Medium": 0.05, "Low": False}),
        lambda d: d["entities"][0].update(sla=dict(PER_METRIC_SLA, availability=True)),
        lambda d: d["entities"][0].update(sla=dict(PER_METRIC_SLA, availability="0.9")),
        lambda d: d.update(sl_weights=["0.2"] * 5),
        lambda d: d.update(rf_bonus={"High": "0.1", "Medium": 0.05, "Low": 0.0}),
        lambda d: d["entities"][0].update(sla=dict(PER_METRIC_SLA, concentration="25")),
        lambda d: d["entities"][0].update(sla=10**400),  # no float holds it
        lambda d: d["schedule"][0].update(tick=2**1024),  # nor this
    ],
)
def test_invalid_configs_rejected(mutate):
    data = minimal_config_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_config_from_json_rejects_bad_document():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json("{ not json")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json("[]")


def test_provider_restricted_services_validated():
    data = minimal_config_dict()
    data["services"][0]["providers"] = ["b"]
    config = ScenarioConfig.from_dict(data)
    assert config.services[0].providers == ("b",)
    data["services"][0]["providers"] = ["ghost"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


def test_random_schedule_runs_and_is_deterministic():
    data = minimal_config_dict()
    del data["schedule"]
    data["random_schedule"] = {"ticks": 50, "requests_per_tick": 2}
    config = ScenarioConfig.from_dict(data)
    first = run(config).trace_csv()
    second = run(ScenarioConfig.from_dict(data)).trace_csv()
    assert first == second
    assert len(first.splitlines()) == 101  # header + 50 * 2


def snapshot_config():
    # three requests a tick, so the sink's keys count up within a tick
    return five_entity_config(
        schedule=None,
        random_schedule=RandomSchedule(ticks=8, requests_per_tick=3, provider_choice="ranked"),
        graph_snapshots=True,
    )


def test_run_hands_each_snapshot_to_its_sink_in_trace_order():
    received = []
    result = run(snapshot_config(), lambda key, graph: received.append((key, graph.to_json())))
    assert result.graph_snapshots == {}
    assert [key for key, _ in received] == [
        (tick, index) for tick in range(8) for index in range(3)
    ]
    assert [key[0] for key, _ in received] == [record.tick for record in result.trace]
    collecting = run(snapshot_config())
    assert collecting.trace_csv() == result.trace_csv()
    collected = collecting.graph_snapshots
    assert received == [(key, graph.to_json()) for key, graph in collected.items()]


def test_a_sink_run_holds_one_snapshot_at_a_time():
    earlier = []

    def sink(key, graph):
        assert [ref for ref in earlier if ref() is not None] == []
        earlier.append(weakref.ref(graph))

    run(snapshot_config(), sink)
    assert len(earlier) == 24


def test_snapshot_graph_matches_store_contents():
    config = five_entity_config()
    result = run(config)
    rf = {
        e.id: ReputationFactor(e.grade, config.grade_bonus[e.grade])
        for e in config.entities
    }
    graph = snapshot_graph(_LiveGraph(result.stores, rf, config.decay, t_now=100))
    store_a = result.stores["a"]
    for trustee, service in store_a.direct.keys():
        stats = graph.edge("a", trustee, service)
        assert stats is not None
        entry = store_a.direct.entry(trustee, service)
        assert (stats.n_positive, stats.n_total) == (entry.n_positive, entry.n_total)
        assert stats.direct_trust == store_a.direct.lookup_direct(
            trustee, service, 100, config.decay, rf[trustee]
        )


@pytest.mark.parametrize("ticks", [3, 15, 40, 90])
def test_live_view_reads_the_edges_a_snapshot_holds(ticks):
    config = ScenarioConfig(
        seed=11,
        entities=[
            EntitySpec(name, grade, SlaProfile.uniform(quality, concentration=6.0))
            for name, grade, quality in [
                ("a", Grade.HIGH, 0.9),
                ("b", Grade.MEDIUM, 0.3),
                ("c", Grade.LOW, 0.7),
                ("d", Grade.MEDIUM, 0.55),
                ("e", Grade.HIGH, 0.95),
                ("f", Grade.LOW, 0.2),
            ]
        ],
        services=[
            ServiceSpec("exchange", TrustLevel.NO_OPINION),
            ServiceSpec("archive", TrustLevel.LOW_DISTRUST),
        ],
        random_schedule=RandomSchedule(ticks=ticks, requests_per_tick=2, provider_choice="random"),
        decay=DecayParams(2, 5.0),
        history_cap=6,
    )
    config.validate()
    simulator = _Simulator(config)
    stores = simulator.run().stores
    for t_now in (ticks - 1, ticks + 4):
        view = _LiveGraph(stores, simulator.rf, config.decay, t_now)
        snapshot = snapshot_graph(_LiveGraph(stores, simulator.rf, config.decay, t_now))
        for service in config.service_ids():
            for owner in stores:
                held = {
                    dst: stats
                    for src, dst, edge_service, stats in snapshot.edges()
                    if src == owner and edge_service == service
                }
                assert view.out_edges(owner, service) == held
                for dst in stores:
                    if dst != owner:
                        assert view.edge(owner, dst, service) == snapshot.edge(owner, dst, service)
                        assert view.direct(owner, dst, service) == snapshot.direct(
                            owner, dst, service
                        )


def count_direct_trust(monkeypatch) -> list:
    """Record the (history, t_now) of every direct-trust computation.  A
    history list lives as long as its table entry, so its id stands for
    the entry's (owner, trustee, service)."""
    calls = []

    def counting_direct_trust(history, t_now, params, rf=None):
        calls.append((id(history), t_now))
        return direct_trust(history, t_now, params, rf)

    monkeypatch.setattr("cloudtrust.tables.direct_trust", counting_direct_trust)
    return calls


def test_view_computes_each_snapshot_edge_once(monkeypatch):
    # the snapshot and the ladder of a request read one view, so each
    # edge's trust is computed once, though the ladder reads it again
    calls = count_direct_trust(monkeypatch)
    config = ScenarioConfig.from_file(DEMO)
    config.graph_snapshots = True
    snapshots = run(config).graph_snapshots
    edges = sum(1 for graph in snapshots.values() for _ in graph.edges())
    assert len(calls) == edges == 12


def test_ranked_run_computes_each_key_once_per_request(monkeypatch):
    # provider selection and the ladder's direct rung read one view, so a
    # key is never computed twice within a request, and with one request
    # per tick never twice at all
    calls = count_direct_trust(monkeypatch)
    n = 20
    config = ScenarioConfig(
        seed=3,
        entities=[
            EntitySpec(f"e{i:03d}", Grade.MEDIUM, SlaProfile.uniform(0.3 + 0.65 * i / (n - 1)))
            for i in range(n)
        ],
        services=[ServiceSpec("x", TrustLevel.NO_OPINION), ServiceSpec("y", TrustLevel.LOW_DISTRUST)],
        random_schedule=RandomSchedule(ticks=2000, requests_per_tick=1, provider_choice="ranked"),
    )
    run(config)
    assert len(set(calls)) == len(calls) == 946


def test_trace_csv_shape():
    result = run(five_entity_config())
    lines = result.trace_csv().splitlines()
    assert lines[0] == "tick,requester,provider,service,path,td,level,decision,score"
    denied = [l for l in lines[1:] if ",denied," in l]
    assert all(l.endswith(",denied,") for l in denied)  # no score on denial
    granted = [l for l in lines[1:] if ",granted," in l]
    assert all(len(l.rsplit(",", 1)[1]) == 6 for l in granted)  # 0.XXXX

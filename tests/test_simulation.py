"""Simulator tests: protocol order, determinism, and bookkeeping."""
from __future__ import annotations

import copy
import gc
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudtrust.calculus import (
    DecayParams,
    Grade,
    InteractionRecord,
    ReputationFactor,
    SlaMetrics,
    TrustLevel,
    classify_level,
    direct_trust,
    edge_weight,
)
from cloudtrust.graph import TrustGraph, discover_chains, evaluate_recommendation
from cloudtrust.simulation import (
    ConfigError,
    EntitySpec,
    RandomSchedule,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SlaProfile,
    TRACE_HEADER,
    TraceRecord,
    gate_access,
    run,
    sample_sla,
    snapshot_graph,
    _expand_schedule,
    _LiveGraph,
    _Simulator,
)
from cloudtrust.tables import EntityStore, RecommendedEntry, _recommended_record


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


def reference_sample_sla(profile: SlaProfile, rng: random.Random) -> SlaMetrics:
    """`sample_sla` as written before profiles kept their beta shapes: the
    shapes worked out from the qualities at every draw."""
    values = []
    for quality in profile.as_tuple():
        if quality <= 0.0:
            values.append(0.0)
        elif quality >= 1.0:
            values.append(1.0)
        else:
            alpha = quality * profile.concentration
            beta = (1.0 - quality) * profile.concentration
            values.append(min(1.0, max(0.0, rng.betavariate(alpha, beta))))
    return SlaMetrics(*values)


QUALITIES = st.sampled_from([0.0, -0.0, 0, 1.0, 1, 0.5, 0.25, 0.04]) | st.floats(0.0, 1.0)


@given(
    qualities=st.lists(QUALITIES, min_size=5, max_size=5),
    concentration=st.sampled_from([4.0, 25.0]),
    seed=st.integers(0, 2**32),
)
# q * c == 1.0 is beta(1, 1): a real draw, not a point mass
@example(qualities=[0.5, 0.5, 0.0, 1.0, 0.5], concentration=2.0, seed=0)
@example(qualities=[0.25, 0.04, 0.25, 0.04, 0.5], concentration=4.0, seed=1)
@example(qualities=[0.04, 0.04, 1, 0, -0.0], concentration=25.0, seed=2)
@settings(max_examples=150, deadline=None)
def test_sample_sla_draws_as_the_reference_sampler(qualities, concentration, seed):
    profile = SlaProfile(*qualities, concentration=concentration)
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got, want = sample_sla(profile, ours), reference_sample_sla(profile, reference)
        # `repr` tells 0.0 from -0.0 and from an int 0
        assert list(map(repr, got.as_tuple())) == list(map(repr, want.as_tuple()))
        assert got == want
    assert ours.getstate() == reference.getstate()


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


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(
            lambda d: d.update(max_chain_length=99),
            "bad max_chain_length: max_len must be within [2, 8], got 99",
            id="max_chain_length",
        ),
        pytest.param(
            lambda d: d["entities"][0].update(sla=1.5),
            "config failed validation: availability must be in [0, 1], got 1.5",
            id="sla",
        ),
        pytest.param(
            lambda d: d.update(rf_bonus={"High": 0.2, "Medium": 0.05, "Low": 0.0}),
            "bad rf_bonus: bonus for High must be in [0, 0.1], got 0.2",
            id="rf_bonus",
        ),
        pytest.param(
            lambda d: d.update(positive_threshold=1.5),
            "positive_threshold must be in [0, 1], got 1.5",
            id="positive_threshold",
        ),
        pytest.param(
            lambda d: d.update(history_cap=0),
            "history_cap must be an integer >= 1, got 0",
            id="history_cap_0",
        ),
        pytest.param(
            lambda d: d.update(history_cap=-3),
            "history_cap must be an integer >= 1, got -3",
            id="history_cap_-3",
        ),
        pytest.param(
            lambda d: d["services"][0].update(providers=["b", "a", "b", "b"]),
            "service 'files' lists providers more than once: ['b']",
            id="providers_repeated",
        ),
    ],
)
def test_config_errors_carry_the_owning_check_message(mutate, message):
    data = minimal_config_dict()
    mutate(data)
    with pytest.raises(ConfigError) as caught:
        ScenarioConfig.from_dict(data)
    assert str(caught.value) == message


def python_config(field, value):
    """The minimal config, built in Python with one integer field set."""
    config = ScenarioConfig.from_dict(minimal_config_dict())
    if field in ("ticks", "requests_per_tick"):
        config.schedule = None
        config.random_schedule = RandomSchedule(**dict({"ticks": 3}, **{field: value}))
    else:
        setattr(config, field, value)
    return config


# `from_dict` reads each of these as a JSON integer; a config built in
# Python reaches `validate` with whatever type it was given
@pytest.mark.parametrize("field", ["max_chain_length", "history_cap", "ticks", "requests_per_tick"])
def test_validate_accepts_only_an_int_for_integer_fields(field):
    python_config(field, 3).validate()
    # the cap's one check is the tables' own, which words it with its bound
    kind = "an integer >= 1" if field == "history_cap" else "an integer"
    for value in ("3", 3.0, 2.5, True, [3]):
        config = python_config(field, value)
        with pytest.raises(ConfigError, match=f"{field} must be {kind}, got"):
            config.validate()
        with pytest.raises(ConfigError):
            run(config)


@pytest.mark.parametrize("cap", ["3", 2.0, True])
def test_history_cap_of_a_python_config_carries_the_table_message(cap):
    # `from_dict` refuses these as JSON types first, so only a config
    # built in Python reaches the cap's check with them
    with pytest.raises(ConfigError) as caught:
        python_config("history_cap", cap).validate()
    assert str(caught.value) == f"history_cap must be an integer >= 1, got {cap!r}"


def replace_id(config, kind, value):
    """Put `value` where the minimal config names one id of this kind."""
    if kind == "entity":
        config.entities[1] = config.entities[1]._replace(id=value)
    elif kind == "service":
        config.services[0] = config.services[0]._replace(id=value)
    elif kind == "provider":
        config.services[0] = config.services[0]._replace(providers=("a", value))
    else:
        field = kind.split()[1]
        config.schedule[0] = config.schedule[0]._replace(**{field: value})
    return config


# each id is checked before anything hashes it, so an unhashable one
# reports its type instead of ending in a bare `TypeError`
@pytest.mark.parametrize(
    "kind, value",
    [
        pytest.param("entity", ["b"], id="entity-list"),
        pytest.param("entity", 1, id="entity-int"),
        pytest.param("service", ["files"], id="service-list"),
        pytest.param("provider", ["b"], id="provider-list"),
        pytest.param("schedule requester", ["a"], id="schedule-requester-list"),
        pytest.param("schedule service", ["files"], id="schedule-service-list"),
        pytest.param("schedule provider", ["b"], id="schedule-provider-list"),
    ],
)
def test_ids_of_a_python_config_carry_the_id_message(kind, value):
    config = replace_id(ScenarioConfig.from_dict(minimal_config_dict()), kind, value)
    with pytest.raises(ConfigError) as caught:
        config.validate()
    assert str(caught.value) == f"{kind.split()[-1]} must be a string, got {value!r}"
    with pytest.raises(ConfigError):
        run(config)


# a schedule field of the wrong type is refused before anything reads it
@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("schedule", 5, "schedule must be a list of Request, got int", id="int"),
        pytest.param("schedule", "ab", "schedule must be a list of Request, got str", id="str"),
        pytest.param(
            "schedule", [5], "a schedule entry must be a Request, got 5", id="entry-int"
        ),
        pytest.param(
            "schedule",
            [{"tick": 0}],
            "a schedule entry must be a Request, got {'tick': 0}",
            id="entry-dict",
        ),
        pytest.param(
            "random_schedule",
            5,
            "random_schedule must be a RandomSchedule, got 5",
            id="random-schedule-int",
        ),
    ],
)
def test_schedule_fields_of_a_python_config_carry_a_config_error(field, value, message):
    config = ScenarioConfig.from_dict(minimal_config_dict())
    config.schedule = None
    setattr(config, field, value)
    with pytest.raises(ConfigError) as caught:
        config.validate()
    assert str(caught.value) == message
    with pytest.raises(ConfigError):
        run(config)


def three_request_config():
    """Two entities, one service and three requests, built in Python."""
    return ScenarioConfig(
        seed=3,
        entities=[
            EntitySpec("a", Grade.HIGH, SlaProfile.uniform(0.9)),
            EntitySpec("b", Grade.LOW, SlaProfile.uniform(0.8)),
        ],
        services=[ServiceSpec("files", TrustLevel.NO_OPINION)],
        schedule=[Request(0, "a", "files"), Request(1, "b", "files"), Request(2, "a", "files", "b")],
    )


def replace_field(config, record, name, value, index=0):
    """Put `value` in field `name` of one record of `config`, unchecked."""
    if record == "config":
        setattr(config, name, value)
    elif record == "decay":  # a frozen dataclass that checks itself when built
        config.decay = copy.copy(config.decay)
        object.__setattr__(config.decay, name, value)
    elif record == "random_schedule":
        config.schedule = None
        config.random_schedule = RandomSchedule(3)._replace(**{name: value})
    else:
        records = {"entity": config.entities, "service": config.services, "request": config.schedule}
        items = records[record]
        items[index % len(items)] = items[index % len(items)]._replace(**{name: value})
    return config


# Ill-typed values the config has ended on with a bare Python error, or
# run to the end with.
@pytest.mark.parametrize(
    "record, name, value",
    [
        pytest.param("config", "entities", 5, id="entities-int"),
        pytest.param("config", "grade_bonus", 5, id="grade_bonus-int"),
        pytest.param("config", "entities", [5, 5], id="entities-of-int"),
        pytest.param("config", "services", [5], id="services-of-int"),
        pytest.param("entity", "grade", "High", id="grade-str"),
        pytest.param("service", "required_level", "I", id="required_level-str"),
        pytest.param("config", "positive_threshold", "0.5", id="positive_threshold-str"),
        pytest.param("entity", "profile", None, id="profile-None"),
        pytest.param("service", "required_level", 7, id="required_level-int"),
        pytest.param("service", "providers", "ab", id="providers-str"),
        pytest.param("config", "decay", 5, id="decay-int"),
        pytest.param("config", "graph_snapshots", "no", id="graph_snapshots-str"),
    ],
)
def test_ill_typed_fields_of_a_python_config_end_in_a_config_error(record, name, value):
    config = replace_field(three_request_config(), record, name, value, index=1)
    with pytest.raises(ConfigError):
        config.validate()
    with pytest.raises(ConfigError):
        run(config)


VALUES_OF_KIND = {
    "int": st.integers(-3, 10),
    "float": st.floats(),
    "bool": st.booleans(),
    "str": st.text(max_size=3),
    "None": st.none(),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
}


def wrong_values(fields):
    """A (record, field, value) whose value has a kind the field does not
    take; `fields` maps each (record, field) to the kinds it takes."""
    return st.sampled_from(sorted(fields)).flatmap(
        lambda at: st.tuples(
            st.just(at),
            st.one_of([values for kind, values in VALUES_OF_KIND.items() if kind not in fields[at]]),
        )
    )


# the kinds of value each field of a Python-built config takes
PYTHON_FIELDS = {
    ("config", "seed"): {"int"},
    ("config", "entities"): {"list"},
    ("config", "services"): {"list"},
    ("config", "schedule"): {"list", "None"},
    ("config", "random_schedule"): {"None"},
    ("config", "decay"): set(),
    ("config", "grade_bonus"): {"dict"},
    ("config", "sl_weights"): set(),
    ("config", "max_chain_length"): {"int"},
    ("config", "positive_threshold"): {"int", "float"},
    ("config", "history_cap"): {"int", "None"},
    ("config", "graph_snapshots"): {"bool"},
    ("entity", "id"): {"str"},
    ("entity", "grade"): set(),
    ("entity", "profile"): set(),
    ("service", "id"): {"str"},
    ("service", "required_level"): set(),
    ("service", "providers"): {"None"},
    ("request", "tick"): {"int"},
    ("request", "requester"): {"str"},
    ("request", "service"): {"str"},
    ("request", "provider"): {"str", "None"},
    ("random_schedule", "ticks"): {"int"},
    ("random_schedule", "requests_per_tick"): {"int"},
    ("random_schedule", "provider_choice"): {"str"},
    ("decay", "k"): {"int"},
    ("decay", "tau"): {"int", "float"},
}


@given(wrong=wrong_values(PYTHON_FIELDS), index=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_a_python_config_with_one_ill_typed_field_ends_in_a_config_error(wrong, index):
    (record, name), value = wrong
    config = replace_field(three_request_config(), record, name, value, index)
    with pytest.raises(ConfigError):
        config.validate()
    with pytest.raises(ConfigError):
        run(config)


# the kinds of value each key of a JSON config takes; null leaves an
# optional key to its default
JSON_FIELDS = {
    ("config", "seed"): {"int"},
    ("config", "entities"): {"list"},
    ("config", "services"): {"list"},
    ("config", "schedule"): {"list", "None"},
    ("config", "random_schedule"): {"dict", "None"},
    ("config", "decay"): {"dict", "None"},
    ("config", "rf_bonus"): {"dict", "None"},
    ("config", "sl_weights"): {"list", "dict", "None"},
    ("config", "max_chain_length"): {"int", "None"},
    ("config", "positive_threshold"): {"int", "float", "None"},
    ("config", "history_cap"): {"int", "None"},
    ("config", "graph_snapshots"): {"bool", "None"},
    ("entities", "id"): {"str"},
    ("entities", "grade"): {"str"},
    ("entities", "sla"): {"int", "float", "dict", "None"},
    ("entities", "sla_concentration"): {"int", "float", "None"},
    ("services", "id"): {"str"},
    ("services", "required_level"): {"str"},
    ("services", "providers"): {"list", "None"},
    ("schedule", "tick"): {"int"},
    ("schedule", "requester"): {"str"},
    ("schedule", "service"): {"str"},
    ("schedule", "provider"): {"str", "None"},
    ("random_schedule", "ticks"): {"int"},
    ("random_schedule", "requests_per_tick"): {"int", "None"},
    ("random_schedule", "provider_choice"): {"str", "None"},
    ("decay", "k"): {"int", "None"},
    ("decay", "tau"): {"int", "float", "None"},
}


@given(wrong=wrong_values(JSON_FIELDS), index=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_a_json_config_with_one_ill_typed_key_ends_in_a_config_error(wrong, index):
    (record, key), value = wrong
    data = minimal_config_dict()
    data["schedule"].append({"tick": 1, "requester": "b", "service": "files", "provider": "a"})
    data["decay"] = {"k": 1, "tau": 1.0}
    if record == "config":
        data[key] = value
    elif record == "random_schedule":
        del data["schedule"]
        data["random_schedule"] = {"ticks": 3, key: value}
    elif record == "decay":
        data["decay"][key] = value
    else:
        data[record][index % len(data[record])][key] = value
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


@pytest.mark.parametrize(
    "place",
    [
        "config.max_chain_lenght",
        "config.entities[1].colour",
        "config.entities[0].sla.latency",
        "config.services[0].level",
        "config.schedule[0].when",
        "config.random_schedule.tick",
        "config.decay.kk",
        "config.sl_weights.bogus",
    ],
)
def test_an_unknown_key_is_refused_by_its_place(place):
    data = minimal_config_dict()
    data["entities"][0]["sla"] = dict(PER_METRIC_SLA)
    data["sl_weights"] = dict(zip(PER_METRIC_SLA, [0.2] * 5))
    data["decay"] = {"k": 1}
    if "random_schedule" in place:
        del data["schedule"]
        data["random_schedule"] = {"ticks": 3}
    path = place.replace("[", ".").replace("]", "").split(".")[1:]
    parent = data
    for key in path[:-1]:
        parent = parent[int(key) if key.isdigit() else key]
    parent[path[-1]] = 3
    with pytest.raises(ConfigError) as caught:
        ScenarioConfig.from_dict(data)
    assert str(caught.value) == f"{place!r} is not a known key"


def test_a_missing_random_schedule_ticks_is_reported_missing():
    data = minimal_config_dict()
    del data["schedule"]
    data["random_schedule"] = {"requests_per_tick": 2}
    with pytest.raises(ConfigError) as caught:
        ScenarioConfig.from_dict(data)
    assert str(caught.value) == "config.random_schedule.ticks is missing"


def test_sla_concentration_too_small_for_a_quality_is_refused():
    # 0.5 * 5e-324 rounds to 0.0, a beta shape `sample_sla` cannot draw with
    with pytest.raises(ValueError, match="concentration 5e-324 is too small for quality 0.5"):
        SlaProfile.uniform(0.5, concentration=5e-324)
    # qualities of exactly 0 or 1 are point masses and draw no beta
    assert SlaProfile(0.0, 1.0, 0.0, 1.0, 1.0, concentration=5e-324).concentration == 5e-324
    # one shape stays positive, the other does not
    with pytest.raises(ValueError, match="too small for quality 1e-300"):
        SlaProfile(1e-300, 1.0, 1.0, 1.0, 1.0, concentration=1e-30)
    profile = SlaProfile.uniform(1e-300, concentration=1e-10)
    assert 0.0 <= sample_sla(profile, random.Random(0)).availability <= 1.0
    data = minimal_config_dict()
    data["entities"][0]["sla_concentration"] = 5e-324
    with pytest.raises(ConfigError, match="concentration 5e-324 is too small"):
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


def test_a_provider_listed_twice_is_refused():
    # a repeated id would weigh a random provider draw towards it
    config = five_entity_config(
        schedule=None, random_schedule=RandomSchedule(ticks=300, provider_choice="random")
    )
    config.services = [ServiceSpec("files", TrustLevel.NO_OPINION, ("b", "b", "c", "b", "c"))]
    with pytest.raises(ConfigError) as caught:
        run(config)
    assert str(caught.value) == "service 'files' lists providers more than once: ['b', 'c']"


def test_random_schedule_runs_and_is_deterministic():
    data = minimal_config_dict()
    del data["schedule"]
    data["random_schedule"] = {"ticks": 50, "requests_per_tick": 2}
    config = ScenarioConfig.from_dict(data)
    first = run(config).trace_csv()
    second = run(ScenarioConfig.from_dict(data)).trace_csv()
    assert first == second
    assert len(first.splitlines()) == 101  # header + 50 * 2


def naive_expansion(config, rng):
    """The random schedule drawn with one `config.candidates` call per
    random provider choice, as the simulator did before its table."""
    schedule = config.random_schedule
    services = {service.id: service for service in config.services}
    requests = []
    for tick in range(schedule.ticks):
        for _ in range(schedule.requests_per_tick):
            requester = rng.choice(sorted(config.entity_ids()))
            service = rng.choice(sorted(services))
            provider = None
            if schedule.provider_choice == "random":
                provider = rng.choice(config.candidates(requester, services[service]))
            requests.append(Request(tick, requester, service, provider))
    return requests


@st.composite
def random_schedule_configs(draw):
    # ids in a drawn order, so the sorted candidate lists differ from it
    ids = draw(st.permutations([f"e{i}" for i in range(7)]))[: draw(st.integers(2, 7))]
    services = []
    for index in range(draw(st.integers(1, 3))):
        providers = None
        if draw(st.booleans()):
            # a random schedule needs a candidate for every requester
            providers = tuple(draw(st.permutations(ids))[: draw(st.integers(2, len(ids)))])
        services.append(ServiceSpec(f"s{index}", TrustLevel.NO_OPINION, providers))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**32)),
        entities=[EntitySpec(i, Grade.MEDIUM, SlaProfile.uniform(0.8)) for i in ids],
        # the config's service order need not be id order
        services=services[::-1] if draw(st.booleans()) else services,
        random_schedule=RandomSchedule(
            ticks=draw(st.integers(1, 12)),
            requests_per_tick=draw(st.integers(1, 3)),
            provider_choice=draw(st.sampled_from(["random", "ranked"])),
        ),
    )


@given(config=random_schedule_configs())
@settings(max_examples=150, deadline=None)
def test_expansion_over_the_run_table_matches_per_request_candidates(config):
    config.validate()
    simulator = _Simulator(config)
    assert simulator.candidates == {
        (entity, service.id): config.candidates(entity, service)
        for entity in config.entity_ids()
        for service in config.services
    }
    reference = random.Random()
    reference.setstate(simulator.rng.getstate())
    requests = _expand_schedule(config, simulator.rng, simulator.candidates)
    assert requests == naive_expansion(config, reference)
    assert all(request.__class__ is Request for request in requests)
    assert simulator.rng.getstate() == reference.getstate()


def assert_seeded_as_by_update(config):
    """Each store's recommended list after `_Simulator(config)` is the one
    an `update(service, peer, None, 0.0)` per candidate builds."""
    for owner, store in _Simulator(config).stores.items():
        naive = EntityStore.new(owner, config.history_cap)
        for service in config.services:
            for peer in config.candidates(owner, service):
                naive.recommended.update(service.id, peer, None, 0.0)
        assert store.recommended == naive.recommended
        assert store.to_json() == naive.to_json()
        assert owner not in {entry.peer for _, entry in store.recommended.entries()}


@given(config=random_schedule_configs())
@settings(max_examples=100, deadline=None)
def test_seeding_matches_one_update_per_candidate(config):
    config.validate()
    assert_seeded_as_by_update(config)


def test_a_sole_provider_is_seeded_with_no_list_of_its_own():
    config = five_entity_config()
    config.services[1] = config.services[1]._replace(providers=("c",))
    config.validate()
    assert_seeded_as_by_update(config)


def recommended_keys(stores):
    return {
        owner: [(service, entry.peer) for service, entry in store.recommended.entries()]
        for owner, store in stores.items()
    }


def test_stores_share_each_unrated_entry_and_own_their_lists():
    config = five_entity_config(
        schedule=None,
        random_schedule=RandomSchedule(ticks=60, requests_per_tick=2, provider_choice="random"),
    )
    simulator = _Simulator(config)
    tables = {owner: store.recommended for owner, store in simulator.stores.items()}
    shared = {}
    for table in tables.values():
        for service, entry in table.entries():
            assert shared.setdefault((service, entry.peer), entry) is entry
    assert len(shared) <= len(config.entities) * len(config.services)
    lists = [entries for table in tables.values() for entries in table._entries.values()]
    assert len({id(entries) for entries in lists}) == len(lists) == 10
    seeded = recommended_keys(simulator.stores)
    # rating a peer in one store leaves every other store's entry as seeded
    tables["a"].update("exchange", "b", 0.7, 1)
    assert tables["a"]._entries["exchange"]["b"] == RecommendedEntry("b", 0.7, 1)
    for owner in "cde":
        assert tables[owner]._entries["exchange"]["b"] is shared["exchange", "b"]
    # every provider a request names was seeded: a run adds no key
    result = simulator.run()
    assert {record.path for record in result.trace} == {"direct", "recommended", "ignorance"}
    assert recommended_keys(result.stores) == seeded
    assert any(entry.td is not None for _, entry in tables["e"].entries())


def test_an_entry_equal_to_a_shared_one_renders_its_own_text():
    simulator = _Simulator(five_entity_config())
    stores = simulator.stores
    seeded = {owner: store.to_json() for owner, store in stores.items()}  # fills the texts
    stores["a"].recommended.update("exchange", "b", None, 0)
    shared = stores["c"].recommended._entries["exchange"]["b"]
    entry = stores["a"].recommended._entries["exchange"]["b"]
    assert entry == shared and entry is not shared
    naive = EntityStore.new("a")
    for service in simulator.config.services:
        for peer in simulator.config.candidates("a", service):
            naive.recommended.update(service.id, peer, None, 0.0)
    naive.recommended.update("exchange", "b", None, 0)
    text = stores["a"].to_json()
    assert text == naive.to_json() != seeded["a"]
    assert '"peer": "b",\n      "td": null,\n      "updated_at": 0\n' in text
    assert {owner: store.to_json() for owner, store in stores.items() if owner != "a"} == {
        owner: text for owner, text in seeded.items() if owner != "a"
    }


@pytest.mark.parametrize("choice", ["ranked", "random"])
def test_every_store_of_a_run_reads_back_to_its_text(choice):
    config = five_entity_config(
        schedule=None,
        random_schedule=RandomSchedule(ticks=60, requests_per_tick=2, provider_choice=choice),
    )
    stores = run(config).stores
    for _ in range(2):  # the second pass takes the shared texts the first rendered
        for store in stores.values():
            text = store.to_json()
            assert EntityStore.from_json(text).to_json() == text


def test_a_run_formats_each_shared_unrated_entry_once(monkeypatch):
    config = five_entity_config(
        schedule=None,
        random_schedule=RandomSchedule(ticks=60, requests_per_tick=2, provider_choice="random"),
    )
    simulator = _Simulator(config)
    shared = [
        entry for store in simulator.stores.values() for _, entry in store.recommended.entries()
    ]
    formatted = []

    def counted(service, entry):
        formatted.append(entry)
        return _recommended_record(service, entry)

    monkeypatch.setattr("cloudtrust.tables._recommended_record", counted)
    stores = simulator.run().stores
    for _ in range(3):
        for store in stores.values():
            store.to_json()
    held = [entry for store in stores.values() for _, entry in store.recommended.entries()]
    for entry in shared:
        # once if a list still holds it, else never
        times = sum(call is entry for call in formatted)
        assert times == any(other is entry for other in held)
    assert any(entry.td is not None for entry in held)


@st.composite
def ranked_configs(draw):
    """Configs that leave providers to ranked choice: a ranked random
    schedule, or an explicit one that also names some providers, so
    that chains resolve; services at level I or II."""
    ids = [f"e{i}" for i in range(draw(st.integers(2, 6)))]
    services = []
    for index in range(draw(st.integers(1, 3))):
        providers = None
        if draw(st.booleans()):
            providers = tuple(draw(st.permutations(ids))[: draw(st.integers(2, len(ids)))])
        level = draw(st.sampled_from([TrustLevel.NO_OPINION, TrustLevel.LOW_DISTRUST]))
        services.append(ServiceSpec(f"s{index}", level, providers))
    config = ScenarioConfig(
        seed=draw(st.integers(0, 2**32)),
        entities=[
            EntitySpec(i, Grade.MEDIUM, SlaProfile.uniform(draw(st.sampled_from([0.3, 0.6, 0.9]))))
            for i in ids
        ],
        services=services,
        history_cap=draw(st.sampled_from([None, 1, 3])),
    )
    if draw(st.booleans()):
        config.random_schedule = RandomSchedule(
            ticks=draw(st.integers(1, 20)), requests_per_tick=draw(st.integers(1, 3))
        )
        return config
    config.schedule = []
    for tick in range(draw(st.integers(1, 40))):
        service = draw(st.sampled_from(services))
        requester = draw(st.sampled_from(ids))
        # a service has two providers or more, so a candidate at least
        provider = draw(st.sampled_from([None, *config.candidates(requester, service)]))
        config.schedule.append(Request(tick, requester, service.id, provider))
    return config


@given(config=ranked_configs())
@settings(max_examples=120, deadline=None)
def test_a_recommended_degree_is_recorded_only_beside_direct_trust(config):
    config.validate()
    result = run(config)
    levels = {service.id: service.required_level for service in config.services}
    for store in result.stores.values():
        # (a) the grant that follows a resolved chain gives its key direct trust
        for service, entry in store.recommended.entries():
            if entry.td is not None:
                assert store.direct.entry(entry.peer, service) is not None
        # (b) only a level-I service ever records an interaction
        for _, service in store.direct.keys():
            assert levels[service] is TrustLevel.NO_OPINION


def select_by_three_rungs(self, view, requester, service):
    """Ranked choice as it was: direct trust, else the recommended
    degree in the requester's list, else 0; (the choice, its direct trust)."""
    listed = self.stores[requester].recommended._entries.get(service.id, {})

    def estimate(candidate):
        td = view.direct(requester, candidate, service.id)
        if td is not None:
            return td
        entry = listed.get(candidate)
        if entry is not None and entry.td is not None:
            return entry.td
        return 0.0

    best = min(self.candidates[requester, service.id], key=lambda c: (-estimate(c), c))
    return best, view.direct(requester, best, service.id)


@given(config=ranked_configs())
@settings(max_examples=120, deadline=None)
def test_ranked_choice_is_unchanged_by_the_recommended_rung(config):
    config.validate()
    result = run(config)
    with mock.patch.object(_Simulator, "select_provider", select_by_three_rungs):
        reference = run(config)
    assert result.trace_csv() == reference.trace_csv()
    assert result.stores.keys() == reference.stores.keys()
    for owner, store in result.stores.items():
        assert store.to_json() == reference.stores[owner].to_json()


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


def test_a_fresh_import_leaves_no_class_alive_once_dropped():
    # The benchmark imports the package afresh for every call.  A
    # module-level `typing` subscription that names a package class, such
    # as `Callable[..., TrustGraph]`, is cached by `typing` and would keep
    # every import's classes, and all they reach, alive.
    def package_modules():
        return [m for m in sys.modules if m == "cloudtrust" or m.startswith("cloudtrust.")]

    saved = {name: sys.modules.pop(name) for name in package_modules()}
    try:
        importlib.import_module("cloudtrust.cli")
        refs = {
            "TrustGraph": weakref.ref(sys.modules["cloudtrust.graph"].TrustGraph),
            "EdgeStats": weakref.ref(sys.modules["cloudtrust.graph"].EdgeStats),
            "EntityStore": weakref.ref(sys.modules["cloudtrust.tables"].EntityStore),
        }
        for name in package_modules():
            del sys.modules[name]
        gc.collect()
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_three_fresh_imports_free_every_class_of_the_first():
    # the benchmark's pattern: each `cloudtrust run` call imports the
    # package afresh, so nothing may keep an earlier import's classes
    script = textwrap.dedent(
        """
        import gc, importlib, json, sys, weakref

        def fresh():
            for name in [m for m in sys.modules if m.split(".")[0] == "cloudtrust"]:
                del sys.modules[name]
            importlib.import_module("cloudtrust.cli")

        fresh()
        first = [
            weakref.ref(value)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "cloudtrust"
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        names = sorted(ref().__name__ for ref in first)
        fresh()
        fresh()
        gc.collect()
        alive = sorted(ref().__name__ for ref in first if ref() is not None)
        print(json.dumps({"classes": names, "alive": alive}))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    found = json.loads(done.stdout)
    assert {"TrustGraph", "EdgeStats", "EntityStore", "Request", "RecommendedEntry"} <= set(
        found["classes"]
    )
    assert found["alive"] == []


def test_snapshot_graph_matches_store_contents():
    config = five_entity_config()
    result = run(config)
    rf = {
        e.id: ReputationFactor(e.grade, config.grade_bonus[e.grade])
        for e in config.entities
    }
    graph = snapshot_graph(_LiveGraph(result.stores, rf, config.decay, t_now=100))
    store_a = result.stores["a"]
    edges = {(dst, service): stats for src, dst, service, stats in graph.edges() if src == "a"}
    assert set(edges) == set(store_a.direct.keys())
    for trustee, service in store_a.direct.keys():
        stats = edges[trustee, service]
        entry = store_a.direct.entry(trustee, service)
        assert (stats.n_positive, stats.n_total) == (entry.n_positive, entry.n_total)
        assert stats.weight == edge_weight(entry.n_positive, entry.n_total, entry.mean_score)
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
                    dst: stats.weight
                    for src, dst, edge_service, stats in snapshot.edges()
                    if src == owner and edge_service == service
                }
                assert view.out_edges(owner, service) == held
                for dst in stores:
                    if dst != owner:
                        assert view.direct(owner, dst, service) == snapshot.direct(
                            owner, dst, service
                        )


def count_direct_trust(monkeypatch) -> list:
    """Record the (columns, t_now) of every direct-trust computation.  A
    history's columns live until the history next changes, which is
    after the last read at that time, so within one `t_now` their id
    stands for the entry's (owner, trustee, service)."""
    calls = []
    tables = importlib.import_module("cloudtrust.tables")
    decayed_trust = tables._decayed_trust

    def counting_decayed_trust(columns, t_now, params, rf=None):
        calls.append((id(columns), t_now))
        return decayed_trust(columns, t_now, params, rf)

    monkeypatch.setattr(tables, "_decayed_trust", counting_decayed_trust)
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


def mixed_weight_stores():
    """Stores of a random run in which every record about `b` and `d`
    is negative, so the edges into them weigh 0."""
    config = ScenarioConfig(
        seed=5,
        entities=[
            EntitySpec(name, Grade.MEDIUM, SlaProfile.uniform(quality, concentration=6.0))
            for name, quality in [("a", 0.9), ("b", 0.0), ("c", 0.75), ("d", 0.0), ("e", 0.6)]
        ],
        services=[ServiceSpec("x", TrustLevel.NO_OPINION)],
        random_schedule=RandomSchedule(ticks=30, requests_per_tick=2, provider_choice="random"),
        decay=DecayParams(2, 5.0),
    )
    simulator = _Simulator(config)
    return simulator.run().stores, simulator.rf, config.decay


def test_a_recommendation_decays_only_the_edges_of_usable_chains(monkeypatch):
    stores, rf, decay = mixed_weight_stores()
    snapshot = snapshot_graph(_LiveGraph(stores, rf, decay, 40))
    calls = count_direct_trust(monkeypatch)
    skipped = 0
    for source, target, max_len in itertools.product(stores, stores, (2, 3, 4)):
        if source != target:
            chains = discover_chains(snapshot, source, target, "x", max_len)
            touched = {(e.src, e.dst) for chain in chains for e in chain.edges}
            usable = {
                (e.src, e.dst) for chain in chains if chain.total_weight > 0.0 for e in chain.edges
            }
            del calls[:]
            view = _LiveGraph(stores, rf, decay, 40)
            outcome = evaluate_recommendation(view, source, target, "x", max_len)
            assert (outcome is None) == (not usable)
            # each edge at most once, and only the edges of usable chains
            assert len(set(calls)) == len(calls)
            assert {key for key, _ in calls} == {
                id(stores[a].direct.entry(b, "x").columns) for a, b in usable
            }
            skipped += len(touched - usable)
    assert skipped > 0


def test_chains_of_zero_weight_decay_nothing(monkeypatch):
    stores = {name: EntityStore.new(name) for name in "abc"}
    for t, (src, dst) in enumerate([("a", "b"), ("b", "c"), ("a", "b")]):
        stores[src].direct.record_interaction(dst, "x", InteractionRecord(t, 0.2, False))
    rf = {name: ReputationFactor(Grade.MEDIUM, 0.05) for name in stores}
    calls = count_direct_trust(monkeypatch)
    view = _LiveGraph(stores, rf, DecayParams(), 5)
    assert evaluate_recommendation(view, "a", "c", "x") is None
    assert calls == []


def count_edge_weight(monkeypatch) -> list:
    """Record the arguments of every `edge_weight` call, from the tables'
    weight maps and from the checked `EdgeStats` constructor alike."""
    calls = []
    for name in ("cloudtrust.tables", "cloudtrust.graph"):
        module = importlib.import_module(name)

        def counting_edge_weight(*args, edge_weight=module.edge_weight):
            calls.append(args)
            return edge_weight(*args)

        monkeypatch.setattr(module, "edge_weight", counting_edge_weight)
    return calls


def test_snapshots_weigh_only_the_keys_recorded_since_the_last_read(monkeypatch):
    calls = count_edge_weight(monkeypatch)
    config = snapshot_config()
    result = run(config)
    # with a snapshot per request, a run still weighs a key at most once per record
    assert 0 < len(calls) <= sum(record.granted for record in result.trace)
    # a store read back was never read, so its first snapshot weighs every key once
    stores = {o: EntityStore.from_json(store.to_json()) for o, store in result.stores.items()}
    rf = {e.id: ReputationFactor(e.grade, config.grade_bonus[e.grade]) for e in config.entities}
    del calls[:]
    first = snapshot_graph(_LiveGraph(stores, rf, config.decay, 9))
    assert len(calls) == sum(1 for _ in first.edges()) > 1
    del calls[:]
    assert snapshot_graph(_LiveGraph(stores, rf, config.decay, 9)).to_json() == first.to_json()
    assert calls == []
    trustee, service = stores["a"].direct.keys()[0]
    stores["a"].direct.record_interaction(trustee, service, InteractionRecord(9, 0.9, True))
    snapshot_graph(_LiveGraph(stores, rf, config.decay, 9))
    assert len(calls) == 1


@pytest.mark.parametrize("cap", [None, 2])
def test_a_snapshot_document_reads_back_as_the_same_graph(cap):
    # histories grow between snapshots, and with a cap they also drop
    # their oldest records, so the kept fields of an edge change often
    config = five_entity_config(
        schedule=None,
        random_schedule=RandomSchedule(ticks=30, requests_per_tick=2, provider_choice="random"),
        history_cap=cap,
        graph_snapshots=True,
    )
    snapshots = run(config).graph_snapshots
    assert sum(1 for graph in snapshots.values() for _ in graph.edges()) > 100
    for graph in snapshots.values():
        text = graph.to_json()
        restored = TrustGraph.from_json(text)
        # the kept fields and the fields formatted from the edge agree
        assert restored.to_json() == text
        assert restored.nodes == graph.nodes
        assert list(restored.edges()) == list(graph.edges())
        for src, dst, service, stats in graph.edges():
            assert restored.out_edges(src, service) == graph.out_edges(src, service)


def count_edge_renders(monkeypatch) -> list:
    """Record the (src, dst, service) of every edge document rendered up to
    its `dt`, whether a snapshot keeps it or `to_json` formats it."""
    calls = []
    for name in ("cloudtrust.graph", "cloudtrust.simulation"):
        module = importlib.import_module(name)

        def counting_edge_fields(*args, edge_fields=module._edge_fields):
            calls.append(args[:3])
            return edge_fields(*args)

        monkeypatch.setattr(module, "_edge_fields", counting_edge_fields)
    return calls


def test_snapshots_render_each_entry_once_per_change(monkeypatch):
    calls = count_edge_renders(monkeypatch)
    config = snapshot_config()
    result = run(config)
    snapshots = result.graph_snapshots.values()
    texts = [graph.to_json() for graph in snapshots]
    # an entry is rendered again only after a record changed it
    grants = sum(record.granted for record in result.trace)
    assert 0 < len(calls) <= grants < sum(1 for graph in snapshots for _ in graph.edges())
    assert len(set(texts)) > 1
    # a run without snapshots renders nothing
    del calls[:]
    config.graph_snapshots = False
    run(config)
    assert calls == []
    # a store read back was never rendered, so its first snapshot renders every key once
    stores = {o: EntityStore.from_json(store.to_json()) for o, store in result.stores.items()}
    rf = {e.id: ReputationFactor(e.grade, config.grade_bonus[e.grade]) for e in config.entities}
    first = snapshot_graph(_LiveGraph(stores, rf, config.decay, 9))
    assert sorted(calls) == [(src, dst, service) for src, dst, service, _ in first.edges()]
    del calls[:]
    assert snapshot_graph(_LiveGraph(stores, rf, config.decay, 9)).to_json() == first.to_json()
    assert calls == []
    trustee, service = stores["a"].direct.keys()[0]
    stores["a"].direct.record_interaction(trustee, service, InteractionRecord(9, 0.9, True))
    changed = snapshot_graph(_LiveGraph(stores, rf, config.decay, 9)).to_json()
    assert calls == [("a", trustee, service)]
    assert TrustGraph.from_json(changed).to_json() == changed != first.to_json()


@pytest.mark.parametrize("choice", ["ranked", "random"])
def test_a_run_builds_each_candidate_list_once(monkeypatch, choice):
    # provider choice reads the run's table, so a list is built once per
    # (requester, service), however many requests ask for it
    built = []
    candidates = ScenarioConfig.candidates

    def counting_candidates(self, requester, service):
        built.append((requester, service.id))
        return candidates(self, requester, service)

    monkeypatch.setattr(ScenarioConfig, "candidates", counting_candidates)
    config = five_entity_config(
        schedule=None,
        random_schedule=RandomSchedule(ticks=200, requests_per_tick=2, provider_choice=choice),
    )
    assert len(run(config).trace) == 400
    assert sorted(built) == sorted(
        (entity, service) for entity in config.entity_ids() for service in config.service_ids()
    )


def test_trace_csv_shape():
    result = run(five_entity_config())
    lines = result.trace_csv().splitlines()
    assert lines[0] == "tick,requester,provider,service,path,td,level,decision,score"
    denied = [l for l in lines[1:] if ",denied," in l]
    assert all(l.endswith(",denied,") for l in denied)  # no score on denial
    granted = [l for l in lines[1:] if ",granted," in l]
    assert all(len(l.rsplit(",", 1)[1]) == 6 for l in granted)  # 0.XXXX


# ---------------------------------------------------------------------------
# the plain records: values that check nothing and never change

GRANTED = TraceRecord(
    3, "a", "b", "files", "direct", 0.61234, TrustLevel.MEDIUM_TRUST, "granted", 0.87654
)
DENIED = TraceRecord(4, "b", "a", "files", "ignorance", 0.0, TrustLevel.NO_OPINION, "denied", None)


PLAIN_RECORDS = [
    (EntitySpec("a", Grade.HIGH, SlaProfile.uniform(0.9)), "id grade profile"),
    (ServiceSpec("files", TrustLevel.LOW_DISTRUST, ("a", "b")), "id required_level providers"),
    (Request(2, "a", "files", "b"), "tick requester service provider"),
    (RandomSchedule(10, 2, "random"), "ticks requests_per_tick provider_choice"),
    (GRANTED, "tick requester provider service path td level decision score"),
    (RecommendedEntry("b", 0.5, 2.0), "peer td updated_at"),
]


@pytest.mark.parametrize(
    "record, names", PLAIN_RECORDS, ids=[type(record).__name__ for record, _ in PLAIN_RECORDS]
)
def test_a_plain_record_is_an_immutable_value(record, names):
    kind, names = type(record), names.split()
    values = [getattr(record, name) for name in names]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert [getattr(record, name) for name in names] == values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{kind.__name__}({fields})"
    assert record == kind(**dict(zip(names, values)))
    assert record != kind(*values[:-1], "other")
    assert hash(record) == hash(tuple(values))


def test_plain_record_defaults_and_reprs():
    assert ServiceSpec("files", TrustLevel.NO_OPINION).providers is None
    request = Request(tick=0, requester="a", service="files")
    assert request.provider is None
    assert repr(request) == "Request(tick=0, requester='a', service='files', provider=None)"
    assert RandomSchedule(5) == RandomSchedule(ticks=5, requests_per_tick=1, provider_choice="ranked")
    assert repr(RandomSchedule(5)) == (
        "RandomSchedule(ticks=5, requests_per_tick=1, provider_choice='ranked')"
    )
    assert repr(RecommendedEntry("b", None, 0.0)) == "RecommendedEntry(peer='b', td=None, updated_at=0.0)"


def test_trace_record_decision_and_csv_row():
    assert GRANTED.granted and not DENIED.granted
    assert GRANTED.csv_row() == ["3", "a", "b", "files", "direct", "0.6123", "III", "granted", "0.8765"]
    assert DENIED.csv_row() == ["4", "b", "a", "files", "ignorance", "0.0000", "I", "denied", ""]

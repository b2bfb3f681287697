"""The package's twelve validating records as values: their constructors'
signatures, `repr`, `==`, `hash`, immutability, and copies and pickles."""
from __future__ import annotations

import copy
import inspect
import pickle
import re

import pytest

from cloudtrust.calculus import (
    DEFAULT_GRADE_BONUS,
    DEFAULT_SL_WEIGHTS,
    ChainEdge,
    DecayParams,
    Grade,
    InteractionRecord,
    ReputationFactor,
    SlaMetrics,
    TrustChain,
    TrustLevel,
)
from cloudtrust.graph import EdgeStats
from cloudtrust.simulation import (
    ConfigError,
    EntitySpec,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SimulationResult,
    SlaProfile,
    TraceRecord,
)
from cloudtrust.tables import DirectEntry, EntityStore

POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
EMPTY = inspect.Parameter.empty
FACTORY = object()  # a default that each record builds afresh


def config() -> ScenarioConfig:
    return ScenarioConfig(
        3,
        [
            EntitySpec("a", Grade.HIGH, SlaProfile.uniform(0.9)),
            EntitySpec("b", Grade.LOW, SlaProfile.uniform(1.0)),
        ],
        [ServiceSpec("files", TrustLevel.LOW_DISTRUST)],
        [Request(0, "a", "files", "b")],
    )


def store() -> EntityStore:
    store = EntityStore.new("a", 4)
    store.direct.record_interaction("b", "files", InteractionRecord(2, 0.75, True))
    store.recommended.update("files", "b", 0.5, 2)
    return store


TRACE = [TraceRecord(0, "a", "b", "files", "direct", 0.5, TrustLevel.MEDIUM_TRUST, "granted", 0.75)]
CHAIN = [ChainEdge("a", "b", 0.5, 0.75), ChainEdge("b", "c", 0.25, 0.5)]

# (a builder of one record, its fields as its constructor takes them with
# their defaults, whether it is immutable, its repr)
RECORDS = {
    "ReputationFactor": (
        lambda: ReputationFactor(Grade.MEDIUM, 0.05),
        {"grade": EMPTY, "bonus": EMPTY},
        True,
        "ReputationFactor(grade=<Grade.MEDIUM: 'Medium'>, bonus=0.05)",
    ),
    "DecayParams": (
        lambda: DecayParams(2, 3.5),
        {"k": 1, "tau": 1.0},
        True,
        "DecayParams(k=2, tau=3.5)",
    ),
    "InteractionRecord": (
        lambda: InteractionRecord(3, 0.75, True),
        {"time": EMPTY, "score": EMPTY, "positive": EMPTY},
        True,
        "InteractionRecord(time=3, score=0.75, positive=True)",
    ),
    "SlaMetrics": (
        lambda: SlaMetrics(0.9, 0.8, 0.7, 0.6, 0.5),
        dict.fromkeys(
            ["availability", "processing_capacity", "recovery_time", "connectivity",
             "peak_load_performance"],
            EMPTY,
        ),
        True,
        "SlaMetrics(availability=0.9, processing_capacity=0.8, recovery_time=0.7, "
        "connectivity=0.6, peak_load_performance=0.5)",
    ),
    "ChainEdge": (
        lambda: ChainEdge("a", "b", 0.5, 0.75),
        {"src": EMPTY, "dst": EMPTY, "weight": EMPTY, "direct_trust": EMPTY},
        True,
        "ChainEdge(src='a', dst='b', weight=0.5, direct_trust=0.75)",
    ),
    "TrustChain": (
        lambda: TrustChain(list(CHAIN)),
        {"edges": EMPTY},
        True,
        "TrustChain(edges=(ChainEdge(src='a', dst='b', weight=0.5, direct_trust=0.75), "
        "ChainEdge(src='b', dst='c', weight=0.25, direct_trust=0.5)))",
    ),
    "EdgeStats": (
        lambda: EdgeStats(3, 4, 0.5, 0.75),
        {"n_positive": EMPTY, "n_total": EMPTY, "sl": EMPTY, "direct_trust": EMPTY},
        True,
        "EdgeStats(n_positive=3, n_total=4, sl=0.5, direct_trust=0.75)",
    ),
    "SlaProfile": (
        lambda: SlaProfile(0.9, 0.8, 0.7, 0.6, 0.5, 30.0),
        {
            **dict.fromkeys(
                ["availability", "processing_capacity", "recovery_time", "connectivity",
                 "peak_load_performance"],
                EMPTY,
            ),
            "concentration": 25.0,
        },
        True,
        "SlaProfile(availability=0.9, processing_capacity=0.8, recovery_time=0.7, "
        "connectivity=0.6, peak_load_performance=0.5, concentration=30.0)",
    ),
    "ScenarioConfig": (
        config,
        {
            "seed": EMPTY,
            "entities": EMPTY,
            "services": EMPTY,
            "schedule": None,
            "random_schedule": None,
            "decay": FACTORY,
            "grade_bonus": FACTORY,
            "sl_weights": DEFAULT_SL_WEIGHTS,
            "max_chain_length": 4,
            "positive_threshold": 0.5,
            "history_cap": None,
            "graph_snapshots": False,
        },
        False,
        "ScenarioConfig(seed=3, entities=[EntitySpec(id='a', grade=<Grade.HIGH: 'High'>, "
        "profile=SlaProfile(availability=0.9, processing_capacity=0.9, recovery_time=0.9, "
        "connectivity=0.9, peak_load_performance=0.9, concentration=25.0)), "
        "EntitySpec(id='b', grade=<Grade.LOW: 'Low'>, profile=SlaProfile(availability=1.0, "
        "processing_capacity=1.0, recovery_time=1.0, connectivity=1.0, "
        "peak_load_performance=1.0, concentration=25.0))], "
        "services=[ServiceSpec(id='files', required_level=<TrustLevel.LOW_DISTRUST: 2>, "
        "providers=None)], schedule=[Request(tick=0, requester='a', service='files', "
        "provider='b')], random_schedule=None, decay=DecayParams(k=1, tau=1.0), "
        "grade_bonus={<Grade.HIGH: 'High'>: 0.1, <Grade.MEDIUM: 'Medium'>: 0.05, "
        "<Grade.LOW: 'Low'>: 0.0}, sl_weights=(0.2, 0.2, 0.2, 0.2, 0.2), max_chain_length=4, "
        "positive_threshold=0.5, history_cap=None, graph_snapshots=False)",
    ),
    "SimulationResult": (
        lambda: SimulationResult(config(), list(TRACE), {"a": store()}),
        {"config": EMPTY, "trace": EMPTY, "stores": EMPTY, "graph_snapshots": FACTORY},
        False,
        None,  # it holds a config and a store, whose reprs are pinned
    ),
    "DirectEntry": (
        lambda: DirectEntry([InteractionRecord(1, 0.5, False)]),
        {"history": FACTORY},
        False,
        "DirectEntry(history=[InteractionRecord(time=1, score=0.5, positive=False)])",
    ),
    "EntityStore": (
        store,
        {"owner": EMPTY, "direct": EMPTY, "recommended": EMPTY},
        False,
        "EntityStore(owner='a', direct=<cloudtrust.tables.DirectTrustTable object at 0x>, "
        "recommended=<cloudtrust.tables.RecommendedListTable object at 0x>)",
    ),
}

# what a record built without the argument holds, for each default built afresh
FACTORIES = {
    ("ScenarioConfig", "decay"): DecayParams(),
    ("ScenarioConfig", "grade_bonus"): dict(DEFAULT_GRADE_BONUS),
    ("SimulationResult", "graph_snapshots"): {},
    ("DirectEntry", "history"): [],
}
FROZEN = [name for name, (_, _, frozen, _) in RECORDS.items() if frozen]
MUTABLE = [name for name, (_, _, frozen, _) in RECORDS.items() if not frozen]


def values(record, name: str) -> tuple:
    return tuple(getattr(record, field) for field in RECORDS[name][1])


def test_the_records_are_eight_values_and_four_mutable_records():
    assert len(FROZEN) == 8 and len(MUTABLE) == 4


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_constructor(name):
    build, fields, _, _ = RECORDS[name]
    params = inspect.signature(type(build())).parameters
    assert list(params) == list(fields)
    assert {param.kind for param in params.values()} == {POSITIONAL}
    for field, want in fields.items():
        default = params[field].default
        if want is FACTORY:
            assert default is not EMPTY
        else:
            assert default is want or default == want, field


@pytest.mark.parametrize("key", FACTORIES, ids="-".join)
def test_a_default_built_afresh_is_equal_and_not_shared(key):
    name, field = key
    kind = type(RECORDS[name][0]())
    required = [
        getattr(RECORDS[name][0](), param.name)
        for param in inspect.signature(kind).parameters.values()
        if param.default is EMPTY
    ]
    first, second = kind(*required), kind(*required)
    assert getattr(first, field) == FACTORIES[key]
    if not isinstance(FACTORIES[key], DecayParams):  # an immutable value may be shared
        assert getattr(first, field) is not getattr(second, field)


@pytest.mark.parametrize("field", ["decay", "grade_bonus"])
def test_a_config_without_a_built_default_is_refused(field):
    broken = config()
    setattr(broken, field, None)
    with pytest.raises(ConfigError, match=f"{field} must be"):
        broken.validate()


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_shows_and_compares_its_fields(name):
    build, _, _, shown = RECORDS[name]
    record = build()
    if shown is not None:
        assert re.sub(r" at 0x[0-9a-f]+>", " at 0x>", repr(record)) == shown
    assert record == build() and not record != build()


def test_records_of_two_kinds_are_unequal():
    metrics = SlaMetrics(0.9, 0.8, 0.7, 0.6, 0.5)
    profile = SlaProfile(0.9, 0.8, 0.7, 0.6, 0.5)
    assert metrics != profile and profile != metrics
    assert metrics.as_tuple() == profile.as_tuple()


@pytest.mark.parametrize("name", FROZEN)
def test_a_value_is_hashed_by_its_fields_and_cannot_change(name):
    record = RECORDS[name][0]()
    assert hash(record) == hash(values(record, name))
    before = values(record, name)
    for field in RECORDS[name][1]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert values(record, name) == before


@pytest.mark.parametrize("name", MUTABLE)
def test_a_mutable_record_is_unhashable(name):
    with pytest.raises(TypeError):
        hash(RECORDS[name][0]())


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_record_is_equal(name, duplicate):
    record = RECORDS[name][0]()
    twin = duplicate(record)
    assert type(twin) is type(record) and twin == record


def test_an_edge_weight_is_neither_shown_nor_compared():
    edge = EdgeStats(3, 4, 0.5, 0.75)
    held = EdgeStats._recorded(3, 4, 0.5, 0.75, 0.0)
    assert held == edge and hash(held) == hash(edge) and repr(held) == repr(edge)
    assert "weight" not in repr(edge) and edge.weight == 0.375


def test_a_direct_entry_caches_nothing_it_shows_or_compares():
    entry = DirectEntry([InteractionRecord(1, 0.5, False)])
    fresh = repr(entry)
    assert entry.evidence() == (0, 1, 0.5) and entry.columns.newest == 1
    assert entry == DirectEntry([InteractionRecord(1, 0.5, False)]) and repr(entry) == fresh

"""Tests for per-entity state: tables, caching, and snapshots."""
from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudtrust.calculus import (
    DecayParams,
    Grade,
    HistoryColumns,
    InteractionRecord,
    ReputationFactor,
    TrustLevel,
    direct_trust,
    edge_weight,
)
from cloudtrust.graph import EdgeStats, TrustGraph
from cloudtrust.simulation import (
    ConfigError,
    EntitySpec,
    Request,
    ScenarioConfig,
    ServiceSpec,
    SlaProfile,
    run,
)
from cloudtrust.tables import (
    DirectEntry,
    DirectTrustTable,
    EntityStore,
    RecommendedListTable,
    SnapshotError,
    TableError,
)

from test_direct_trust_reference import reference_direct_trust

PARAMS = DecayParams(1, 1.0)


def rec(t, score, positive=True):
    return InteractionRecord(t, score, positive)


# ---------------------------------------------------------------------------
# DirectTrustTable


def test_first_insert_creates_history():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(1, 0.7))
    entry = table.entry("b", "files")
    assert entry.n_total == 1
    assert entry.n_positive == 1
    assert entry.last_time == 1


def test_appends_preserve_order():
    table = DirectTrustTable("a")
    for t, score in ((1, 0.5), (2, 0.6), (5, 0.7)):
        table.record_interaction("b", "files", rec(t, score))
    entry = table.entry("b", "files")
    assert [r.time for r in entry.history] == [1, 2, 5]
    assert entry.last_time == 5


def test_out_of_order_timestamp_rejected():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(5, 0.7))
    with pytest.raises(TableError):
        table.record_interaction("b", "files", rec(3, 0.7))
    # equal timestamps are fine (several interactions in one tick)
    table.record_interaction("b", "files", rec(5, 0.9))


def test_self_interaction_rejected():
    table = DirectTrustTable("a")
    with pytest.raises(TableError):
        table.record_interaction("a", "files", rec(1, 0.7))


def test_monotone_guard_is_per_key():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(9, 0.7))
    table.record_interaction("c", "files", rec(2, 0.5))  # other trustee, earlier is fine
    table.record_interaction("b", "mail", rec(1, 0.5))  # other service too


def test_lookup_miss_returns_none():
    table = DirectTrustTable("a")
    assert table.lookup_direct("nobody", "files", 5, PARAMS) is None


def test_lookup_single_record_matches_score():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(5, 0.8))
    assert table.lookup_direct("b", "files", 5, PARAMS) == pytest.approx(0.8)


def test_lookup_matches_direct_trust_with_bonus():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(0, 0.9))
    table.record_interaction("b", "files", rec(4, 0.5))
    rf = ReputationFactor(Grade.MEDIUM, 0.05)
    got = table.lookup_direct("b", "files", 5, PARAMS, rf)
    want = direct_trust([rec(0, 0.9), rec(4, 0.5)], 5, PARAMS, rf)
    assert got == want
    assert round(got, 4) == 0.5572


def test_cache_never_serves_stale_values():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(0, 0.9))
    before = table.lookup_direct("b", "files", 4, PARAMS)
    # a new interaction changes the value at the same clock
    table.record_interaction("b", "files", rec(4, 0.1))
    after = table.lookup_direct("b", "files", 4, PARAMS)
    assert after != before
    assert after == direct_trust([rec(0, 0.9), rec(4, 0.1)], 4, PARAMS)
    # a different clock or different params must also recompute
    later = table.lookup_direct("b", "files", 9, PARAMS)
    assert later == direct_trust([rec(0, 0.9), rec(4, 0.1)], 9, PARAMS)
    other = table.lookup_direct("b", "files", 9, DecayParams(2, 1.0))
    assert other == direct_trust([rec(0, 0.9), rec(4, 0.1)], 9, DecayParams(2, 1.0))


def test_counts_derive_from_positive_flags():
    table = DirectTrustTable("a")
    table.record_interaction("b", "files", rec(1, 0.9, True))
    table.record_interaction("b", "files", rec(2, 0.2, False))
    table.record_interaction("b", "files", rec(3, 0.7, True))
    entry = table.entry("b", "files")
    assert (entry.n_positive, entry.n_total) == (2, 3)


@pytest.mark.parametrize("cap", [0, -3, 2.5, 3.0, True, False, "3"])
def test_history_cap_must_be_an_integer_of_at_least_one(cap):
    message = rf"history_cap must be an integer >= 1, got {re.escape(repr(cap))}$"
    with pytest.raises(ValueError, match=message):
        DirectTrustTable("a", history_cap=cap)
    with pytest.raises(ValueError, match=message):
        EntityStore.new("a", cap)


def test_history_cap_evicts_oldest_first():
    table = DirectTrustTable("a", history_cap=2)
    for t in range(5):
        table.record_interaction("b", "files", rec(t, t / 10))
    entry = table.entry("b", "files")
    assert [r.time for r in entry.history] == [3, 4]


# Each step appends one record a time step after the last; `read` reads
# the evidence before the append, so a cached value is there to go stale.
EVIDENCE_STEPS = st.lists(
    st.fixed_dictionaries(
        {
            "dt": st.sampled_from([0, 1, 2.5]),
            "score": st.floats(0.0, 1.0),
            "positive": st.booleans(),
            "read": st.booleans(),
        }
    ),
    min_size=1,
    max_size=12,
)


@given(cap=st.sampled_from([None, 1, 3]), steps=EVIDENCE_STEPS)
@settings(max_examples=150)
def test_cached_evidence_equals_a_fresh_recomputation(cap, steps):
    table = DirectTrustTable("a", history_cap=cap)
    t = 0.0
    for step in steps:
        entry = table.entry("b", "files")
        if step["read"] and entry is not None:
            entry.evidence()
            table.lookup_direct("b", "files", t, PARAMS)
        t += step["dt"]
        table.record_interaction("b", "files", rec(t, step["score"], step["positive"]))
        entry = table.entry("b", "files")
        history = entry.history
        fresh = (
            sum(1 for r in history if r.positive),
            len(history),
            math.fsum(r.score for r in history) / len(history),
        )
        assert (entry.n_positive, entry.n_total, entry.mean_score) == fresh
        assert entry.evidence() == fresh
        times = [r.time for r in history]
        scores = [r.score for r in history]
        assert entry.columns == HistoryColumns(
            times=times, scores=scores, newest=max(times), low=min(scores), high=max(scores)
        )
        for t_now, params in ((t, PARAMS), (t + 2.5, DecayParams(2, 1.5))):
            got = table.lookup_direct("b", "files", t_now, params)
            want = reference_direct_trust(history, t_now, params)
            assert got == want and repr(got) == repr(want)


# Each step records one interaction for a key, or reads one service's
# weight map; records are a time step apart.
WEIGHT_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"), st.sampled_from("bcd"), st.sampled_from(["files", "print"]),
            st.floats(0.0, 1.0), st.booleans(),
        ),
        st.tuples(st.just("read"), st.sampled_from(["files", "print"])),
    ),
    max_size=30,
)


@given(cap=st.sampled_from([None, 1, 3]), steps=WEIGHT_STEPS)
@settings(max_examples=150)
def test_weight_map_equals_a_fresh_recomputation(cap, steps):
    table = DirectTrustTable("a", history_cap=cap)
    first_recorded = {"files": [], "print": []}
    evidenced = []
    evidence = DirectEntry.evidence

    def counting_evidence(entry):
        evidenced.append(entry)
        return evidence(entry)

    def fresh_weights(service):
        weights = {}
        for trustee in first_recorded[service]:
            history = table.entry(trustee, service).history
            n_positive = sum(1 for r in history if r.positive)
            mean_score = math.fsum(r.score for r in history) / len(history)
            weights[trustee] = edge_weight(n_positive, len(history), mean_score)
        return weights

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DirectEntry, "evidence", counting_evidence)
        for t, step in enumerate(steps + [("read", "files"), ("read", "print")]):
            if step[0] == "record":
                _, trustee, service, score, positive = step
                if table.entry(trustee, service) is None:
                    first_recorded[service].append(trustee)
                table.record_interaction(trustee, service, rec(t, score, positive))
                continue
            service = step[1]
            del evidenced[:]
            weights = table.weights(service)
            # reading one service's map computes no evidence for another
            own = {id(table.entry(trustee, service)) for trustee in first_recorded[service]}
            assert {id(entry) for entry in evidenced} <= own
            assert list(weights.items()) == list(fresh_weights(service).items())


def test_asymmetry_forward_write_never_touches_reverse():
    store_i = EntityStore.new("i")
    store_j = EntityStore.new("j")
    store_i.direct.record_interaction("j", "files", rec(1, 0.9))
    assert store_j.direct.lookup_direct("i", "files", 5, PARAMS) is None
    store_j.direct.record_interaction("i", "files", rec(2, 0.1))
    # the two directions hold independent values
    assert store_i.direct.lookup_direct("j", "files", 5, PARAMS) == pytest.approx(0.9)
    assert store_j.direct.lookup_direct("i", "files", 5, PARAMS) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# RecommendedListTable


def test_recommended_upsert():
    table = RecommendedListTable("a")
    table.update("files", "b", 0.6, 3)
    entry = table._entries["files"]["b"]
    assert entry.td == 0.6
    assert entry.updated_at == 3
    table.update("files", "b", 0.8, 7)
    entry = table._entries["files"]["b"]
    assert entry.td == 0.8
    assert entry.updated_at == 7


def test_recommended_rejects_self_entry():
    table = RecommendedListTable("a")
    with pytest.raises(TableError):
        table.update("files", "a", 0.5, 1)


@pytest.mark.parametrize("t_now", [float("nan"), float("inf"), -1, True, "3"])
def test_recommended_rejects_times_it_cannot_write(t_now):
    table = RecommendedListTable("a")
    with pytest.raises(ValueError):
        table.update("files", "b", 0.5, t_now)
    assert list(table.entries()) == []


def run_registering(service="t", providers=("a", "b")):
    # A run registers the providers of every service, requested or not, in
    # each recommended list from its config, through the unchecked `_seed`.
    run(
        ScenarioConfig(
            seed=0,
            entities=[EntitySpec(e, Grade.HIGH, SlaProfile.uniform(0.9)) for e in "ab"],
            services=[
                ServiceSpec("s", TrustLevel.NO_OPINION),
                ServiceSpec(service, TrustLevel.NO_OPINION, providers),
            ],
            schedule=[Request(0, "a", "s", "b")],
        )
    )


# Every place an entity or service id enters a graph or a table, with
# the error it raises for an id that is not a string.
ID_ENTRY_POINTS = {
    "TrustGraph.add_node": (ValueError, lambda bad: TrustGraph().add_node(bad)),
    "TrustGraph.add_edge-src": (
        ValueError, lambda bad: TrustGraph().add_edge(bad, "q", "s", EdgeStats(1, 1, 1.0, 0.5))
    ),
    "TrustGraph.add_edge-dst": (
        ValueError, lambda bad: TrustGraph().add_edge("p", bad, "s", EdgeStats(1, 1, 1.0, 0.5))
    ),
    "TrustGraph.add_edge-service": (
        ValueError, lambda bad: TrustGraph().add_edge("p", "q", bad, EdgeStats(1, 1, 1.0, 0.5))
    ),
    "DirectTrustTable": (TableError, lambda bad: DirectTrustTable(bad)),
    "EntityStore.new": (TableError, lambda bad: EntityStore.new(bad)),
    "record_interaction-trustee": (
        TableError, lambda bad: DirectTrustTable("a").record_interaction(bad, "s", rec(1, 0.5))
    ),
    "record_interaction-service": (
        TableError, lambda bad: DirectTrustTable("a").record_interaction("b", bad, rec(1, 0.5))
    ),
    "RecommendedListTable": (TableError, lambda bad: RecommendedListTable(bad)),
    "update-service": (TableError, lambda bad: RecommendedListTable("a").update(bad, "b", 0.5, 1)),
    "update-peer": (TableError, lambda bad: RecommendedListTable("a").update("s", bad, 0.5, 1)),
    "register-service": (ConfigError, lambda bad: run_registering(service=bad)),
    "register-peer": (ConfigError, lambda bad: run_registering(providers=("a", "b", bad))),
}


@pytest.mark.parametrize("bad", [1, None, b"x"], ids=["int", "None", "bytes"])
@pytest.mark.parametrize("entry", sorted(ID_ENTRY_POINTS))
def test_ids_that_are_not_strings_are_rejected_where_they_enter(entry, bad):
    # a writer could not write them back: the id is refused on entry,
    # not later by `to_json`
    error, enter = ID_ENTRY_POINTS[entry]
    with pytest.raises(error, match="must be a string"):
        enter(bad)


# ---------------------------------------------------------------------------
# snapshots


def make_store():
    store = EntityStore.new("a")
    store.direct.record_interaction("b", "files", rec(1, 0.7, True))
    store.direct.record_interaction("b", "files", rec(3, 0.4, False))
    store.direct.record_interaction("c", "mail", rec(2, 0.9, True))
    store.recommended.update("files", "c", 0.61, 4)
    store.recommended.update("mail", "b", None, 0.0)
    return store


def test_snapshot_round_trips_empty_store():
    store = EntityStore.new("solo")
    assert EntityStore.from_json(store.to_json()) == store


def test_snapshot_round_trips_populated_store():
    store = make_store()
    restored = EntityStore.from_json(store.to_json())
    assert restored == store
    entry = restored.direct.entry("b", "files")
    assert [(r.time, r.score, r.positive) for r in entry.history] == [
        (1, 0.7, True),
        (3, 0.4, False),
    ]
    assert restored.recommended._entries["files"]["c"].td == 0.61


def test_snapshot_field_names_are_stable():
    import json

    document = json.loads(make_store().to_json())
    assert set(document) == {"owner", "direct", "recommended"}
    assert set(document["direct"][0]) == {"trustee", "service", "history"}
    assert set(document["direct"][0]["history"][0]) == {"t", "score", "positive"}
    assert set(document["recommended"][0]) == {"service", "peer", "td", "updated_at"}


def test_truncated_document_raises_parse_error_with_position():
    text = make_store().to_json()
    with pytest.raises(SnapshotError) as exc_info:
        EntityStore.from_json(text[: len(text) // 2])
    assert "line" in str(exc_info.value) or "char" in str(exc_info.value)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("owner"),
        lambda d: d["direct"].append({"trustee": "x"}),
        lambda d: d["direct"][0]["history"].append({"t": 0, "score": 2.0, "positive": True}),
        lambda d: d["recommended"].append({"service": "files", "peer": "a", "td": 0.5, "updated_at": 1}),
        lambda d: d["direct"][0].update(trustee="a"),  # self-trust
        lambda d: d["recommended"][0].update(td=True),
        lambda d: d["direct"][0]["history"][-1].update(t=10**400),  # no float holds it
        lambda d: d["recommended"][0].update(updated_at=float("nan")),  # written back as NaN
        lambda d: d["recommended"][0].update(updated_at=float("-inf")),
        lambda d: d["recommended"][0].update(updated_at=-1),
    ],
)
def test_invalid_documents_are_rejected(mutate):
    import json

    document = json.loads(make_store().to_json())
    mutate(document)
    with pytest.raises(SnapshotError):
        EntityStore.from_json(json.dumps(document))


# round-trip law over generated stores


entity_ids = st.sampled_from(["a", "b", "c", "d", "e"])
service_ids = st.sampled_from(["files", "mail", "compute"])
unit_floats = st.floats(min_value=0.0, max_value=1.0)
times = st.floats(min_value=0.0, max_value=1000.0)


@st.composite
def stores(draw):
    owner = draw(entity_ids)
    store = EntityStore.new(owner)
    n_keys = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_keys):
        trustee = draw(entity_ids.filter(lambda e: e != owner))
        service = draw(service_ids)
        n_records = draw(st.integers(min_value=1, max_value=5))
        stamps = sorted(draw(st.lists(times, min_size=n_records, max_size=n_records)))
        existing = store.direct.entry(trustee, service)
        if existing is not None:
            stamps = [t + existing.last_time for t in stamps]
        for t in stamps:
            store.direct.record_interaction(
                trustee, service, rec(t, draw(unit_floats), draw(st.booleans()))
            )
    n_rec = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_rec):
        peer = draw(entity_ids.filter(lambda e: e != owner))
        service = draw(service_ids)
        td = draw(st.one_of(st.none(), unit_floats))
        store.recommended.update(service, peer, td, draw(times))
    return store


@given(stores())
@settings(max_examples=60)
def test_snapshot_round_trip_law(store):
    assert EntityStore.from_json(store.to_json()) == store


# the snapshot writer against the json module


def snapshot_document(store):
    """The snapshot document as a dict, for `json.dumps(..., indent=2)`."""
    direct = [
        {
            "trustee": trustee,
            "service": service,
            "history": [
                {"t": r.time, "score": r.score, "positive": r.positive}
                for r in store.direct.entry(trustee, service).history
            ],
        }
        for trustee, service in store.direct.keys()
    ]
    recommended = [
        {"service": service, "peer": e.peer, "td": e.td, "updated_at": e.updated_at}
        for service, e in store.recommended.entries()
    ]
    return {"owner": store.owner, "direct": direct, "recommended": recommended}


# Ids with quotes, backslashes, control characters and characters outside
# ASCII, some beyond the basic plane; every value kind a document can hold.
awkward_ids = st.text(st.sampled_from('ab"\\/\n\x00\x7fé☃\u2028😀') | st.characters(), max_size=5)
awkward_times = st.integers(0, 10**6) | st.floats(0.0, 1e6) | st.sampled_from([0, 0.0, 1e-05, 1.0])
awkward_units = unit_floats | st.sampled_from([0, 1, 0.0, 1.0, 1e-05, 5e-324])


@st.composite
def awkward_stores(draw):
    owner = draw(awkward_ids)
    peers = awkward_ids.filter(lambda e: e != owner)
    store = EntityStore.new(owner)
    for _ in range(draw(st.integers(0, 3))):
        trustee, service = draw(peers), draw(awkward_ids)
        existing = store.direct.entry(trustee, service)
        floor = 0 if existing is None else existing.last_time
        for t in sorted(draw(st.lists(awkward_times, min_size=1, max_size=3))):
            store.direct.record_interaction(
                trustee, service, rec(floor + t, draw(awkward_units), draw(st.booleans()))
            )
    for _ in range(draw(st.integers(0, 3))):
        td = draw(st.none() | awkward_units)
        store.recommended.update(draw(awkward_ids), draw(peers), td, draw(awkward_times))
    return store


@given(awkward_stores())
@settings(max_examples=200)
def test_snapshot_text_is_json_dumps_byte_for_byte(store):
    assert store.to_json() == json.dumps(snapshot_document(store), indent=2) + "\n"

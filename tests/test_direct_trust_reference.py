"""Direct trust against a frozen reference: the per-record formula that
the package used before it kept each history's columns.  The kernel must
give the same float (`==` and the same `repr`) and the same error, on
the public path and through a table's `lookup_direct`."""
from __future__ import annotations

import math

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudtrust import calculus
from cloudtrust.calculus import (
    DecayParams,
    Grade,
    HistoryColumns,
    InteractionRecord,
    ReputationFactor,
    clamp01,
    direct_trust,
)
from cloudtrust.tables import DirectTrustTable


def _reference_decay_exponent(gap, params):
    ratio = gap / params.tau
    try:
        return -(ratio ** params.k)
    except OverflowError:
        return -math.inf if ratio > 1.0 else -float(ratio == 1.0)


def reference_direct_trust(history, t_now, params, rf=None):
    """A copy of the per-record `direct_trust` body, kept as the oracle."""
    records = list(history)
    if not records:
        raise ValueError("direct trust needs at least one interaction")
    for record in records:
        if record.time > t_now:
            raise ValueError(
                f"record at t={record.time!r} is in the future of t_now={t_now!r}"
            )
    exponents = [_reference_decay_exponent(t_now - record.time, params) for record in records]
    peak = max(exponents)
    if peak == -math.inf:
        newest = max(record.time for record in records)
        survivors = [r.score for r in records if r.time == newest]
        mean = math.fsum(survivors) / len(survivors)
    else:
        weights = [math.exp(x - peak) for x in exponents]
        mean = math.fsum(w * r.score for w, r in zip(weights, records)) / math.fsum(weights)
    low = min(r.score for r in records)
    high = max(r.score for r in records)
    mean = min(max(mean, low), high)
    bonus = 0.0 if rf is None else rf.bonus
    return clamp01(mean + bonus)


def outcome(compute):
    """The value's repr, or the error's type and message."""
    try:
        return repr(compute())
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    assert outcome(got) == outcome(want)
    if not isinstance(outcome(want), tuple):
        assert got() == want()


# Small integer and float times, so records share times and gaps are
# often exactly tau; huge ones, so every exponent can overflow.
TIMES = st.integers(0, 20) | st.floats(0.0, 20.0) | st.sampled_from([1e200, 1e300])
SCORES = st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
RECORDS = st.builds(InteractionRecord, TIMES, SCORES, st.booleans())
PARAMS = st.builds(
    DecayParams,
    k=st.integers(1, 6) | st.sampled_from([50, 10**400]),
    tau=st.sampled_from([1.0, 6.0, 0.5]) | st.floats(1e-3, 1e3),
)
BONUS = st.none() | st.builds(
    ReputationFactor, st.sampled_from(list(Grade)), st.sampled_from([0.0, 0.05, 0.1])
)
# t_now relative to the newest record: at it, past it, far past it, or
# before it (a record in the future)
OFFSETS = st.sampled_from([0, 0.5, 1, 6, 1e6, 1e250, -0.25, -1, -5, -20]) | st.floats(0.0, 100.0)


@settings(max_examples=150, deadline=None)
@given(history=st.lists(RECORDS, min_size=1, max_size=8), offset=OFFSETS, params=PARAMS, rf=BONUS)
def test_public_path_is_bit_equal_to_the_reference(history, offset, params, rf):
    # histories come in any order here; only a table keeps them sorted
    t_now = max(r.time for r in history) + offset
    assert_same(
        lambda: direct_trust(history, t_now, params, rf),
        lambda: reference_direct_trust(history, t_now, params, rf),
    )


@settings(max_examples=100, deadline=None)
@given(
    history=st.lists(RECORDS, min_size=1, max_size=8),
    cap=st.sampled_from([None, 1, 3]),
    offset=OFFSETS,
    params=PARAMS,
    rf=BONUS,
)
def test_lookup_direct_is_bit_equal_to_the_reference(history, cap, offset, params, rf):
    table = DirectTrustTable("a", history_cap=cap)
    for record in sorted(history, key=lambda r: r.time):
        table.record_interaction("b", "files", record)
    kept = table.entry("b", "files").history
    t_now = kept[-1].time + offset
    assert_same(
        lambda: table.lookup_direct("b", "files", t_now, params, rf),
        lambda: reference_direct_trust(kept, t_now, params, rf),
    )


def test_total_underflow_falls_to_the_newest_records():
    history = [InteractionRecord(0, 0.2, True), InteractionRecord(3, 0.4, True),
               InteractionRecord(3, 0.9, False), InteractionRecord(1, 1.0, True)]
    params = DecayParams(10**400, 1.0)
    got = direct_trust(history, 5, params)
    assert got == reference_direct_trust(history, 5, params) == math.fsum([0.4, 0.9]) / 2


def test_future_record_message_names_the_first_one_in_history_order():
    # the first record past t_now, which need not be the newest
    history = [InteractionRecord(t, 0.5, True) for t in (2, 7, 3, 9.0)]
    want = outcome(lambda: reference_direct_trust(history, 5, DecayParams()))
    assert want == (ValueError, "record at t=7 is in the future of t_now=5")
    assert outcome(lambda: direct_trust(history, 5, DecayParams())) == want
    table = DirectTrustTable("a")
    for t in (2, 3, 7, 9.0):
        table.record_interaction("b", "files", InteractionRecord(t, 0.5, True))
    assert outcome(lambda: table.lookup_direct("b", "files", 5, DecayParams())) == want
    assert outcome(lambda: direct_trust([], 5, DecayParams())) == (
        ValueError, "direct trust needs at least one interaction"
    )


def test_columns_hold_the_history_in_order():
    history = [InteractionRecord(4, 0.25, True), InteractionRecord(1, -0.0, False),
               InteractionRecord(4.0, 1.0, True)]
    columns = HistoryColumns.of(history)
    assert columns == HistoryColumns([4, 1, 4.0], [0.25, -0.0, 1.0], 4, -0.0, 1.0)
    assert repr(columns.times[0]) == "4" and repr(columns.low) == "-0.0"


def refuse_weights(*args):
    raise AssertionError("a flat history computed a decay weight")


@settings(max_examples=150, deadline=None)
@given(
    times=st.lists(TIMES, min_size=1, max_size=8),
    score=SCORES,
    flips=st.lists(st.booleans(), min_size=8, max_size=8),
    offset=OFFSETS,
    params=PARAMS,
    bonus=st.none() | st.sampled_from([0.0, -0.0, 0.05, 0.1]) | st.floats(0.0, 0.1),
)
# every exponent overflows, so the kernel's `peak` would be -inf
@example([0, 0], 0.25, [False] * 8, 1e250, DecayParams(2, 1.0), None)
# zeros of both signs, with a bonus of -0.0
@example([0, 3], 0.0, [True, False] + [False] * 6, 1, DecayParams(), -0.0)
@example([0, 3], -0.0, [False, True] + [False] * 6, 1, DecayParams(), -0.0)
def test_a_flat_history_is_bit_equal_without_weights(times, score, flips, offset, params, bonus):
    # every score equal; a zero may come with either sign
    scores = [-score if score == 0.0 and flip else score for flip in flips]
    history = [InteractionRecord(t, s, True) for t, s in zip(times, scores)]
    rf = None if bonus is None else ReputationFactor(Grade.HIGH, bonus)
    t_now = max(times) + offset
    with mock.patch.object(calculus, "_decay_exponent", refuse_weights):
        assert_same(
            lambda: direct_trust(history, t_now, params, rf),
            lambda: reference_direct_trust(history, t_now, params, rf),
        )

"""Unit and property tests for the pure trust calculus."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudtrust.calculus import (
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
    decay_factor,
    direct_trust,
    edge_weight,
    resolve_trust_degree,
    satisfaction_level,
    validate_bonus_map,
)
from cloudtrust.simulation import SlaProfile

NO_BONUS = None


def oracle_weighted_mean(pairs):
    """Plain-loop weighted mean, independent of the implementation."""
    num = 0.0
    den = 0.0
    for value, weight in pairs:
        num += value * weight
        den += weight
    return num / den


def oracle_direct(history, t_now, k, tau, bonus):
    pairs = [
        (score, math.exp(-(((t_now - t) / tau) ** k))) for t, score in history
    ]
    return min(1.0, max(0.0, oracle_weighted_mean(pairs) + bonus))


# ---------------------------------------------------------------------------
# decay_factor


def test_decay_zero_gap_is_exactly_one():
    assert decay_factor(5, 5, DecayParams(2, 1.0)) == 1.0


def test_decay_matches_closed_form():
    assert decay_factor(1, 0, DecayParams(1, 1.0)) == pytest.approx(math.exp(-1), rel=1e-15)
    assert decay_factor(2, 0, DecayParams(2, 1.0)) == pytest.approx(math.exp(-4), rel=1e-15)


def test_decay_rejects_backwards_clock():
    with pytest.raises(ValueError):
        decay_factor(1, 2, DecayParams())


def test_decay_tau_rescales_gap():
    # gap 10 at tau 10 behaves like gap 1 at tau 1
    assert decay_factor(10, 0, DecayParams(1, 10.0)) == pytest.approx(math.exp(-1), rel=1e-15)


def test_decay_extreme_gap_underflows_to_zero_not_error():
    assert decay_factor(1e9, 0, DecayParams(3, 1.0)) == 0.0


@pytest.mark.parametrize("k", [10**400, 10**4000], ids=["10**400", "10**4000"])
def test_decay_exponent_too_large_for_a_float_takes_the_limit(k):
    # as k grows, (gap / tau) ** k goes to 0 below tau, stays 1 at tau
    # and grows without bound above it
    params = DecayParams(k, 6.0)
    assert decay_factor(5, 5, params) == 1.0
    assert decay_factor(3, 0, params) == 1.0
    assert decay_factor(6, 0, params) == math.exp(-1)
    assert decay_factor(7, 0, params) == 0.0


def test_direct_trust_with_huge_k_matches_large_k():
    history = [InteractionRecord(0, 0.2, False), InteractionRecord(1, 0.9, True)]
    expected = direct_trust(history, 1, DecayParams(50, 6.0))
    assert expected == pytest.approx(0.55)
    assert direct_trust(history, 1, DecayParams(10**400, 6.0)) == expected


@st.composite
def antitone_cases(draw):
    # keep the larger exponent under ~600 so e**(-x) never underflows
    # and strictness stays resolvable in floats
    k = draw(st.integers(min_value=1, max_value=3))
    tau = draw(st.floats(min_value=1.0, max_value=10.0))
    max_gap = tau * 600.0 ** (1.0 / k) * 0.95
    gap1 = draw(st.floats(min_value=0.0, max_value=max_gap * 0.7))
    delta = draw(st.floats(min_value=0.05, max_value=max_gap * 0.3))
    return gap1, delta, DecayParams(k, tau)


@given(antitone_cases())
def test_decay_is_strictly_antitone_in_gap(case):
    gap1, delta, params = case
    g1 = decay_factor(gap1, 0.0, params)
    g2 = decay_factor(gap1 + delta, 0.0, params)
    assert 0.0 < g2 < g1 <= 1.0


# ---------------------------------------------------------------------------
# direct_trust


def test_direct_single_record_returns_its_score():
    history = [InteractionRecord(5, 0.8, True)]
    assert direct_trust(history, 5, DecayParams(), NO_BONUS) == pytest.approx(0.8)


def test_direct_constant_scores_are_preserved():
    history = [InteractionRecord(0, 0.6, True), InteractionRecord(3, 0.6, True)]
    for t_now in (3, 5, 50):
        assert direct_trust(history, t_now, DecayParams(), NO_BONUS) == pytest.approx(0.6)


def test_direct_two_record_example_with_bonus():
    history = [InteractionRecord(0, 0.9, True), InteractionRecord(4, 0.5, True)]
    rf = ReputationFactor(Grade.MEDIUM, 0.05)
    got = direct_trust(history, 5, DecayParams(1, 1.0), rf)
    expected = oracle_direct([(0, 0.9), (4, 0.5)], 5, 1, 1.0, 0.05)
    assert got == pytest.approx(expected, rel=1e-12)
    assert round(got, 4) == 0.5572


def test_direct_rejects_empty_history():
    with pytest.raises(ValueError):
        direct_trust([], 5, DecayParams(), NO_BONUS)


def test_direct_rejects_future_records():
    with pytest.raises(ValueError):
        direct_trust([InteractionRecord(9, 0.5, True)], 5, DecayParams(), NO_BONUS)


def test_direct_survives_total_underflow():
    # all weights underflow; the newest record carries the limit value
    history = [InteractionRecord(0, 0.2, False), InteractionRecord(10, 0.9, True)]
    got = direct_trust(history, 1e9, DecayParams(3, 1.0), NO_BONUS)
    assert got == pytest.approx(0.9)


@st.composite
def histories(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    tau = draw(st.floats(min_value=1.0, max_value=8.0))
    t_now = draw(st.floats(min_value=10.0, max_value=100.0))
    n = draw(st.integers(min_value=1, max_value=12))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=t_now),
                min_size=n,
                max_size=n,
            )
        )
    )
    times[-1] = max(times[-1], t_now - 3.0)  # keep the peak weight representable
    scores = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
    )
    records = [InteractionRecord(t, s, s >= 0.5) for t, s in zip(times, scores)]
    return records, t_now, DecayParams(k, tau)


@given(histories())
def test_direct_without_bonus_stays_in_score_envelope(case):
    records, t_now, params = case
    got = direct_trust(records, t_now, params, NO_BONUS)
    scores = [r.score for r in records]
    assert min(scores) <= got <= max(scores)


@given(histories())
def test_direct_with_max_bonus_stays_clamped(case):
    records, t_now, params = case
    rf = ReputationFactor(Grade.HIGH, 0.1)
    assert 0.0 <= direct_trust(records, t_now, params, rf) <= 1.0


def test_reputation_bonus_shifts_result_by_gap_pre_clamp():
    history = [InteractionRecord(0, 0.4, False), InteractionRecord(2, 0.6, True)]
    params = DecayParams(1, 1.0)
    high = direct_trust(history, 3, params, ReputationFactor(Grade.HIGH, 0.1))
    low = direct_trust(history, 3, params, ReputationFactor(Grade.LOW, 0.0))
    assert high - low == pytest.approx(0.1, abs=1e-15)


# ---------------------------------------------------------------------------
# edge_weight


@pytest.mark.parametrize(
    "n_p, n, sl, expected",
    [
        (100, 200, 1.0, 0.5),
        (0, 10, 0.9, 0.0),
        (10, 10, 1.0, 1.0),
    ],
)
def test_edge_weight_examples(n_p, n, sl, expected):
    assert edge_weight(n_p, n, sl) == pytest.approx(expected)


def test_edge_weight_rejects_zero_total():
    with pytest.raises(ValueError):
        edge_weight(0, 0, 1.0)


def test_edge_weight_rejects_excess_positives():
    with pytest.raises(ValueError):
        edge_weight(3, 2, 1.0)


def test_edge_weight_rejects_a_bool_sl():
    # a stored satisfaction level is a number: documents would write `true`
    with pytest.raises(ValueError):
        edge_weight(1, 1, True)


@given(sl=st.floats(min_value=0.0, max_value=1.0))
def test_edge_weight_sees_only_the_ratio(sl):
    # 1-of-2 and 100-of-200 are indistinguishable by construction; the
    # formula separates confidence-equivalent ratios only through sl.
    assert edge_weight(1, 2, sl) == edge_weight(100, 200, sl)


@given(
    n=st.integers(min_value=1, max_value=500),
    sl=st.floats(min_value=0.0, max_value=1.0),
)
def test_edge_weight_monotone_in_positives(n, sl):
    values = [edge_weight(n_p, n, sl) for n_p in range(n + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


# ---------------------------------------------------------------------------
# satisfaction_level


def test_satisfaction_bounds():
    assert satisfaction_level(SlaMetrics(1, 1, 1, 1, 1)) == pytest.approx(1.0)
    assert satisfaction_level(SlaMetrics(0, 0, 0, 0, 0)) == pytest.approx(0.0)


def test_satisfaction_equal_weights_example():
    metrics = SlaMetrics(1.0, 0.5, 0.5, 1.0, 0.0)
    assert satisfaction_level(metrics) == pytest.approx(0.6)


def test_satisfaction_rejects_bad_weights():
    metrics = SlaMetrics(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        satisfaction_level(metrics, (0.5, 0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        satisfaction_level(metrics, (-0.2, 0.4, 0.2, 0.4, 0.2))
    with pytest.raises(ValueError):
        satisfaction_level(metrics, (0.5, 0.5))


# ---------------------------------------------------------------------------
# chain_trust / aggregate_recommendations


def edge(src, dst, w, dt):
    return ChainEdge(src=src, dst=dst, weight=w, direct_trust=dt)


def test_chain_single_edge_weight_cancels():
    chain = TrustChain((edge("p", "q", 0.8, 0.6),))
    assert chain_trust(chain) == pytest.approx(0.6)


def test_chain_two_edge_example():
    chain = TrustChain((edge("p", "q", 0.5, 0.8), edge("q", "r", 1.0, 0.6)))
    assert chain_trust(chain) == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_chain_constant_trust_is_preserved():
    chain = TrustChain((edge("p", "q", 0.3, 0.7), edge("q", "r", 0.9, 0.7)))
    assert chain_trust(chain) == pytest.approx(0.7)


def test_chain_all_zero_weights_rejected():
    chain = TrustChain((edge("p", "q", 0.0, 0.7), edge("q", "r", 0.0, 0.4)))
    with pytest.raises(ValueError):
        chain_trust(chain)


def test_chain_validates_structure():
    with pytest.raises(ValueError):
        TrustChain(())
    with pytest.raises(ValueError):
        TrustChain((edge("p", "q", 0.5, 0.5), edge("x", "r", 0.5, 0.5)))
    with pytest.raises(ValueError):  # revisits p
        TrustChain((edge("p", "q", 0.5, 0.5), edge("q", "p", 0.5, 0.5)))


@st.composite
def chains(draw):
    length = draw(st.integers(min_value=1, max_value=6))
    nodes = [f"n{i}" for i in range(length + 1)]
    weights = draw(
        st.lists(
            st.floats(min_value=0.001, max_value=1.0), min_size=length, max_size=length
        )
    )
    trusts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=length, max_size=length
        )
    )
    return TrustChain(
        tuple(
            edge(nodes[i], nodes[i + 1], weights[i], trusts[i]) for i in range(length)
        )
    )


@given(chains())
def test_chain_trust_stays_in_edge_envelope(chain):
    got = chain_trust(chain)
    trusts = [e.direct_trust for e in chain.edges]
    assert min(trusts) <= got <= max(trusts)


@given(chains(), st.randoms(use_true_random=False))
def test_chain_trust_is_edge_order_invariant(chain, rnd):
    # the value is a weighted mean, so shuffling the (weight, trust)
    # pairs must not move it by more than accumulated rounding
    pairs = [(e.weight, e.direct_trust) for e in chain.edges]
    rnd.shuffle(pairs)
    nodes = [f"m{i}" for i in range(len(pairs) + 1)]
    shuffled = TrustChain(
        tuple(
            edge(nodes[i], nodes[i + 1], w, dt) for i, (w, dt) in enumerate(pairs)
        )
    )
    assert chain_trust(shuffled) == pytest.approx(chain_trust(chain), abs=1e-12)


def test_aggregate_single_chain_passthrough():
    assert aggregate_recommendations([(0.7, 2.5)]) == pytest.approx(0.7)


def test_aggregate_equal_weights_mean():
    assert aggregate_recommendations([(0.8, 1.0), (0.4, 1.0)]) == pytest.approx(0.6)


def test_aggregate_agreement_is_preserved():
    assert aggregate_recommendations([(0.45, 0.2), (0.45, 1.7)]) == pytest.approx(0.45)


def test_aggregate_rejects_empty_and_zero_weight():
    with pytest.raises(ValueError):
        aggregate_recommendations([])
    with pytest.raises(ValueError):
        aggregate_recommendations([(0.5, 0.0), (0.7, 0.0)])


# ---------------------------------------------------------------------------
# resolve_trust_degree


@pytest.mark.parametrize(
    "n_d, n_r, direct, recommended, expected",
    [
        (0, 0, None, None, 0.0),
        (3, 0, 0.72, None, 0.72),
        (0, 2, None, 0.41, 0.41),
        (2, 4, 0.7, 0.2, 0.7),  # direct evidence wins outright
    ],
)
def test_resolve_routes_all_evidence_cases(n_d, n_r, direct, recommended, expected):
    assert resolve_trust_degree(n_d, n_r, direct, recommended) == expected


@pytest.mark.parametrize(
    "n_d, n_r, direct, recommended",
    [
        (1, 0, None, None),  # count says direct exists but no value
        (0, 0, 0.5, None),  # value without count
        (0, 1, None, None),
        (0, 0, None, 0.5),
    ],
)
def test_resolve_rejects_inconsistent_presence(n_d, n_r, direct, recommended):
    with pytest.raises(ValueError):
        resolve_trust_degree(n_d, n_r, direct, recommended)


# ---------------------------------------------------------------------------
# classify_level


def test_classification_partition():
    eps = 2.0 ** -32
    cases = {
        0.0: TrustLevel.NO_OPINION,
        0.25: TrustLevel.LOW_DISTRUST,
        0.5 - eps: TrustLevel.LOW_DISTRUST,
        0.5: TrustLevel.MEDIUM_TRUST,
        0.5 + eps: TrustLevel.HIGH_TRUST,
        0.75: TrustLevel.HIGH_TRUST,
        1.0: TrustLevel.COMPLETE_TRUST,
    }
    for value, expected in cases.items():
        assert classify_level(value) is expected


def test_classification_rejects_out_of_range():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            classify_level(bad)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_classification_is_total_on_unit_interval(td):
    level = classify_level(td)
    assert level in TrustLevel


def test_level_order_and_roman_round_trip():
    order = [
        TrustLevel.NO_OPINION,
        TrustLevel.LOW_DISTRUST,
        TrustLevel.MEDIUM_TRUST,
        TrustLevel.HIGH_TRUST,
        TrustLevel.COMPLETE_TRUST,
    ]
    assert order == sorted(TrustLevel)
    for level in TrustLevel:
        assert TrustLevel.from_roman(level.roman) is level
    with pytest.raises(ValueError):
        TrustLevel.from_roman("VI")


# ---------------------------------------------------------------------------
# parameter objects


def test_decay_params_validation():
    with pytest.raises(ValueError):
        DecayParams(0, 1.0)
    with pytest.raises(ValueError):
        DecayParams(1, 0.0)
    with pytest.raises(ValueError):
        DecayParams(1, -3.0)


def test_interaction_record_validation():
    with pytest.raises(ValueError):
        InteractionRecord(-1, 0.5, True)
    with pytest.raises(ValueError):
        InteractionRecord(0, 1.5, True)
    with pytest.raises(ValueError):
        InteractionRecord(float("inf"), 0.5, True)
    with pytest.raises(ValueError):  # an int too large for a float
        InteractionRecord(2**1024, 0.5, True)
    # a bool is not a time or a score, and only a bool is a flag: a
    # snapshot would write them back in a form its reader rejects
    with pytest.raises(ValueError):
        InteractionRecord(True, 0.5, True)
    with pytest.raises(ValueError):
        InteractionRecord(0, True, True)
    with pytest.raises(ValueError):
        InteractionRecord(0, 0.5, 1)


def test_reputation_factor_validation_and_mapping():
    with pytest.raises(ValueError):
        ReputationFactor(Grade.HIGH, 0.2)
    with pytest.raises(ValueError):
        validate_bonus_map({Grade.HIGH: 0.0, Grade.MEDIUM: 0.05, Grade.LOW: 0.1})


def test_sla_metrics_validation():
    with pytest.raises(ValueError):
        SlaMetrics(1.0, 1.0, 1.0, 1.0, 1.2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: classify_level(True), id="classify_level"),
        pytest.param(lambda: SlaMetrics(True, 1.0, 1.0, 1.0, 1.0), id="SlaMetrics"),
        pytest.param(lambda: SlaProfile(1.0, 1.0, 1.0, 1.0, False), id="SlaProfile"),
        pytest.param(lambda: ChainEdge("a", "b", True, 0.5), id="ChainEdge-weight"),
        pytest.param(lambda: ChainEdge("a", "b", 0.5, False), id="ChainEdge-direct_trust"),
        pytest.param(lambda: resolve_trust_degree(1, 0, True), id="resolve-direct"),
        pytest.param(lambda: resolve_trust_degree(0, 1, None, True), id="resolve-recommended"),
    ],
)
def test_a_bool_is_no_unit_value(build):
    # one check owns [0, 1], and it never takes a bool for a number
    with pytest.raises(ValueError, match=r"must be in \[0, 1\], got (True|False)$"):
        build()


def test_sla_profile_is_sla_metrics_plus_concentration():
    profile = SlaProfile(0.9, 0.2, 0.5, 0.99, 0.01, concentration=3.0)
    assert isinstance(profile, SlaMetrics)
    assert profile.as_tuple() == (0.9, 0.2, 0.5, 0.99, 0.01)
    assert profile.concentration == 3.0
    assert SlaProfile.uniform(0.4) == SlaProfile(0.4, 0.4, 0.4, 0.4, 0.4)
    with pytest.raises(ValueError, match=r"^availability must be in \[0, 1\], got 1.5$"):
        SlaProfile.uniform(1.5)
    with pytest.raises(ValueError, match="concentration"):
        SlaProfile.uniform(0.5, 0.0)


def test_bonus_range_message_names_the_grade():
    with pytest.raises(ValueError, match=r"^bonus for High must be in \[0, 0.1\], got 0.2$"):
        ReputationFactor(Grade.HIGH, 0.2)
    with pytest.raises(ValueError, match=r"^bonus for Low must be in \[0, 0.1\], got -0.5$"):
        validate_bonus_map({Grade.HIGH: 0.1, Grade.MEDIUM: 0.05, Grade.LOW: -0.5})


# ---------------------------------------------------------------------------
# randomized oracle comparisons (smaller cousins of the acceptance run)


def test_direct_trust_matches_oracle_on_random_cases():
    rng = random.Random(20240501)
    for _ in range(300):
        k = rng.choice((1, 2, 3))
        tau = rng.uniform(1.0, 8.0)
        t_now = rng.uniform(10.0, 80.0)
        n = rng.randint(1, 10)
        times = sorted(rng.uniform(0.0, t_now) for _ in range(n))
        times[-1] = max(times[-1], t_now - 3.0)
        history = [(t, rng.random()) for t in times]
        records = [InteractionRecord(t, s, s >= 0.5) for t, s in history]
        got = direct_trust(records, t_now, DecayParams(k, tau), NO_BONUS)
        want = oracle_direct(history, t_now, k, tau, 0.0)
        assert got == pytest.approx(want, rel=1e-12)

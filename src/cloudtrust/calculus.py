"""Core trust calculus: decay weighting, direct trust, chain evaluation,
satisfaction scoring, and trust-level classification.

Trust degrees are plain floats in the closed unit interval [0, 1].
Everything in this module is a pure function of its inputs; mutable
state lives in `tables` and `simulation`.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

__all__ = [
    "Grade",
    "ReputationFactor",
    "DecayParams",
    "InteractionRecord",
    "HistoryColumns",
    "SlaMetrics",
    "ChainEdge",
    "TrustChain",
    "TrustLevel",
    "DEFAULT_GRADE_BONUS",
    "DEFAULT_SL_WEIGHTS",
    "SL_METRIC_FIELDS",
    "clamp01",
    "validate_bonus_map",
    "decay_factor",
    "direct_trust",
    "edge_weight",
    "satisfaction_level",
    "chain_trust",
    "aggregate_recommendations",
    "resolve_trust_degree",
    "classify_level",
]


def clamp01(value: float) -> float:
    """Clamp a float into [0, 1]."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def _require_unit(value: float, name: str) -> float:
    # NaN fails both comparisons, so it is rejected too.  A bool is no
    # number here or in `_require_time`: a writer would write it back as
    # `true` or `false`, which its reader rejects.
    if value.__class__ is bool or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _require_count(value: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


# The latest time the decay law can take: it computes in floats.
_MAX_TIME = sys.float_info.max


def _require_time(value: float, name: str) -> float:
    # An int compares exactly with a float, so one too large for a float
    # fails the bound, as NaN and the infinities do.
    if value.__class__ is bool or not (
        isinstance(value, (int, float)) and 0 <= value <= _MAX_TIME
    ):
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def _require_id(value: str, name: str, error: type[ValueError] = ValueError) -> str:
    # An entity or service id is written as a JSON string; any other
    # value would fail only later, in a writer.
    if not isinstance(value, str):
        raise error(f"{name} must be a string, got {value!r}")
    return value


class Grade(Enum):
    """Reputation grade of a provider entity."""

    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"


#: Default additive direct-trust bonus per grade.  Small on purpose so
#: that observed behaviour, not reputation, dominates the result.
DEFAULT_GRADE_BONUS: Mapping[Grade, float] = {
    Grade.HIGH: 0.10,
    Grade.MEDIUM: 0.05,
    Grade.LOW: 0.0,
}


def validate_bonus_map(bonus_map: Mapping[Grade, float]) -> dict[Grade, float]:
    """Check a grade-to-bonus mapping: all grades present, each bonus a
    valid `ReputationFactor` bonus, and monotone (High >= Medium >= Low)."""
    out = {}
    for grade in Grade:
        if grade not in bonus_map:
            raise ValueError(f"bonus map is missing grade {grade.value}")
        out[grade] = ReputationFactor(grade, float(bonus_map[grade])).bonus
    if not (out[Grade.HIGH] >= out[Grade.MEDIUM] >= out[Grade.LOW]):
        raise ValueError("grade bonuses must be monotone: High >= Medium >= Low")
    return out


@dataclass(frozen=True)
class ReputationFactor:
    """Additive bonus applied to a provider's direct trust."""

    grade: Grade
    bonus: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.bonus <= 0.1):
            raise ValueError(f"bonus for {self.grade.value} must be in [0, 0.1], got {self.bonus!r}")


@dataclass(frozen=True)
class DecayParams:
    """Forgetting-curve parameters: weight = exp(-(dt / tau) ** k).

    `k` steers how sharply old evidence fades; `tau` is the time scale
    in the same unit as the timestamps (tau=1 leaves gaps unscaled).
    """

    k: int = 1
    tau: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not (isinstance(self.tau, (int, float)) and math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a finite positive number, got {self.tau!r}")


@dataclass(frozen=True)
class InteractionRecord:
    """One timestamped interaction outcome with a trustee for one service.

    `score` is the observed satisfaction in [0, 1]; `positive` marks
    whether the interaction counts toward the positive tally.
    """

    time: float
    score: float
    positive: bool

    def __post_init__(self) -> None:
        _require_time(self.time, "record time")
        _require_unit(self.score, "record score")
        if self.positive.__class__ is not bool:
            raise ValueError(f"record positive must be a bool, got {self.positive!r}")


#: Field order used everywhere metrics appear as a sequence (weights,
#: config files, sampling).
SL_METRIC_FIELDS = (
    "availability",
    "processing_capacity",
    "recovery_time",
    "connectivity",
    "peak_load_performance",
)
_metric_values = operator.attrgetter(*SL_METRIC_FIELDS)


@dataclass(frozen=True)
class SlaMetrics:
    """Normalized service-quality readings, 1.0 best for every field.

    `recovery_time` is pre-normalized so 1.0 means fastest recovery.
    """

    availability: float
    processing_capacity: float
    recovery_time: float
    connectivity: float
    peak_load_performance: float

    def __post_init__(self) -> None:
        for name in SL_METRIC_FIELDS:
            _require_unit(getattr(self, name), name)

    @classmethod
    def _sampled(cls, values: Iterable[float]) -> "SlaMetrics":
        """One from five values already in [0, 1], which it does not check."""
        metrics = object.__new__(cls)
        metrics.__dict__.update(zip(SL_METRIC_FIELDS, values))
        return metrics

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return _metric_values(self)


@dataclass(frozen=True)
class ChainEdge:
    """One hop of a trust chain: `src` trusts `dst` directly."""

    src: str
    dst: str
    weight: float
    direct_trust: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"chain edge cannot loop on {self.src!r}")
        _require_unit(self.weight, "edge weight")
        _require_unit(self.direct_trust, "edge direct trust")


@dataclass(frozen=True)
class TrustChain:
    """A simple directed path of direct-trust edges.

    Construction checks connectivity and simplicity only; the 2..max
    hop window is the business of chain discovery, which is the sole
    producer of multi-hop chains.  Single-edge chains are legal inputs
    to `chain_trust` (the weight cancels out).
    """

    edges: tuple[ChainEdge, ...]

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise ValueError("a trust chain needs at least one edge")
        for prev, cur in zip(edges, edges[1:]):
            if prev.dst != cur.src:
                raise ValueError(f"chain breaks between {prev.dst!r} and {cur.src!r}")
        nodes = self.nodes
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"chain revisits a node: {' > '.join(nodes)}")

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.edges[0].src,) + tuple(edge.dst for edge in self.edges)

    @property
    def total_weight(self) -> float:
        return math.fsum(edge.weight for edge in self.edges)


class TrustLevel(IntEnum):
    """Discrete trust bands, ordered so access gating can compare them."""

    NO_OPINION = 1
    LOW_DISTRUST = 2
    MEDIUM_TRUST = 3
    HIGH_TRUST = 4
    COMPLETE_TRUST = 5

    @property
    def roman(self) -> str:
        return _LEVEL_ROMAN[self]

    @property
    def label(self) -> str:
        return _LEVEL_LABEL[self]

    @classmethod
    def from_roman(cls, text: str) -> "TrustLevel":
        try:
            return _ROMAN_LEVEL[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown trust level {text!r}; expected one of I..V") from None


_LEVEL_ROMAN = {
    TrustLevel.NO_OPINION: "I",
    TrustLevel.LOW_DISTRUST: "II",
    TrustLevel.MEDIUM_TRUST: "III",
    TrustLevel.HIGH_TRUST: "IV",
    TrustLevel.COMPLETE_TRUST: "V",
}
_ROMAN_LEVEL = {roman: level for level, roman in _LEVEL_ROMAN.items()}
_LEVEL_LABEL = {
    TrustLevel.NO_OPINION: "No Opinion",
    TrustLevel.LOW_DISTRUST: "Low distrust",
    TrustLevel.MEDIUM_TRUST: "Medium trust",
    TrustLevel.HIGH_TRUST: "High trust",
    TrustLevel.COMPLETE_TRUST: "Complete trust",
}


def _decay_exponent(gap: float, params: DecayParams) -> float:
    # (gap / tau) ** k overflows for astronomical gaps, and cannot be
    # taken at all for a k too large for a float; both take the limit of
    # a huge k: 0 below gap = tau, 1 at it and infinity above it.
    ratio = gap / params.tau
    try:
        return -(ratio ** params.k)
    except OverflowError:
        return -math.inf if ratio > 1.0 else -float(ratio == 1.0)


def decay_factor(t_current: float, t_last: float, params: DecayParams) -> float:
    """Forgetting weight exp(-((t_current - t_last) / tau) ** k).

    Equals 1.0 at zero gap and decreases strictly as the gap grows.
    """
    if t_current < t_last:
        raise ValueError(
            f"t_current ({t_current!r}) precedes t_last ({t_last!r}); clock went backwards"
        )
    return math.exp(_decay_exponent(t_current - t_last, params))


class HistoryColumns(NamedTuple):
    """What direct trust reads of one history, derived from it in one
    pass: its time and score columns in history order, the newest time
    and the score envelope."""

    times: list[float]
    scores: list[float]
    newest: float
    low: float
    high: float

    @classmethod
    def of(cls, history: Sequence[InteractionRecord]) -> "HistoryColumns":
        if not history:
            raise ValueError("direct trust needs at least one interaction")
        times, scores = [r.time for r in history], [r.score for r in history]
        return cls(times, scores, max(times), min(scores), max(scores))


def _decayed_trust(
    columns: HistoryColumns, t_now: float, params: DecayParams, rf: Optional[ReputationFactor]
) -> float:
    """`direct_trust` over a history's columns: the one decay kernel."""
    times, scores, newest, low, high = columns
    if newest > t_now:
        future = next(t for t in times if t > t_now)
        raise ValueError(f"record at t={future!r} is in the future of t_now={t_now!r}")
    if low == high:
        # A flat history: the envelope clamp below would pin any mean to
        # its score, so no weight is needed.  `+ 0.0` turns a -0.0 score
        # into the 0.0 that `fsum` gives for a zero mean.
        return clamp01(low + 0.0 + (0.0 if rf is None else rf.bonus))
    exponents = [_decay_exponent(t_now - t, params) for t in times]
    peak = max(exponents)
    if peak == -math.inf:
        # Even the newest record decayed below representability; in the
        # limit the least-decayed records carry all remaining weight.
        survivors = [s for t, s in zip(times, scores) if t == newest]
        mean = math.fsum(survivors) / len(survivors)
    else:
        weights = [math.exp(x - peak) for x in exponents]
        mean = math.fsum(map(operator.mul, weights, scores)) / math.fsum(weights)
    # Rounding can nudge a weighted mean of floats just past the score
    # envelope; pin it back before applying the bonus.
    mean = min(max(mean, low), high)
    return clamp01(mean + (0.0 if rf is None else rf.bonus))


def direct_trust(
    history: Sequence[InteractionRecord],
    t_now: float,
    params: DecayParams,
    rf: Optional[ReputationFactor] = None,
) -> float:
    """Decay-weighted mean of past interaction scores, plus the
    provider's reputation bonus, clamped into [0, 1].

    Weights are normalized against the newest record so that very old
    histories cannot underflow the whole denominator; the ratio is
    unchanged because a weighted mean is scale-invariant.
    """
    return _decayed_trust(HistoryColumns.of(list(history)), t_now, params, rf)


def edge_weight(n_positive: int, n_total: int, sl: float) -> float:
    """Chain-edge weight: positive share of interactions scaled by the
    satisfaction level, (n_positive * sl) / n_total."""
    _require_count(n_positive, "n_positive")
    _require_count(n_total, "n_total")
    if n_total < 1:
        raise ValueError("edge weight needs at least one interaction (n_total >= 1)")
    if n_positive > n_total:
        raise ValueError(f"n_positive ({n_positive}) exceeds n_total ({n_total})")
    _require_unit(sl, "satisfaction level")
    # Dividing first keeps confidence-equivalent ratios bit-identical:
    # equal real ratios round to the same float before sl scales them.
    return (n_positive / n_total) * sl


#: Equal weighting of the five SLA components.
DEFAULT_SL_WEIGHTS = (0.2, 0.2, 0.2, 0.2, 0.2)


def satisfaction_level(
    metrics: SlaMetrics, weights: Sequence[float] = DEFAULT_SL_WEIGHTS
) -> float:
    """Weighted mean of the five quality readings.

    Weights must be non-negative and sum to 1 within 1e-9; the order
    follows `SL_METRIC_FIELDS`.
    """
    ws = tuple(float(w) for w in weights)
    if len(ws) != len(SL_METRIC_FIELDS):
        raise ValueError(f"expected {len(SL_METRIC_FIELDS)} weights, got {len(ws)}")
    for w in ws:
        if not (math.isfinite(w) and w >= 0.0):
            raise ValueError(f"weights must be finite and non-negative, got {w!r}")
    total = math.fsum(ws)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    return clamp01(math.fsum(w * m for w, m in zip(ws, metrics.as_tuple())))


def _weighted_mean(values: Sequence[float], weights: Sequence[float], total: float) -> float:
    """fsum(value * weight) / total over two columns, where `total` is
    the fsum of the weights.  Rounding can nudge the mean just past the
    values' envelope, so it is pinned back into it."""
    mean = math.fsum(map(operator.mul, values, weights)) / total
    return min(max(mean, min(values)), max(values))


def chain_trust(chain: TrustChain) -> float:
    """Weight-weighted mean of the direct trusts along one chain."""
    total = chain.total_weight
    if total <= 0.0:
        raise ValueError("chain carries no information: all edge weights are zero")
    edges = chain.edges
    return _weighted_mean([e.direct_trust for e in edges], [e.weight for e in edges], total)


def aggregate_recommendations(chain_trusts: Iterable[tuple[float, float]]) -> float:
    """Combine per-chain trusts into one value, weighting each chain by
    its total edge weight (heavier evidence counts more)."""
    pairs = [(float(td), float(weight)) for td, weight in chain_trusts]
    if not pairs:
        raise ValueError("no chain trusts to aggregate")
    for td, weight in pairs:
        _require_unit(td, "chain trust")
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValueError(f"chain weight must be finite and non-negative, got {weight!r}")
    trusts, weights = zip(*pairs)
    total = math.fsum(weights)
    if total <= 0.0:
        raise ValueError("all chain weights are zero; nothing to aggregate")
    return _weighted_mean(trusts, weights, total)


PATH_DIRECT = "direct"
PATH_RECOMMENDED = "recommended"
PATH_IGNORANCE = "ignorance"


def _ladder(
    direct: Optional[float], recommend: Callable[[], Optional[float]]
) -> tuple[str, float]:
    """The resolution ladder's precedence, the one copy of it: (path,
    degree) from the direct degree if there is one, else from
    `recommend()`, which is called only then, else ignorance at 0."""
    if direct is not None:
        return PATH_DIRECT, direct
    recommended = recommend()
    if recommended is not None:
        return PATH_RECOMMENDED, recommended
    return PATH_IGNORANCE, 0.0


def resolve_trust_degree(
    n_direct: int,
    n_recommended: int,
    direct: Optional[float] = None,
    recommended: Optional[float] = None,
) -> float:
    """Route the available evidence to a single trust degree.

    No evidence at all resolves to 0.0 (ignorance).  Any direct
    evidence wins outright; recommendations apply only when there is
    no direct history.
    """
    _require_count(n_direct, "n_direct")
    _require_count(n_recommended, "n_recommended")
    if (direct is None) != (n_direct == 0):
        raise ValueError(
            f"direct value presence does not match n_direct={n_direct}"
        )
    if (recommended is None) != (n_recommended == 0):
        raise ValueError(
            f"recommended value presence does not match n_recommended={n_recommended}"
        )
    path, td = _ladder(direct, lambda: recommended)
    return _require_unit(td, f"{path} trust")


def classify_level(td: float) -> TrustLevel:
    """Map a trust degree to its band; boundary comparisons are exact."""
    _require_unit(td, "trust degree")
    if td == 0.0:
        return TrustLevel.NO_OPINION
    if td < 0.5:
        return TrustLevel.LOW_DISTRUST
    if td == 0.5:
        return TrustLevel.MEDIUM_TRUST
    if td < 1.0:
        return TrustLevel.HIGH_TRUST
    return TrustLevel.COMPLETE_TRUST

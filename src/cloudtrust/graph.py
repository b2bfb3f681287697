"""Directed trust graph, chain discovery, recommendation evaluation,
and `resolve`, the resolution ladder that both the simulator and the
CLI run over a graph; its precedence has one owner, `calculus._ladder`.

The graph's edges are direct-interaction relationships: tallies, the
satisfaction level, and the point-in-time direct trust of the edge.
The ladder and the search read a graph through two methods:
`out_edges(src, service) -> {dst: weight}` and `direct(src, dst,
service)`, the edge's direct trust or None.  Chains are simple directed
paths of 2..max_len hops from a trustor to a target, found by one
exhaustive depth-capped search.  It hands its callback the chains in
batches, one per node b that ends any: the path to b, with its hop
weights and the number of leading hops it shares with the previous
batch's, and b's ends: its own edge into the target and, where b is at
hop max_len - 2, every next node c with an edge into the target, whose
weight the search looks up in c's out-edge map instead of iterating it.
A recommendation keeps, per hop of the path, the sums that every chain
below it shares, and per end the sums of the end's own hops, so a chain
costs two `fsum`s and a clamp; it asks `direct` once per edge, and only
for the hops of a chain with positive total weight.  `TrustGraph` serves
fixtures and `--snapshots`, and a run resolves each request over its
snapshot, or without one over a view of its stores that reads only what
the request touches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

from ._input import MISSING, NUMBER, array, load_object, place, read, read_items
from .calculus import (
    PATH_DIRECT,
    PATH_IGNORANCE,
    PATH_RECOMMENDED,
    ChainEdge,
    TrustChain,
    _ladder,
    _require_id,
    _require_unit,
    _weighted_mean,
    edge_weight,
)

__all__ = [
    "FixtureError",
    "EdgeStats",
    "TrustGraph",
    "discover_chains",
    "evaluate_recommendation",
    "resolve",
    "PATH_DIRECT",
    "PATH_RECOMMENDED",
    "PATH_IGNORANCE",
]

MIN_CHAIN_LEN = 2
MAX_CHAIN_LEN = 8
DEFAULT_MAX_CHAIN_LEN = 4


class FixtureError(ValueError):
    """A graph fixture document could not be parsed or failed validation."""


@dataclass(frozen=True, slots=True)
class EdgeStats:
    """Evidence stored on one directed edge.

    `weight` is derived: `edge_weight(n_positive, n_total, sl)`, taken
    once on construction, which is also where the counts and `sl` are
    checked.  No document ever holds it.  `_recorded` builds one from
    the five values a table checked when it recorded them.
    """

    n_positive: int
    n_total: int
    sl: float
    direct_trust: float
    weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", edge_weight(self.n_positive, self.n_total, self.sl))
        _require_unit(self.direct_trust, "direct_trust")

    @classmethod
    def _recorded(cls, n_positive, n_total, sl, direct_trust, weight) -> "EdgeStats":
        stats = object.__new__(cls)
        _set_n_positive(stats, n_positive)
        _set_n_total(stats, n_total)
        _set_sl(stats, sl)
        _set_direct_trust(stats, direct_trust)
        _set_weight(stats, weight)
        return stats


# the slots' own setters, which the frozen class's `__setattr__` refuses
_set_n_positive, _set_n_total, _set_sl, _set_direct_trust, _set_weight = (
    getattr(EdgeStats, name).__set__ for name in EdgeStats.__slots__
)


# One edge of a graph document up to its `dt`, laid out as `json.dumps(..., indent=2)` does.
_EDGE = """    {
      "from": %s,
      "to": %s,
      "service": %s,
      "n_p": %d,
      "n": %d,
      "sl": %r,
      "dt": """


def _edge_fields(src: str, dst: str, service: str, n_positive: int, n_total: int, sl: float) -> str:
    """An edge's document up to its `dt`, the part that does not decay."""
    quote = encode_basestring_ascii
    return _EDGE % (quote(src), quote(dst), quote(service), n_positive, n_total, sl)


class TrustGraph:
    """Directed graph keyed by (src, dst, service)."""

    def __init__(self) -> None:
        self._nodes: set[str] = set()
        self._edges: dict[tuple[str, str, str], EdgeStats] = {}
        self._weights: dict[tuple[str, str], dict[str, float]] = {}
        self._fields: dict[tuple[str, str, str], str] = {}  # `_edge_fields` a table kept

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        self._nodes.add(_require_id(node, "node"))

    def add_edge(self, src: str, dst: str, service: str, stats: EdgeStats) -> None:
        _require_id(src, "edge source")
        _require_id(dst, "edge target")
        _require_id(service, "edge service")
        if src == dst:
            raise ValueError(f"self-edge on {src!r} is not allowed")
        self._nodes.add(src)
        self._nodes.add(dst)
        self._edges[(src, dst, service)] = stats
        self._weights.setdefault((src, service), {})[dst] = stats.weight

    def direct(self, src: str, dst: str, service: str) -> Optional[float]:
        stats = self._edges.get((src, dst, service))
        return None if stats is None else stats.direct_trust

    def out_edges(self, src: str, service: str) -> dict[str, float]:
        """The weights of the service's edges out of src, by target.
        This is the graph's own map: callers must not mutate it."""
        return self._weights.get((src, service), {})

    def edges(self) -> Iterator[tuple[str, str, str, EdgeStats]]:
        for (src, dst, service), stats in sorted(self._edges.items()):
            yield src, dst, service, stats

    def to_json(self) -> str:
        quote = encode_basestring_ascii
        nodes = array(["    " + quote(node) for node in sorted(self._nodes)], "  ")
        fields = self._fields
        edges = [
            "%s%r\n    }" % (
                fields.get(key) or _edge_fields(*key, stats.n_positive, stats.n_total, stats.sl),
                stats.direct_trust,
            )
            for key, stats in sorted(self._edges.items())
        ]
        return '{\n  "nodes": %s,\n  "edges": %s\n}\n' % (nodes, array(edges, "  "))

    @classmethod
    def from_json(cls, text: str) -> "TrustGraph":
        document = load_object(text, FixtureError, "fixture")
        graph = cls()
        for _, node in read_items(document, "nodes", str, "fixture", FixtureError):
            graph.add_node(node)
        for at, raw in read_items(document, "edges", dict, "fixture", FixtureError):
            src = read(raw, "from", str, at, FixtureError)
            dst = read(raw, "to", str, at, FixtureError)
            service = read(raw, "service", str, at, FixtureError)
            n_positive = read(raw, "n_p", int, at, FixtureError)
            n_total = read(raw, "n", int, at, FixtureError)
            sl = read(raw, "sl", NUMBER, at, FixtureError)
            dt = read(raw, "dt", NUMBER, at, FixtureError)
            try:
                stats = EdgeStats(n_positive, n_total, float(sl), float(dt))
                graph.add_edge(src, dst, service, stats)
            except (OverflowError, ValueError) as exc:
                raise FixtureError(f"{place(at)} failed validation: {exc}") from exc
        return graph


def _check_max_len(max_len: int) -> None:
    if not (MIN_CHAIN_LEN <= max_len <= MAX_CHAIN_LEN):
        raise ValueError(
            f"max_len must be within [{MIN_CHAIN_LEN}, {MAX_CHAIN_LEN}], got {max_len!r}"
        )


def _search(graph, source: str, target: str, service: str, max_len: int, on_batch) -> None:
    """Depth-first search over every simple directed path source ->
    target with 2..max_len hops, in no particular order.  The chains
    reach `on_batch(nodes, weights, shared, ends)` in one call per node b
    that ends any: `nodes` is the path source .. b, `weights` the weight
    of each of its hops, and `shared` how many of its leading hops are
    unchanged since the previous call (0 at the first), so that a
    callback can keep what it derived from them.  `ends` are b's own
    edge into the target, as `(target, (w_bt,))`, and, where b is at hop
    max_len - 2, each next node c off the path with an edge into the
    target, as `(c, (w_bc, w_ct))`.  The lists are the search's own,
    valid only during the call.  The out-edges of c are never iterated:
    the search looks the target up in c's out-edge map once per search.
    A source without out-edges ends the search before it sets anything
    up."""
    _check_max_len(max_len)
    if source == target:
        raise ValueError("reflexive trust needs no chain; source and target must differ")
    out_edges = graph.out_edges
    first = out_edges(source, service).items()
    if not first:  # most searches of a sparse graph end here
        return
    into: dict[str, Optional[float]] = {}  # node -> weight of its edge into target
    nodes: list[str] = [source]
    weights: list[float] = []
    shared = 0  # the fewest hops the path has held since the last batch
    deepest = max_len - 2  # the hop of the nodes that end chains of two hops

    def walk(edges) -> None:
        # the batch of the path's last node, and the paths one hop longer
        nonlocal shared
        hops = len(weights)
        ends = []
        for dst, weight in edges:
            if dst == target:
                if hops:  # the source's own edge is no chain
                    ends.append((dst, (weight,)))
            elif dst in nodes:
                continue
            elif hops < deepest:
                nodes.append(dst)
                weights.append(weight)
                walk(out_edges(dst, service).items())
                nodes.pop()
                weights.pop()
                if shared > hops:
                    shared = hops
            else:
                if dst in into:
                    final = into[dst]
                else:
                    final = into[dst] = out_edges(dst, service).get(target)
                if final is not None:
                    ends.append((dst, (weight, final)))
        if ends:
            on_batch(nodes, weights, shared, ends)
            shared = hops

    walk(first)
    # `walk` refers to itself: break the cycle now, not at the next full
    # collection, or it keeps a live view and its stores alive
    del walk


def discover_chains(
    graph: TrustGraph,
    source: str,
    target: str,
    service: str,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
) -> list[TrustChain]:
    """Every simple directed path source -> target over the service's
    edges with 2..max_len hops, strongest total evidence first (ties
    broken by the lexicographic node sequence)."""
    chains: list[TrustChain] = []

    @cache  # once per hop: every chain is returned, so every hop needs its direct trust
    def edge(src: str, dst: str, weight: float) -> ChainEdge:
        return ChainEdge(src, dst, weight, graph.direct(src, dst, service))

    def keep(nodes: list[str], weights: list[float], shared: int, ends) -> None:
        path = [*map(edge, nodes, nodes[1:], weights)]
        node = nodes[-1]
        for end, last in ends:  # `map` stops at an own edge's one weight
            chains.append(TrustChain((*path, *map(edge, (node, end), (end, target), last))))

    _search(graph, source, target, service, max_len, keep)
    chains.sort(key=lambda c: (-c.total_weight, c.nodes))
    return chains


_NO_HOPS = ((), math.inf, -math.inf)  # the sums of an empty prefix


def _asked(memo: dict, graph, hop: tuple[str, str], service: str) -> float:
    """The hop's direct trust, asked of the graph once per `memo`."""
    if hop not in memo:
        memo[hop] = graph.direct(*hop, service)
    return memo[hop]


def evaluate_recommendation(
    graph: TrustGraph,
    source: str,
    target: str,
    service: str,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
) -> Optional[tuple[float, int]]:
    """Aggregate every usable chain into one recommended trust value.

    Chains whose weights are all zero carry no information and are
    dropped before any of their direct trust is read.  A usable chain's
    trust is `chain_trust`'s float, taken from kept sums: each `dt * w`
    and the lowest and highest `dt`.  They are kept per hop of the
    search's current path, from the first usable chain below it until
    the search backtracks past it, and per end of a batch node, in one
    table for the whole search.  So a chain costs two `fsum`s, one over
    its weights and one over its prefix's and its end's products, two
    comparisons that join the two envelopes, and a clamp.  `direct` is
    asked once for each edge of a usable chain.  `fsum` is correctly
    rounded for any grouping of the same terms, so the result is
    bit-equal to summing each chain alone.
    Returns (trust, chain count) or None when nothing usable connects
    source to target.
    """
    trusts: list[float] = []
    totals: list[float] = []
    # per hop of the current path, kept from the first usable chain below
    # it: the products of the hops up to it, and the least and greatest dt
    kept: list[tuple[tuple[float, ...], float, float]] = []
    tails: dict[str, dict] = {}  # batch node -> end -> the same over the end's hops
    memo: dict[tuple[str, str], float] = {}  # hop -> its direct trust

    def score(nodes: list[str], weights: list[float], shared: int, ends) -> None:
        del kept[shared:]
        prefix = tuple(weights)
        node = nodes[-1]
        tail = None
        for end, last in ends:
            total = math.fsum(prefix + last)
            if total > 0.0:
                if tail is None:  # the batch's first usable chain
                    products, low, high = kept[-1] if kept else _NO_HOPS
                    for i in range(len(kept), len(weights)):
                        dt = _asked(memo, graph, (nodes[i], nodes[i + 1]), service)
                        products += (dt * weights[i],)
                        # strict comparisons keep the first of equal
                        # values, as `min` and `max` do
                        if dt < low:
                            low = dt
                        if dt > high:
                            high = dt
                        kept.append((products, low, high))
                    tail = tails.setdefault(node, {})
                sums = tail.get(end)
                if sums is None:
                    dt = _asked(memo, graph, (node, end), service)
                    if end == target:
                        sums = tail[end] = (dt * last[0],), dt, dt
                    else:
                        final = _asked(memo, graph, (end, target), service)
                        sums = tail[end] = (
                            (dt * last[0], final * last[1]), min(dt, final), max(dt, final)
                        )
                end_products, end_low, end_high = sums
                # `_weighted_mean` of the chain's direct trusts and weights
                mean = math.fsum(products + end_products) / total
                floor = end_low if end_low < low else low
                ceiling = end_high if end_high > high else high
                if floor > mean:
                    mean = floor
                trusts.append(ceiling if ceiling < mean else mean)
                totals.append(total)

    _search(graph, source, target, service, max_len, score)
    if not trusts:
        return None
    # the search's edges and weights are checked already, so this is
    # `aggregate_recommendations` without its input checks
    return _weighted_mean(trusts, totals, math.fsum(totals)), len(trusts)


def resolve(
    graph: TrustGraph,
    source: str,
    target: str,
    service: str,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
    direct=MISSING,
) -> tuple[str, float]:
    """The resolution ladder: (path, trust degree) from the direct edge
    source -> target if there is one, else from the usable chains, which
    are searched only then, else ignorance with degree 0.  `direct` is the
    edge's direct trust or None, if the caller has read it already."""
    _check_max_len(max_len)

    def recommend() -> Optional[float]:
        outcome = evaluate_recommendation(graph, source, target, service, max_len)
        return None if outcome is None else outcome[0]

    direct = graph.direct(source, target, service) if direct is MISSING else direct
    return _ladder(direct, recommend)

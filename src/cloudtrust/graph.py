"""Directed trust graph, chain discovery, recommendation evaluation,
and `resolve`, the resolution ladder that both the simulator and the
CLI run over a graph; its precedence has one owner, `calculus._ladder`.

The graph's edges are direct-interaction relationships: tallies, the
satisfaction level, and the point-in-time direct trust of the edge.
The ladder and the search read a graph through two methods:
`out_edges(src, service) -> {dst: weight}` and `direct(src, dst,
service)`, the edge's direct trust or None.  Chains are simple directed
paths of 2..max_len hops from a trustor to a target, found by one
exhaustive depth-capped search, which hands each chain's nodes and hop
weights to its callback together with the number of leading hops the
chain shares with the one before.  A node the search reaches at hop
max_len - 1 can only end a chain, so the search takes that chain's last
hop by looking the target up in the node's out-edge map instead of
iterating it.  A recommendation keeps, per hop of the search's current
path, the sums that every chain below it shares, so a chain costs only
its own last hops; it asks `direct` once per edge, and only for the
hops of a chain with positive total weight.  `TrustGraph` serves
fixtures and `--snapshots`; a run resolves each request over one view
of its live stores with the same two methods, which reads only what the
request touches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

from ._input import NUMBER, array, load_object, place, read, read_items
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
    checked.  No document ever holds it.  `_recorded(n_positive,
    n_total, sl, direct_trust, weight)` builds one from values a table
    checked when it recorded them, weight included.
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
    def _recorded(cls, *values: float) -> "EdgeStats":
        stats, set_field = object.__new__(cls), object.__setattr__
        for name, value in zip(cls.__slots__, values):
            set_field(stats, name, value)
        return stats


# One edge of a graph document, laid out as `json.dumps(..., indent=2)` does.
_EDGE = """    {
      "from": %s,
      "to": %s,
      "service": %s,
      "n_p": %d,
      "n": %d,
      "sl": %r,
      "dt": %r
    }"""


class TrustGraph:
    """Directed graph keyed by (src, dst, service)."""

    def __init__(self) -> None:
        self._nodes: set[str] = set()
        self._edges: dict[tuple[str, str, str], EdgeStats] = {}
        self._weights: dict[tuple[str, str], dict[str, float]] = {}

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
        self._put(src, dst, service, stats)

    def _put(self, src: str, dst: str, service: str, stats: EdgeStats) -> None:
        """`add_edge` for ids a table checked when it recorded them."""
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
        edges = array(
            [
                _EDGE % (
                    quote(src), quote(dst), quote(service), stats.n_positive,
                    stats.n_total, stats.sl, stats.direct_trust,
                )
                for src, dst, service, stats in self.edges()
            ],
            "  ",
        )
        return '{\n  "nodes": %s,\n  "edges": %s\n}\n' % (nodes, edges)

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


def _search(graph, source: str, target: str, service: str, max_len: int, on_chain) -> None:
    """Depth-first search over every simple directed path source ->
    target with 2..max_len hops, in no particular order.  Calls
    `on_chain(nodes, weights, shared)` once per path with its nodes, the
    weight of each hop, and how many of its leading hops are unchanged
    since the previous call (0 at the first), so that a callback can keep
    what it derived from them.  The two lists are the search's own stack,
    valid only during the call.  The out-edges of a node at hop
    max_len - 1 are never iterated: its one possible chain ends with the
    edge into the target, whose weight the search looks up in the node's
    out-edge map once per node.  A source without out-edges ends the
    search before it sets anything up."""
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
    shared = 0  # the fewest hops the path has held since the last chain

    def walk(edges) -> None:
        # extends the current path by each of `edges`, its last node's out-edges
        nonlocal shared
        hops = len(weights)
        for dst, weight in edges:
            if dst == target:
                if hops + 1 >= MIN_CHAIN_LEN:
                    nodes.append(dst)
                    weights.append(weight)
                    on_chain(nodes, weights, shared)
                    nodes.pop()
                    weights.pop()
                    shared = hops
            elif dst in nodes:
                continue
            elif hops + 2 < max_len:
                nodes.append(dst)
                weights.append(weight)
                walk(out_edges(dst, service).items())
                nodes.pop()
                weights.pop()
                if shared > hops:
                    shared = hops
            else:
                if dst in into:
                    last = into[dst]
                else:
                    last = into[dst] = out_edges(dst, service).get(target)
                if last is not None:
                    nodes.extend((dst, target))
                    weights.extend((weight, last))
                    on_chain(nodes, weights, shared)
                    del nodes[-2:], weights[-2:]
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

    def keep(nodes: list[str], weights: list[float], shared: int) -> None:
        # every chain is returned, so every hop needs its direct trust
        hops = zip(nodes, nodes[1:], weights)
        chains.append(
            TrustChain(tuple(ChainEdge(a, b, w, graph.direct(a, b, service)) for a, b, w in hops))
        )

    _search(graph, source, target, service, max_len, keep)
    chains.sort(key=lambda c: (-c.total_weight, c.nodes))
    return chains


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
    trust is `chain_trust`'s float, taken from sums kept per hop of the
    search's current path: each hop's `dt * w` and the lowest and highest
    `dt` up to it.  They are kept lazily, from the first usable chain
    that needs them, and dropped where the search backtracks, so a chain
    below a kept prefix costs only its own last hops.  `direct` is asked
    once for each edge of a usable chain.  `fsum` is correctly rounded
    for any grouping of the same terms, so the result is bit-equal to
    summing each chain alone.
    Returns (trust, chain count) or None when nothing usable connects
    source to target.
    """
    trusts: list[float] = []
    totals: list[float] = []
    # per hop of the current path, kept from the first usable chain below
    # it: the hop's dt * w, and the least and greatest dt up to it
    products: list[float] = []
    envelopes: list[tuple[float, float]] = []
    memo: dict[tuple[str, str], float] = {}  # hop -> its direct trust

    def keep(nodes: list[str], weights: list[float], shared: int) -> None:
        del products[shared:], envelopes[shared:]
        total = math.fsum(weights)
        if total > 0.0:
            if envelopes:
                low, high = envelopes[-1]
            for i in range(len(products), len(weights)):
                hop = nodes[i], nodes[i + 1]
                if hop in memo:
                    dt = memo[hop]
                else:
                    dt = memo[hop] = graph.direct(*hop, service)
                # strict comparisons keep the first of equal values, as
                # `min` and `max` do
                if not i:
                    low = high = dt
                elif dt < low:
                    low = dt
                elif dt > high:
                    high = dt
                products.append(dt * weights[i])
                envelopes.append((low, high))
            # `_weighted_mean` of the chain's direct trusts and weights
            trusts.append(min(max(math.fsum(products) / total, low), high))
            totals.append(total)

    _search(graph, source, target, service, max_len, keep)
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
) -> tuple[str, float]:
    """The resolution ladder: (path, trust degree) from the direct edge
    source -> target if there is one, else from the usable chains, which
    are searched only then, else ignorance with degree 0."""
    _check_max_len(max_len)

    def recommend() -> Optional[float]:
        outcome = evaluate_recommendation(graph, source, target, service, max_len)
        return None if outcome is None else outcome[0]

    return _ladder(graph.direct(source, target, service), recommend)

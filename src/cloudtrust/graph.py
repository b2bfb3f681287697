"""Directed trust graph, chain discovery, recommendation evaluation,
and the resolution ladder that both the simulator and the CLI run.

The graph's edges are direct-interaction relationships: tallies, the
satisfaction level, and the point-in-time direct trust of the edge.
Chains are simple directed paths of 2..max_len hops from a trustor to
a target, found by exhaustive depth-capped search; at desk scale
correctness is cheaper than cleverness.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

from ._input import NUMBER, load_object, place, read, read_items
from .calculus import (
    ChainEdge,
    TrustChain,
    _require_unit,
    aggregate_recommendations,
    chain_trust,
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

PATH_DIRECT = "direct"
PATH_RECOMMENDED = "recommended"
PATH_IGNORANCE = "ignorance"


class FixtureError(ValueError):
    """A graph fixture document could not be parsed or failed validation."""


@dataclass(frozen=True)
class EdgeStats:
    """Evidence stored on one directed edge."""

    n_positive: int
    n_total: int
    sl: float
    direct_trust: float

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError("an edge needs at least one interaction")
        if not (0 <= self.n_positive <= self.n_total):
            raise ValueError(
                f"n_positive ({self.n_positive}) must be within [0, {self.n_total}]"
            )
        _require_unit(self.sl, "sl")
        _require_unit(self.direct_trust, "direct_trust")

    @property
    def weight(self) -> float:
        return edge_weight(self.n_positive, self.n_total, self.sl)


class TrustGraph:
    """Directed graph keyed by (src, dst, service)."""

    def __init__(self) -> None:
        self._nodes: set[str] = set()
        self._edges: dict[tuple[str, str, str], EdgeStats] = {}
        self._out: dict[tuple[str, str], set[str]] = {}

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        self._nodes.add(node)

    def add_edge(self, src: str, dst: str, service: str, stats: EdgeStats) -> None:
        if src == dst:
            raise ValueError(f"self-edge on {src!r} is not allowed")
        self._nodes.add(src)
        self._nodes.add(dst)
        self._edges[(src, dst, service)] = stats
        self._out.setdefault((src, service), set()).add(dst)

    def edge(self, src: str, dst: str, service: str) -> Optional[EdgeStats]:
        return self._edges.get((src, dst, service))

    def successors(self, src: str, service: str) -> list[str]:
        return sorted(self._out.get((src, service), ()))

    def edges(self) -> Iterator[tuple[str, str, str, EdgeStats]]:
        for (src, dst, service), stats in sorted(self._edges.items()):
            yield src, dst, service, stats

    def to_json(self) -> str:
        document = {
            "nodes": sorted(self._nodes),
            "edges": [
                {
                    "from": src,
                    "to": dst,
                    "service": service,
                    "n_p": stats.n_positive,
                    "n": stats.n_total,
                    "sl": stats.sl,
                    "dt": stats.direct_trust,
                }
                for src, dst, service, stats in self.edges()
            ],
        }
        return json.dumps(document, indent=2) + "\n"

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
    if source == target:
        raise ValueError("reflexive trust needs no chain; source and target must differ")
    _check_max_len(max_len)
    chains: list[TrustChain] = []
    path: list[str] = [source]
    on_path = {source}

    def walk(node: str) -> None:
        depth = len(path) - 1
        if depth >= max_len:
            return
        for succ in graph.successors(node, service):
            if succ == target:
                if depth + 1 >= MIN_CHAIN_LEN:
                    chains.append(_build_chain(graph, path + [target], service))
                continue
            if succ in on_path:
                continue
            path.append(succ)
            on_path.add(succ)
            walk(succ)
            path.pop()
            on_path.remove(succ)

    walk(source)
    chains.sort(key=lambda c: (-c.total_weight, c.nodes))
    return chains


def _build_chain(graph: TrustGraph, nodes: list[str], service: str) -> TrustChain:
    edges = []
    for src, dst in zip(nodes, nodes[1:]):
        stats = graph.edge(src, dst, service)
        edges.append(
            ChainEdge(src=src, dst=dst, weight=stats.weight, direct_trust=stats.direct_trust)
        )
    return TrustChain(tuple(edges))


def evaluate_recommendation(
    graph: TrustGraph,
    source: str,
    target: str,
    service: str,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
) -> Optional[tuple[float, int]]:
    """Aggregate every usable chain into one recommended trust value.

    Chains whose weights are all zero carry no information and are
    dropped.  Returns (trust, chain count) or None when nothing usable
    connects source to target.
    """
    chains = discover_chains(graph, source, target, service, max_len)
    usable = [chain for chain in chains if chain.total_weight > 0.0]
    if not usable:
        return None
    value = aggregate_recommendations(
        (chain_trust(chain), chain.total_weight) for chain in usable
    )
    return value, len(usable)


def resolve(
    graph: TrustGraph,
    source: str,
    target: str,
    service: str,
    max_len: int = DEFAULT_MAX_CHAIN_LEN,
) -> tuple[str, float]:
    """The resolution ladder: (path, trust degree) from the direct edge
    source -> target if there is one, else from the usable chains, else
    ignorance with degree 0."""
    _check_max_len(max_len)
    edge = graph.edge(source, target, service)
    if edge is not None:
        return PATH_DIRECT, edge.direct_trust
    outcome = evaluate_recommendation(graph, source, target, service, max_len)
    if outcome is not None:
        return PATH_RECOMMENDED, outcome[0]
    return PATH_IGNORANCE, 0.0

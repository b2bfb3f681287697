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
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FixtureError(f"graph fixture is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise FixtureError("graph fixture root must be a JSON object")
        graph = cls()
        nodes = document.get("nodes")
        if not isinstance(nodes, list):
            raise FixtureError("graph fixture needs a 'nodes' array")
        for node in nodes:
            if not isinstance(node, str):
                raise FixtureError(f"node ids must be strings, got {node!r}")
            graph.add_node(node)
        edges = document.get("edges")
        if not isinstance(edges, list):
            raise FixtureError("graph fixture needs an 'edges' array")
        for i, raw in enumerate(edges):
            where = f"edges[{i}]"
            if not isinstance(raw, dict):
                raise FixtureError(f"{where} must be an object")
            try:
                src = raw["from"]
                dst = raw["to"]
                service = raw["service"]
                if not (isinstance(src, str) and isinstance(dst, str) and isinstance(service, str)):
                    raise ValueError("from/to/service must be strings")
                for count_key in ("n_p", "n"):
                    if isinstance(raw[count_key], bool) or not isinstance(raw[count_key], int):
                        raise ValueError(f"{count_key} must be an integer")
                for unit_key in ("sl", "dt"):
                    if isinstance(raw[unit_key], bool) or not isinstance(raw[unit_key], (int, float)):
                        raise ValueError(f"{unit_key} must be a number")
                stats = EdgeStats(
                    n_positive=raw["n_p"],
                    n_total=raw["n"],
                    sl=float(raw["sl"]),
                    direct_trust=float(raw["dt"]),
                )
                graph.add_edge(src, dst, service, stats)
            except KeyError as exc:
                raise FixtureError(f"{where} is missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise FixtureError(f"{where} failed validation: {exc}") from exc
        return graph


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
    if not (MIN_CHAIN_LEN <= max_len <= MAX_CHAIN_LEN):
        raise ValueError(
            f"max_len must be within [{MIN_CHAIN_LEN}, {MAX_CHAIN_LEN}], got {max_len!r}"
        )
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
    edge = graph.edge(source, target, service)
    if edge is not None:
        return PATH_DIRECT, edge.direct_trust
    outcome = evaluate_recommendation(graph, source, target, service, max_len)
    if outcome is not None:
        return PATH_RECOMMENDED, outcome[0]
    return PATH_IGNORANCE, 0.0

"""Chain discovery and recommendation evaluation over trust graphs."""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudtrust.calculus import (
    ChainEdge,
    TrustChain,
    aggregate_recommendations,
    chain_trust,
    edge_weight,
    resolve_trust_degree,
)
from cloudtrust.graph import (
    PATH_DIRECT,
    PATH_IGNORANCE,
    PATH_RECOMMENDED,
    EdgeStats,
    FixtureError,
    TrustGraph,
    discover_chains,
    evaluate_recommendation,
    resolve,
)

from test_tables import awkward_ids, awkward_units

SERVICE = "files"


def stats(n_p=1, n=1, sl=1.0, dt=0.5):
    return EdgeStats(n_positive=n_p, n_total=n, sl=sl, direct_trust=dt)


def graph_of(*edges):
    graph = TrustGraph()
    for src, dst, *rest in edges:
        graph.add_edge(src, dst, SERVICE, rest[0] if rest else stats())
    return graph


def enumerate_paths_brute_force(edge_set, source, target, max_len):
    """Independent oracle: try every permutation of intermediate nodes."""
    nodes = set()
    for src, dst in edge_set:
        nodes.add(src)
        nodes.add(dst)
    others = sorted(nodes - {source, target})
    found = set()
    for size in range(1, max_len):  # path of k+1 edges has k intermediates
        for middle in itertools.permutations(others, size):
            path = (source,) + middle + (target,)
            if all((a, b) in edge_set for a, b in zip(path, path[1:])):
                found.add(path)
    return found


# ---------------------------------------------------------------------------
# discovery basics


def test_two_hop_chain_found():
    graph = graph_of(("p", "q"), ("q", "r"))
    chains = discover_chains(graph, "p", "r", SERVICE, max_len=4)
    assert [c.nodes for c in chains] == [("p", "q", "r")]
    assert len(chains[0].edges) == 2


def test_combined_four_hop_chain_found():
    graph = graph_of(("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"))
    chains = discover_chains(graph, "p", "t", SERVICE, max_len=4)
    assert [c.nodes for c in chains] == [("p", "q", "r", "s", "t")]
    assert len(chains[0].edges) == 4
    # the halves are themselves two-hop chains
    assert [c.nodes for c in discover_chains(graph, "p", "r", SERVICE)] == [("p", "q", "r")]
    assert [c.nodes for c in discover_chains(graph, "r", "t", SERVICE)] == [("r", "s", "t")]


def test_no_path_yields_empty_list():
    graph = graph_of(("p", "q"), ("r", "s"))
    assert discover_chains(graph, "p", "s", SERVICE) == []


def test_direct_edge_alone_is_not_a_chain():
    graph = graph_of(("p", "q"))
    assert discover_chains(graph, "p", "q", SERVICE) == []


def test_max_len_caps_discovery():
    graph = graph_of(("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"))
    assert discover_chains(graph, "p", "t", SERVICE, max_len=3) == []


def test_source_equals_target_rejected():
    graph = graph_of(("p", "q"))
    with pytest.raises(ValueError):
        discover_chains(graph, "p", "p", SERVICE)


def test_max_len_bounds_enforced():
    graph = graph_of(("p", "q"))
    with pytest.raises(ValueError):
        discover_chains(graph, "p", "q", SERVICE, max_len=1)
    with pytest.raises(ValueError):
        discover_chains(graph, "p", "q", SERVICE, max_len=9)


def test_edges_are_service_scoped():
    graph = TrustGraph()
    graph.add_edge("p", "q", "files", stats())
    graph.add_edge("q", "r", "mail", stats())
    assert discover_chains(graph, "p", "r", "files") == []


def test_chains_never_revisit_nodes_and_order_is_deterministic():
    graph = graph_of(
        ("p", "q", stats(n_p=9, n=10, sl=1.0, dt=0.9)),
        ("q", "r", stats(n_p=10, n=10, sl=1.0, dt=0.8)),
        ("p", "x", stats(n_p=1, n=10, sl=0.5, dt=0.3)),
        ("x", "r", stats(n_p=1, n=10, sl=0.5, dt=0.2)),
        ("q", "x", stats()),
        ("x", "q", stats()),
    )
    chains = discover_chains(graph, "p", "r", SERVICE, max_len=4)
    for chain in chains:
        assert len(set(chain.nodes)) == len(chain.nodes)
    weights = [c.total_weight for c in chains]
    assert weights == sorted(weights, reverse=True)
    again = discover_chains(graph, "p", "r", SERVICE, max_len=4)
    assert [c.nodes for c in again] == [c.nodes for c in chains]


def test_raising_max_len_only_adds_chains():
    rng = random.Random(7)
    for _ in range(30):
        edge_set = random_edge_set(rng, n_nodes=6, p=0.4)
        graph = graph_of(*[(a, b) for a, b in edge_set])
        previous: set = set()
        for max_len in range(2, 7):
            nodes = {c.nodes for c in discover_chains(graph, "n0", "n1", SERVICE, max_len)}
            assert previous <= nodes
            previous = nodes


# ---------------------------------------------------------------------------
# discovery vs brute force


def random_edge_set(rng, n_nodes, p):
    names = [f"n{i}" for i in range(n_nodes)]
    return {
        (a, b)
        for a in names
        for b in names
        if a != b and rng.random() < p
    }


def test_discovery_matches_brute_force_enumeration():
    rng = random.Random(31337)
    for _ in range(60):
        n_nodes = rng.randint(2, 8)
        edge_set = random_edge_set(rng, n_nodes, rng.uniform(0.15, 0.5))
        graph = graph_of(*[(a, b) for a, b in edge_set])
        graph.add_node("n0")
        graph.add_node("n1")
        max_len = rng.randint(2, 6)
        got = {c.nodes for c in discover_chains(graph, "n0", "n1", SERVICE, max_len)}
        want = enumerate_paths_brute_force(edge_set, "n0", "n1", max_len)
        assert got == want


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_two_edge_example():
    graph = TrustGraph()
    graph.add_edge("p", "q", SERVICE, stats(n_p=1, n=2, sl=1.0, dt=0.8))  # W = 0.5
    graph.add_edge("q", "r", SERVICE, stats(n_p=1, n=1, sl=1.0, dt=0.6))  # W = 1.0
    outcome = evaluate_recommendation(graph, "p", "r", SERVICE)
    assert outcome is not None
    value, count = outcome
    assert count == 1
    assert value == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_evaluate_none_without_chains():
    graph = graph_of(("p", "q"))
    assert evaluate_recommendation(graph, "p", "r", SERVICE) is None


def test_evaluate_agreeing_chains_preserve_value():
    graph = graph_of(
        ("p", "q", stats(dt=0.7)),
        ("q", "r", stats(dt=0.7)),
        ("p", "x", stats(dt=0.7)),
        ("x", "r", stats(dt=0.7)),
    )
    outcome = evaluate_recommendation(graph, "p", "r", SERVICE)
    assert outcome == (pytest.approx(0.7), 2)


def test_evaluate_drops_zero_weight_chains():
    graph = graph_of(
        ("p", "q", stats(n_p=0, n=5, dt=0.9)),  # zero weight: no information
        ("q", "r", stats(n_p=0, n=5, dt=0.9)),
        ("p", "x", stats(n_p=5, n=5, sl=0.8, dt=0.4)),
        ("x", "r", stats(n_p=5, n=5, sl=0.8, dt=0.6)),
    )
    outcome = evaluate_recommendation(graph, "p", "r", SERVICE)
    value, count = outcome
    assert count == 1
    assert value == pytest.approx(0.5, rel=1e-12)


def test_evaluate_none_when_all_chains_are_zero_weight():
    graph = graph_of(
        ("p", "q", stats(n_p=0, n=5)),
        ("q", "r", stats(n_p=0, n=5)),
    )
    assert evaluate_recommendation(graph, "p", "r", SERVICE) is None


def test_evaluate_weighs_chains_by_total_evidence():
    graph = graph_of(
        ("p", "q", stats(n_p=10, n=10, sl=1.0, dt=0.9)),  # heavy chain, W sum 2.0
        ("q", "r", stats(n_p=10, n=10, sl=1.0, dt=0.9)),
        ("p", "x", stats(n_p=1, n=10, sl=1.0, dt=0.1)),  # light chain, W sum 0.2
        ("x", "r", stats(n_p=1, n=10, sl=1.0, dt=0.1)),
    )
    value, count = evaluate_recommendation(graph, "p", "r", SERVICE)
    assert count == 2
    # weighted mean of chain values 0.9 (weight 2.0) and 0.1 (weight 0.2)
    assert value == pytest.approx((0.9 * 2.0 + 0.1 * 0.2) / 2.2, rel=1e-12)


UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def edge_stats(draw):
    """Edge evidence, zero weight (no positives or sl 0) included."""
    n = draw(st.integers(min_value=1, max_value=5))
    n_p = draw(st.integers(min_value=0, max_value=n))
    sl = draw(st.sampled_from([0.0, 1.0]) | UNIT)
    return stats(n_p=n_p, n=n, sl=sl, dt=draw(UNIT))


@st.composite
def random_graphs(draw):
    names = [f"n{i}" for i in range(draw(st.integers(min_value=2, max_value=8)))]
    pairs = [(a, b) for a in names for b in names if a != b]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = TrustGraph()
    for name in names:
        graph.add_node(name)
    for (a, b), keep in zip(pairs, present):
        if keep:
            graph.add_edge(a, b, SERVICE, draw(edge_stats()))
    return graph


@settings(max_examples=200, deadline=None)
@given(graph=random_graphs(), max_len=st.integers(min_value=2, max_value=5))
def test_evaluate_is_bit_equal_to_summing_discovered_chains(graph, max_len):
    chains = discover_chains(graph, "n0", "n1", SERVICE, max_len)
    usable = [chain for chain in chains if chain.total_weight > 0.0]
    outcome = evaluate_recommendation(graph, "n0", "n1", SERVICE, max_len)
    if not usable:
        assert outcome is None
        return
    expected = aggregate_recommendations((chain_trust(c), c.total_weight) for c in usable)
    assert outcome == (expected, len(usable))


class CountingGraph:
    """A graph that records each node the search asks for out-edges."""

    def __init__(self, graph):
        self.graph = graph
        self.asked = []

    def weight(self, src, dst, service):
        return self.graph.weight(src, dst, service)

    def direct(self, src, dst, service):
        return self.graph.direct(src, dst, service)

    def out_edges(self, src, service):
        self.asked.append(src)
        return self.graph.out_edges(src, service)


def path_ends_brute_force(edge_set, source, target, max_hops):
    """The end of every simple path from source, avoiding target, of
    0..max_hops edges."""
    nodes = {node for pair in edge_set for node in pair} - {source, target}
    ends = Counter()
    for size in range(max_hops + 1):
        for middle in itertools.permutations(sorted(nodes), size):
            path = (source,) + middle
            if all((a, b) in edge_set for a, b in zip(path, path[1:])):
                ends[path[-1]] += 1
    return ends


@settings(max_examples=150, deadline=None)
@given(graph=random_graphs(), max_len=st.integers(min_value=2, max_value=6))
def test_search_takes_the_last_hop_by_edge_lookup(graph, max_len):
    edge_set = {(src, dst) for src, dst, _, _ in graph.edges()}
    counting = CountingGraph(graph)
    outcome = evaluate_recommendation(counting, "n0", "n1", SERVICE, max_len)
    # out-edges are asked for once per simple path of at most max_len - 2
    # edges, never for a node at hop max_len - 1
    assert Counter(counting.asked) == path_ends_brute_force(edge_set, "n0", "n1", max_len - 2)
    edges = {(src, dst): stats for src, dst, _, stats in graph.edges()}
    usable = []
    for path in enumerate_paths_brute_force(edge_set, "n0", "n1", max_len):
        hops = [(a, b, edges[a, b]) for a, b in zip(path, path[1:])]
        chain = TrustChain(tuple(ChainEdge(a, b, e.weight, e.direct_trust) for a, b, e in hops))
        if chain.total_weight > 0.0:
            usable.append((chain_trust(chain), chain.total_weight))
    if not usable:
        assert outcome is None
    else:
        assert outcome == (aggregate_recommendations(usable), len(usable))


def test_edge_weight_feeds_chain_edges():
    graph = TrustGraph()
    graph.add_edge("p", "q", SERVICE, stats(n_p=3, n=4, sl=0.5, dt=0.8))
    graph.add_edge("q", "r", SERVICE, stats(n_p=2, n=2, sl=0.9, dt=0.6))
    (chain,) = discover_chains(graph, "p", "r", SERVICE)
    assert chain.edges[0].weight == edge_weight(3, 4, 0.5)
    assert chain.edges[1].weight == edge_weight(2, 2, 0.9)
    assert chain_trust(chain) == pytest.approx(
        (edge_weight(3, 4, 0.5) * 0.8 + edge_weight(2, 2, 0.9) * 0.6)
        / (edge_weight(3, 4, 0.5) + edge_weight(2, 2, 0.9)),
        rel=1e-12,
    )


def test_searches_compute_no_edge_weight(monkeypatch):
    calls = []

    def counting_edge_weight(*args):
        calls.append(args)
        return edge_weight(*args)

    monkeypatch.setattr("cloudtrust.graph.edge_weight", counting_edge_weight)
    names = [f"n{i}" for i in range(5)]
    # the complete digraph on five nodes, less the edges the queries ask
    # about, so that a search answers each of them
    asked = [("n0", "n4"), ("n1", "n4"), ("n2", "n4")]
    graph = graph_of(*((a, b) for a in names for b in names if a != b and (a, b) not in asked))
    assert len(calls) == len(list(graph.edges())) == 17
    for source, target in asked:
        assert resolve(graph, source, target, SERVICE, 4)[0] == PATH_RECOMMENDED
    assert len(calls) == 17


# ---------------------------------------------------------------------------
# the resolution ladder


def ladder_graph():
    """p trusts q directly; p reaches r only over q; nothing reaches s."""
    return graph_of(
        ("p", "q", stats(n_p=1, n=2, sl=1.0, dt=0.8)),
        ("q", "r", stats(n_p=1, n=1, sl=1.0, dt=0.6)),
        ("s", "p"),
    )


def test_resolve_takes_each_rung():
    graph = ladder_graph()
    assert resolve(graph, "p", "q", SERVICE) == (PATH_DIRECT, 0.8)
    assert resolve(graph, "p", "r", SERVICE) == (
        PATH_RECOMMENDED, evaluate_recommendation(graph, "p", "r", SERVICE)[0]
    )
    assert resolve(graph, "p", "s", SERVICE) == (PATH_IGNORANCE, 0.0)


def test_resolve_never_searches_past_a_direct_edge(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched despite a direct edge")

    graph = graph_of(("p", "q", stats(dt=0.3)), ("p", "x"), ("x", "q"))
    monkeypatch.setattr("cloudtrust.graph.evaluate_recommendation", refuse)
    assert resolve(graph, "p", "q", SERVICE) == (PATH_DIRECT, 0.3)
    # a miss does reach the patched search
    with pytest.raises(AssertionError, match="searched"):
        resolve(graph, "q", "p", SERVICE)


@pytest.mark.parametrize("max_len", [1, 9])
def test_resolve_refuses_a_chain_window_even_with_a_direct_edge(max_len):
    with pytest.raises(ValueError, match=rf"max_len must be within \[2, 8\], got {max_len}"):
        resolve(ladder_graph(), "p", "q", SERVICE, max_len)


@settings(max_examples=150, deadline=None)
@given(graph=random_graphs(), max_len=st.integers(min_value=2, max_value=5))
def test_resolve_agrees_with_resolve_trust_degree(graph, max_len):
    direct = graph.direct("n0", "n1", SERVICE)
    outcome = evaluate_recommendation(graph, "n0", "n1", SERVICE, max_len)
    recommended, n_recommended = (None, 0) if outcome is None else outcome
    expected = resolve_trust_degree(int(direct is not None), n_recommended, direct, recommended)
    assert resolve(graph, "n0", "n1", SERVICE, max_len)[1] == expected


# ---------------------------------------------------------------------------
# graph structure and fixtures


def test_graph_rejects_self_edges():
    graph = TrustGraph()
    with pytest.raises(ValueError):
        graph.add_edge("p", "p", SERVICE, stats())


def test_edge_stats_validation():
    with pytest.raises(ValueError):
        EdgeStats(n_positive=1, n_total=0, sl=1.0, direct_trust=0.5)
    with pytest.raises(ValueError):
        EdgeStats(n_positive=3, n_total=2, sl=1.0, direct_trust=0.5)
    with pytest.raises(ValueError):
        EdgeStats(n_positive=1, n_total=2, sl=1.5, direct_trust=0.5)
    # a bool is not a count or a degree: documents would write it as `true`
    with pytest.raises(ValueError):
        EdgeStats(n_positive=True, n_total=1, sl=1.0, direct_trust=0.5)
    with pytest.raises(ValueError):
        EdgeStats(n_positive=1, n_total=True, sl=1.0, direct_trust=0.5)
    with pytest.raises(ValueError):
        EdgeStats(n_positive=1.0, n_total=2, sl=1.0, direct_trust=0.5)
    with pytest.raises(ValueError):
        EdgeStats(n_positive=1, n_total=1, sl=True, direct_trust=0.5)
    with pytest.raises(ValueError):
        EdgeStats(n_positive=1, n_total=1, sl=1.0, direct_trust=False)


@given(edge=edge_stats())
def test_edge_stats_stores_its_weight_and_writes_nothing_more(edge):
    assert edge.weight == edge_weight(edge.n_positive, edge.n_total, edge.sl)
    assert "weight" not in repr(edge)
    assert "weight" not in graph_of(("p", "q", edge)).to_json()
    # slots: the stored weight costs no per-instance dict
    assert not hasattr(edge, "__dict__")
    # an edge built from a table's checked values and weight is the same record
    held = EdgeStats._recorded(
        edge.n_positive, edge.n_total, edge.sl, edge.direct_trust, edge.weight
    )
    assert held == edge and held.weight == edge.weight and repr(held) == repr(edge)
    assert not hasattr(held, "__dict__")


def test_fixture_round_trip():
    graph = graph_of(
        ("p", "q", stats(n_p=3, n=4, sl=0.5, dt=0.8)),
        ("q", "r", stats(n_p=2, n=2, sl=0.9, dt=0.6)),
    )
    graph.add_node("lonely")
    restored = TrustGraph.from_json(graph.to_json())
    assert restored.nodes == graph.nodes
    assert list(restored.edges()) == list(graph.edges())


def test_fixture_format_field_names():
    import json

    document = json.loads(graph_of(("p", "q")).to_json())
    assert set(document) == {"nodes", "edges"}
    assert set(document["edges"][0]) == {"from", "to", "service", "n_p", "n", "sl", "dt"}


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"nodes": "oops", "edges": []}',
        '{"nodes": [], "edges": [{"from": "a"}]}',
        '{"nodes": [], "edges": [{"from": "a", "to": "b", "service": "s", "n_p": 1, "n": 0, "sl": 1, "dt": 1}]}',
        '{"nodes": [], "edges": [{"from": "a", "to": "b", "service": "s", "n_p": 1.5, "n": 2, "sl": 1, "dt": 1}]}',
        pytest.param(
            '{"nodes": [], "edges": [{"from": "a", "to": "b", "service": "s", "n_p": 1, "n": 1, '
            '"sl": 1, "dt": 1' + "0" * 400 + "}]}",
            id="integer-too-large-for-a-float",
        ),
        pytest.param(
            '{"nodes": [], "edges": [], "n": 1' + "0" * 5000 + "}", id="integer-too-long-to-parse"
        ),
    ],
)
def test_malformed_fixtures_rejected(text):
    with pytest.raises(FixtureError):
        TrustGraph.from_json(text)


# the fixture writer against the json module


def fixture_document(graph):
    """The graph document as a dict, for `json.dumps(..., indent=2)`."""
    return {
        "nodes": sorted(graph.nodes),
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
            for src, dst, service, stats in graph.edges()
        ],
    }


@st.composite
def awkward_graphs(draw):
    graph = TrustGraph()
    for node in draw(st.lists(awkward_ids, max_size=3)):
        graph.add_node(node)
    for _ in range(draw(st.integers(0, 4))):
        src, dst = draw(awkward_ids), draw(awkward_ids)
        if src != dst:
            n = draw(st.integers(1, 10**6))
            edge = EdgeStats(draw(st.integers(0, n)), n, draw(awkward_units), draw(awkward_units))
            graph.add_edge(src, dst, draw(awkward_ids), edge)
    return graph


@given(awkward_graphs())
@settings(max_examples=200)
def test_fixture_text_is_json_dumps_byte_for_byte(graph):
    assert graph.to_json() == json.dumps(fixture_document(graph), indent=2) + "\n"

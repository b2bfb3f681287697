"""Span tracing of cloudtrust from outside the package.

`Tracer.install` replaces selected functions and methods of the freshly
imported `cloudtrust` modules with wrappers that record one span per
call: name, start, end, the span that was open when the call began, and
the benchmark phase (the `run` call or the query replay).  Spans stay in
memory until `write` dumps them; `layer_metrics` folds them into the
per-layer metrics.

A function is wrapped at every name it is reached through, because the
modules import each other's functions by name (`tables` calls its own
`direct_trust`, `simulation` its own `snapshot_graph`, and so on).  A
target that no longer exists is reported as absent and its metrics read
0, so the benchmark survives refactors that remove it.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

RUN, QUERY = 0, 1

# (span name, module, attribute); "Class.method" wraps on the class.
TARGETS = [
    ("cli.main", "cloudtrust.cli", "main"),
    ("cli.cmd_run", "cloudtrust.cli", "cmd_run"),
    ("cli.cmd_trust", "cloudtrust.cli", "cmd_trust"),
    ("cli.cmd_inspect", "cloudtrust.cli", "cmd_inspect"),
    ("simulation.run", "cloudtrust.simulation", "run"),
    ("simulation.snapshot_graph", "cloudtrust.simulation", "snapshot_graph"),
    ("simulation.sample_sla", "cloudtrust.simulation", "sample_sla"),
    ("graph.evaluate_recommendation", "cloudtrust.graph", "evaluate_recommendation"),
    ("graph.discover_chains", "cloudtrust.graph", "discover_chains"),
    ("graph.TrustGraph.to_json", "cloudtrust.graph", "TrustGraph.to_json"),
    ("graph.TrustGraph.from_json", "cloudtrust.graph", "TrustGraph.from_json"),
    ("tables.DirectTrustTable.lookup_direct", "cloudtrust.tables", "DirectTrustTable.lookup_direct"),
    ("tables.DirectTrustTable.counts", "cloudtrust.tables", "DirectTrustTable.counts"),
    ("tables.DirectTrustTable.record_interaction", "cloudtrust.tables", "DirectTrustTable.record_interaction"),
    ("tables.EntityStore.to_json", "cloudtrust.tables", "EntityStore.to_json"),
    ("tables.EntityStore.from_json", "cloudtrust.tables", "EntityStore.from_json"),
    ("calculus.direct_trust", "cloudtrust.calculus", "direct_trust"),
    ("calculus.satisfaction_level", "cloudtrust.calculus", "satisfaction_level"),
    ("calculus.chain_trust", "cloudtrust.calculus", "chain_trust"),
    ("calculus.aggregate_recommendations", "cloudtrust.calculus", "aggregate_recommendations"),
]


def _count_chains(tracer, args, kwargs, result):
    tracer.count("graph.chains_found", len(result))


def _count_useful(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("graph.recommend_useful", 1)


def _count_history(tracer, args, kwargs, result):
    history = args[0] if args else kwargs["history"]
    tracer.count("calculus.history_records", len(history))


def _count_edges(tracer, args, kwargs, result):
    tracer.count("simulation.snapshot_edges", sum(1 for _ in result.edges()))


# Counts taken at the same boundaries as the spans, from the call's
# arguments or result, after the span has closed.
COUNTERS = {
    "graph.discover_chains": _count_chains,
    "graph.evaluate_recommendation": _count_useful,
    "calculus.direct_trust": _count_history,
    "simulation.snapshot_graph": _count_edges,
}


class Tracer:
    """Spans as parallel arrays: arrays hold no Python objects, so the
    garbage collector never walks them."""

    def __init__(self) -> None:
        self.span_names = [name for name, _, _ in TARGETS]
        self.names = array("H")  # index into span_names
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.phases = array("b")
        self.current = -1
        self.phase = RUN
        self.counters: dict[tuple[str, int], int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        key = (name, self.phase)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn):
        names, starts, ends, parents, phases = (
            self.names, self.starts, self.ends, self.parents, self.phases
        )
        name_id = self.span_names.index(name)
        on_result = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            index = len(names)
            names.append(name_id)
            parents.append(parent)
            phases.append(tracer.phase)
            ends.append(0.0)
            tracer.current = index
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                tracer.current = parent
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in the `cloudtrust` modules now imported."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "cloudtrust" or key.startswith("cloudtrust.")
        ]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(method)
            if raw is None:
                self.absent.append(name)
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    self._replace(owner, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._replace(owner, method, self._wrap(name, raw))
                continue
            wrapper = self._wrap(name, raw)
            for each in modules:
                for key, value in list(vars(each).items()):
                    if value is raw:
                        self._replace(each, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Dump every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tphase\tparent\tstart_s\tend_s\n")
            for i, name_id in enumerate(self.names):
                handle.write(
                    f"{i}\t{self.span_names[name_id]}\t{self.phases[i]}\t{self.parents[i]}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )


class SpanStats:
    """Per (name, phase): call count, total time and self time, where
    self time is a span's duration minus the time its child spans cover."""

    def __init__(self, tracer: Tracer) -> None:
        names = [tracer.span_names[i] for i in tracer.names]
        phases, parents = tracer.phases, tracer.parents
        durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
        child_time = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        self.calls: dict[tuple[str, int], int] = {}
        self.total: dict[tuple[str, int], float] = {}
        self.self: dict[tuple[str, int], float] = {}
        # (name, parent name, phase) -> [calls, total time]
        self.by_parent: dict[tuple[str, str, int], list] = {}
        # (name, phase) -> (start of the first span, end of the last span)
        self.extent: dict[tuple[str, int], tuple[float, float]] = {}
        for i, name in enumerate(names):
            key = (name, phases[i])
            self.calls[key] = self.calls.get(key, 0) + 1
            self.total[key] = self.total.get(key, 0.0) + durations[i]
            self.self[key] = self.self.get(key, 0.0) + durations[i] - child_time[i]
            parent_name = names[parents[i]] if parents[i] >= 0 else ""
            edge = self.by_parent.setdefault((name, parent_name, phases[i]), [0, 0.0])
            edge[0] += 1
            edge[1] += durations[i]
            first, _ = self.extent.get(key, (tracer.starts[i], 0.0))
            self.extent[key] = (first, tracer.ends[i])

    def span(self, name: str, phase: int = RUN) -> tuple[float, float]:
        """(start of the first span, end of the last span) with this name."""
        return self.extent.get((name, phase), (0.0, 0.0))

    def under(self, name: str, parents: tuple[str, ...], phase: int = RUN) -> tuple[int, float]:
        """(calls, total time) of `name` spans whose parent is one of `parents`."""
        calls, total = 0, 0.0
        for parent in parents:
            edge = self.by_parent.get((name, parent, phase))
            if edge:
                calls += edge[0]
                total += edge[1]
        return calls, total


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "graph.chains_per_call":
        return "chains/call"
    if metric == "cli.bytes_written":
        return "B"
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, requests: dict[tuple[str, str], int]) -> dict[str, float]:
    """Fold the spans of one traced pass into the per-layer metrics.

    Layer metrics cover the `cloudtrust run` call; the `*_query_s` and
    `*.from_json_s` metrics cover the query replay that follows it.
    `requests` holds the run's (path, decision) counts from its trace.
    """
    stats = SpanStats(tracer)
    calls = lambda name, phase=RUN: stats.calls.get((name, phase), 0)  # noqa: E731
    total = lambda name, phase=RUN: stats.total.get((name, phase), 0.0)  # noqa: E731
    own = lambda name, phase=RUN: stats.self.get((name, phase), 0.0)  # noqa: E731
    counter = lambda name: tracer.counters.get((name, RUN), 0)  # noqa: E731

    recommend_calls = calls("graph.evaluate_recommendation")
    chains_found = counter("graph.chains_found")
    graph_parents = ("graph.evaluate_recommendation", "graph.discover_chains")
    _, chain_s = stats.under("calculus.chain_trust", graph_parents)
    _, aggregate_s = stats.under("calculus.aggregate_recommendations", graph_parents)
    lookups = calls("tables.DirectTrustTable.lookup_direct")
    recomputed, _ = stats.under("calculus.direct_trust", ("tables.DirectTrustTable.lookup_direct",))
    main_start, _ = stats.span("cli.main")
    run_start, run_end = stats.span("simulation.run")
    _, cmd_end = stats.span("cli.cmd_run")
    n_requests = sum(requests.values())
    granted = sum(n for (_, decision), n in requests.items() if decision == "granted")

    metrics = {
        "graph.discover_chains_s": total("graph.discover_chains"),
        "graph.evaluate_recommendation_s": own("graph.evaluate_recommendation"),
        "graph.evaluate_recommendation_calls": recommend_calls,
        "graph.chains_found": chains_found,
        "graph.chains_per_call": _ratio(chains_found, calls("graph.discover_chains")),
        "graph.recommend_useful_ratio": _ratio(counter("graph.recommend_useful"), recommend_calls),
        "graph.chain_eval_s": chain_s + aggregate_s,
        "graph.to_json_s": total("graph.TrustGraph.to_json"),
        "graph.from_json_s": total("graph.TrustGraph.from_json", QUERY),
        "simulation.snapshot_graph_s": own("simulation.snapshot_graph"),
        "simulation.snapshot_graph_calls": calls("simulation.snapshot_graph"),
        "simulation.snapshot_edges": counter("simulation.snapshot_edges"),
        "simulation.sample_sla_s": total("simulation.sample_sla"),
        "simulation.self_s": own("simulation.run"),
        "simulation.grant_ratio": _ratio(granted, n_requests),
        "tables.lookup_direct_s": own("tables.DirectTrustTable.lookup_direct"),
        "tables.lookup_direct_calls": lookups,
        "tables.cache_hit_ratio": 1.0 - _ratio(recomputed, lookups) if lookups else 0.0,
        "tables.record_interaction_s": total("tables.DirectTrustTable.record_interaction"),
        "tables.record_interaction_calls": calls("tables.DirectTrustTable.record_interaction"),
        "tables.counts_s": total("tables.DirectTrustTable.counts"),
        "tables.store_to_json_s": total("tables.EntityStore.to_json"),
        "tables.store_from_json_s": total("tables.EntityStore.from_json", QUERY),
        "calculus.direct_trust_s": total("calculus.direct_trust"),
        "calculus.direct_trust_calls": calls("calculus.direct_trust"),
        "calculus.history_records": counter("calculus.history_records"),
        "calculus.satisfaction_level_s": total("calculus.satisfaction_level"),
        "calculus.chain_trust_calls": calls("calculus.chain_trust"),
        "cli.parse_s": run_start - main_start if run_start else 0.0,
        "cli.output_s": cmd_end - run_end if run_end else 0.0,
        "cli.trust_query_s": total("cli.cmd_trust", QUERY),
        "cli.inspect_query_s": total("cli.cmd_inspect", QUERY),
    }
    for path in ("direct", "recommended", "ignorance"):
        for decision in ("granted", "denied"):
            metrics[f"simulation.requests.{path}.{decision}"] = requests.get((path, decision), 0)
    return metrics

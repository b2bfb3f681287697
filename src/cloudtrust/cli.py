"""Operator command line: run scenarios, query trust over graph
fixtures, enumerate chains, classify degrees, and inspect snapshots.

Exit codes: 0 success, 1 bad input (config, fixture, arguments),
2 I/O failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .calculus import DecayParams, chain_trust, classify_level
from .graph import DEFAULT_MAX_CHAIN_LEN, FixtureError, TrustGraph, discover_chains, resolve
from .simulation import ScenarioConfig, run
from .tables import EntityStore

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_IO = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudtrust",
        description="Trust-management engine and deterministic network simulator.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write trace + snapshots")
    p_run.add_argument("config", help="scenario config (JSON)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--tau", type=float, help="override the decay time scale")
    p_run.add_argument("--k", type=int, help="override the decay exponent")
    p_run.add_argument("--max-len", type=int, help="override the chain length cap")
    p_run.add_argument(
        "--snapshots",
        action="store_true",
        help="emit a full graph snapshot per request for replay",
    )
    p_run.set_defaults(func=cmd_run)

    p_trust = sub.add_parser("trust", help="resolve one trust degree over a graph fixture")
    p_trust.add_argument("fixture", help="graph fixture (JSON)")
    p_trust.add_argument("source")
    p_trust.add_argument("target")
    p_trust.add_argument("service")
    p_trust.add_argument("--max-len", type=int, default=DEFAULT_MAX_CHAIN_LEN)
    p_trust.set_defaults(func=cmd_trust)

    p_chains = sub.add_parser("chains", help="list trust chains in a graph fixture")
    p_chains.add_argument("fixture", help="graph fixture (JSON)")
    p_chains.add_argument("source")
    p_chains.add_argument("target")
    p_chains.add_argument("service")
    p_chains.add_argument("--max-len", type=int, default=DEFAULT_MAX_CHAIN_LEN)
    p_chains.set_defaults(func=cmd_chains)

    p_classify = sub.add_parser("classify", help="map a trust degree to its level")
    p_classify.add_argument("td", type=float)
    p_classify.set_defaults(func=cmd_classify)

    p_inspect = sub.add_parser("inspect", help="summarize an entity snapshot")
    p_inspect.add_argument("snapshot", help="entity snapshot (JSON)")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def cmd_run(args: argparse.Namespace) -> int:
    config = ScenarioConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.tau is not None or args.k is not None:
        config.decay = DecayParams(
            k=args.k if args.k is not None else config.decay.k,
            tau=args.tau if args.tau is not None else config.decay.tau,
        )
    if args.max_len is not None:
        config.max_chain_length = args.max_len
    if args.snapshots:
        config.graph_snapshots = True
    out_dir = Path(args.out)
    n_graphs = 0

    def write_snapshot(key: tuple[int, int], graph: TrustGraph) -> None:
        # Each graph is written as its request is resolved, so the run
        # holds one at a time.  The directory is made on the first one:
        # `run` has validated the config by then.
        nonlocal n_graphs
        if not n_graphs:
            out_dir.mkdir(parents=True, exist_ok=True)
        tick, index = key
        (out_dir / f"graph_t{tick}_r{index}.json").write_text(graph.to_json(), encoding="utf-8")
        n_graphs += 1

    result = run(config, write_snapshot)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.csv").write_text(result.trace_csv(), encoding="utf-8")
    for entity_id, store in sorted(result.stores.items()):
        (out_dir / f"store_{entity_id}.json").write_text(store.to_json(), encoding="utf-8")
    print(
        f"wrote {len(result.trace)} trace records, {len(result.stores)} store snapshots"
        + (f", {n_graphs} graph snapshots" if n_graphs else "")
        + f" to {out_dir}"
    )
    return EXIT_OK


def _load_graph(path: str) -> TrustGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return TrustGraph.from_json(handle.read())


def _check_entities(graph: TrustGraph, *entities: str) -> None:
    for entity in entities:
        if entity not in graph:
            raise FixtureError(f"unknown entity {entity!r}")


def cmd_trust(args: argparse.Namespace) -> int:
    graph = _load_graph(args.fixture)
    _check_entities(graph, args.source, args.target)
    if args.source == args.target:
        raise FixtureError("source and target must differ; self-trust is implicit")
    path, td = resolve(graph, args.source, args.target, args.service, args.max_len)
    print(f"td={td:.4f} level={classify_level(td).roman} path={path}")
    return EXIT_OK


def cmd_chains(args: argparse.Namespace) -> int:
    graph = _load_graph(args.fixture)
    _check_entities(graph, args.source, args.target)
    for chain in discover_chains(graph, args.source, args.target, args.service, args.max_len):
        route = ">".join(chain.nodes)
        weight = chain.total_weight
        value = f"{chain_trust(chain):.4f}" if weight > 0.0 else "n/a"
        print(f"{route} w={weight:.4f} rt={value}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    level = classify_level(args.td)
    print(f"td={args.td:.4f} level={level.roman} ({level.label})")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    with open(args.snapshot, "r", encoding="utf-8") as handle:
        store = EntityStore.from_json(handle.read())
    direct_keys = store.direct.keys()
    recommended = list(store.recommended.entries())
    print(
        f"owner={store.owner} direct_entries={len(direct_keys)} "
        f"recommended_entries={len(recommended)}"
    )
    for trustee, service in direct_keys:
        entry = store.direct.entry(trustee, service)
        print(
            f"direct trustee={trustee} service={service} n={entry.n_total} "
            f"n_p={entry.n_positive} last_t={entry.last_time} "
            f"mean_score={entry.mean_score:.4f}"
        )
    for service, entry in recommended:
        td = "-" if entry.td is None else f"{entry.td:.4f}"
        print(
            f"recommended service={service} peer={entry.peer} td={td} "
            f"updated_at={entry.updated_at}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

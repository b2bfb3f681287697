"""End-to-end and per-layer benchmark of the cloudtrust simulator.

    python3 bench/run.py --workload dense20 --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, every metric

One workload runs in one process, single-threaded, as a closed loop of
one client.  The process generates the scenario from the seed, writes it
as JSON and runs it through `cloudtrust.cli.main(["run", ...])` exactly
as the command line does, again and again until `--seconds` have passed,
each time from a fresh import of the package.  After each call it
replays read-only queries on the call's output with `cloudtrust trust`
(replay10) or `cloudtrust inspect` (the others).

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the
workload once untraced and once with spans recorded around the
package's functions (see tracing.py), and reports the per-layer metrics.
Both modes check every output (see `check_trace`), check that repeated
runs give one trace digest, and re-run the workload's default seed to
compare its trace with the pinned digest.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Only the checkout is read and written: the package is imported from
`src/`, and outputs go to `.bench_work/`, removed at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path[:0] = [str(SRC), str(BENCH_DIR)]
import tracing  # noqa: E402
import workloads  # noqa: E402

# Query calls per run, at the least.
MIN_QUERIES = 1000
# `inspect` queries after each call: whole passes over the stores.
INSPECT_BATCH = 200
# Timed `run` calls per run, however long each takes.
MIN_CALLS = 3
# Set-up probes after each timed call.
PROBES_PER_CALL = 3

LEVEL_ORDER = ["I", "II", "III", "IV", "V"]
REQUIRED = {service["id"]: service["required_level"] for service in workloads.SERVICES}

END_TO_END_UNITS = {
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def fresh_cli():
    """Import `cloudtrust.cli` anew from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "cloudtrust" or m.startswith("cloudtrust.")]:
        del sys.modules[name]
    cli = importlib.import_module("cloudtrust.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"cloudtrust was imported from {cli.__file__}, not from {SRC}")
    return cli


class FirstRequest(BaseException):
    """Ends a set-up probe at its first request; a BaseException, so the
    command line's own error handling lets it through."""


def mark_first_request(marks: list, stop: bool = False) -> None:
    """One-shot hook: the first direct-table lookup is the first request
    being resolved, so everything before it is set-up.  The hook removes
    itself on that call, and with `stop` ends the run there."""
    table = sys.modules["cloudtrust.tables"].DirectTrustTable
    original = table.__dict__["lookup_direct"]

    def first_lookup(self, *args, **kwargs):
        marks.append(perf_counter())
        table.lookup_direct = original
        if stop:
            raise FirstRequest
        return original(self, *args, **kwargs)

    table.lookup_direct = first_lookup


# Calls made once per request (the access decision) or once per output
# file (a store or a graph snapshot serialised): stamping each one splits
# a `run` call into short stretches that every call repeats.
STAMPS = [
    ("cloudtrust.simulation", None, "gate_access"),
    ("cloudtrust.tables", "EntityStore", "to_json"),
    ("cloudtrust.graph", "TrustGraph", "to_json"),
]


def stamp(fn, marks: list):
    def stamped(*args, **kwargs):
        marks.append(perf_counter())
        return fn(*args, **kwargs)

    return stamped


def stamp_stretches(marks: list) -> None:
    """Stamp the time of every call to a STAMPS function.  A name that no
    longer exists is skipped, which leaves fewer, longer stretches."""
    for module_name, owner_name, name in STAMPS:
        owner = sys.modules.get(module_name)
        if owner is not None and owner_name:
            owner = vars(owner).get(owner_name)
        fn = None if owner is None else vars(owner).get(name)
        if fn is not None:
            setattr(owner, name, stamp(fn, marks))


def timed_run(config_path: Path, out_dir: Path, flags: list, tracer=None,
              stop: bool = False) -> tuple[int, float, float, list]:
    """Fresh import, then `cloudtrust run`: (exit code, wall time of the
    call, set-up time, stretches).  Set-up runs from the start of the
    import to the first request; with `stop` the run ends there.  The
    stretches split the call's wall time at each STAMPS call, and they
    add up to it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    start = perf_counter()
    cli = fresh_cli()
    import_s = perf_counter() - start
    if tracer is not None:
        tracer.install()
    marks: list = []
    mark_first_request(marks, stop)
    stamps: list = []
    stamp_stretches(stamps)
    argv = ["run", str(config_path), "--out", str(out_dir), *flags]
    with contextlib.redirect_stdout(io.StringIO()):
        begin = perf_counter()
        try:
            code = cli.main(argv)
        except FirstRequest:
            code = 0
        end = perf_counter()
    # no request at all: set-up is the whole call
    first = marks[0] if marks else end
    points = [begin, *stamps, end]
    stretches = [b - a for a, b in zip(points, points[1:])]
    return code, end - begin, import_s + first - begin, stretches


class Call:
    """One timed `cloudtrust run` call and what it wrote."""

    def __init__(self, config_path: Path, out_dir: Path, flags: list, tracer=None) -> None:
        code, self.wall_s, self.setup_s, self.stretches = timed_run(
            config_path, out_dir, flags, tracer)
        if code != 0:
            raise BenchError(f"cloudtrust run {config_path} exited with {code}")
        self.out_dir = out_dir
        trace_bytes = (out_dir / "trace.csv").read_bytes()
        self.sha256 = hashlib.sha256(trace_bytes).hexdigest()
        self.rows = list(csv.DictReader(io.StringIO(trace_bytes.decode("utf-8"))))
        self.requests = len(self.rows)
        self.counts: dict[tuple[str, str], int] = {}
        for row in self.rows:
            key = (row["path"], row["decision"])
            self.counts[key] = self.counts.get(key, 0) + 1


def _level(td: float) -> str:
    if td == 0.0:
        return "I"
    if td < 0.5:
        return "II"
    if td == 0.5:
        return "III"
    if td < 1.0:
        return "IV"
    return "V"


def check_trace(rows: list, scenario: dict) -> int:
    """Count trace rows that break the protocol, judged from the
    scenario alone: the schedule is followed, degrees lie in [0, 1] and
    match their level, access is granted iff the level meets the
    service's requirement, the direct path is taken iff the requester
    was granted that provider and service before, ignorance means 0."""
    schedule = scenario.get("schedule")
    expected = len(schedule) if schedule else scenario["random_schedule"]["ticks"]
    bad = abs(len(rows) - expected)
    known = set()
    for i, row in enumerate(rows):
        td = float(row["td"])
        wrong = not (0.0 <= td <= 1.0)
        if schedule and i < len(schedule):
            want = schedule[i]
            wrong |= (int(row["tick"]), row["requester"], row["service"], row["provider"]) != (
                want["tick"], want["requester"], want["service"], want["provider"]
            )
        # a printed degree within rounding of a level boundary may sit on
        # either side of it
        near_boundary = min(abs(td - b) for b in (0.0, 0.5, 1.0)) < 5e-5
        wrong |= not near_boundary and row["level"] != _level(td)
        granted = LEVEL_ORDER.index(row["level"]) >= LEVEL_ORDER.index(REQUIRED[row["service"]])
        wrong |= row["decision"] != ("granted" if granted else "denied")
        wrong |= (row["score"] != "") != granted
        if row["score"]:
            wrong |= not (0.0 <= float(row["score"]) <= 1.0)
        key = (row["requester"], row["provider"], row["service"])
        wrong |= (row["path"] == "direct") != (key in known)
        wrong |= row["path"] == "ignorance" and td != 0.0
        if granted:
            known.add(key)
        bad += wrong
    return bad


def replay_plan(call: Call, max_len: int) -> list:
    """`cloudtrust trust` on the snapshot of every trace row; the printed
    degree, level and path must equal the row's."""
    plan = []
    index_in_tick: dict[str, int] = {}
    for row in call.rows:
        index = index_in_tick.get(row["tick"], 0)
        index_in_tick[row["tick"]] = index + 1
        snapshot = call.out_dir / f"graph_t{row['tick']}_r{index}.json"
        argv = ["trust", str(snapshot), row["requester"], row["provider"], row["service"],
                "--max-len", str(max_len)]
        want = f"td={row['td']} level={row['level']} path={row['path']}\n"
        plan.append((argv, want.__eq__))
    return plan


def inspect_plan(call: Call) -> list:
    """`cloudtrust inspect` on each store snapshot of the run, in whole
    passes up to INSPECT_BATCH queries; the summary and the per-entry
    counts must match the snapshot document."""
    plan = []
    for path in sorted(call.out_dir.glob("store_*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        want = [
            f"owner={document['owner']} direct_entries={len(document['direct'])} "
            f"recommended_entries={len(document['recommended'])}"
        ] + [
            f"direct trustee={item['trustee']} service={item['service']} "
            f"n={len(item['history'])} "
            f"n_p={sum(1 for r in item['history'] if r['positive'])} "
            f"last_t={item['history'][-1]['t']}"
            for item in document["direct"]
        ]

        def check(out: str, want=want) -> bool:
            lines = out.splitlines()
            got = lines[:1] + [
                line.rsplit(" mean_score=", 1)[0] for line in lines if line.startswith("direct ")
            ]
            return got == want

        plan.append((["inspect", str(path)], check))
    return plan * math.ceil(INSPECT_BATCH / len(plan))


class Run:
    """Bookkeeping of one benchmark process: operations and failures."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.flags = workloads.RUN_FLAGS.get(name, [])
        self.attempted = 0
        self.failed = 0
        self.scenario, self.config_path = self.write_scenario(seed)
        self.first: Call | None = None
        self.plan: list = []

    def write_scenario(self, seed: int) -> tuple[dict, Path]:
        scenario = workloads.WORKLOADS[self.name](seed)
        path = self.work / f"{self.name}-seed{seed}.json"
        path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        return scenario, path

    def call(self, tracer=None) -> Call:
        """One checked `run` call at the run's seed."""
        call = Call(self.config_path, self.work / "out", self.flags, tracer)
        self.attempted += call.requests
        if self.first is None:
            self.first = call
            bad = check_trace(call.rows, self.scenario)
            self.failed += bad
            print(f"# {self.name} seed={self.seed} trace_sha256={call.sha256} "
                  f"requests={len(call.rows)} bad_rows={bad}")
            if self.name == "replay10":
                self.plan = replay_plan(call, self.scenario["max_chain_length"])
            else:
                self.plan = inspect_plan(call)
            # what the benchmark keeps is never garbage; keep the
            # collector's passes down to the program's own objects
            gc.collect()
            gc.freeze()
        elif call.sha256 != self.first.sha256 or call.counts != self.first.counts:
            print(f"# repeated run gave trace_sha256={call.sha256}")
            self.failed += len(call.rows)
        return call

    def queries(self) -> list:
        """One pass of checked queries on the last call's output; their
        latencies."""
        cli = sys.modules["cloudtrust.cli"]
        latencies = []
        for argv, check in self.plan:
            # each query starts from a collected heap, as a fresh
            # `cloudtrust` process would
            gc.collect()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crashing query is a failed operation
                    code = None
                latencies.append(perf_counter() - start)
            self.failed += code != 0 or not check(out.getvalue())
        self.attempted += len(latencies)
        return latencies

    def gate(self) -> None:
        """Compare the trace at the default seed with the pinned digest."""
        pinned = workloads.PINNED_TRACE_SHA256[self.name]
        if self.seed == workloads.DEFAULT_SEED:
            call = self.first
        else:
            _, path = self.write_scenario(workloads.DEFAULT_SEED)
            call = Call(path, self.work / "gate", self.flags)
            self.attempted += len(call.rows)
        if call.sha256 != pinned:
            print(f"# default-seed trace_sha256={call.sha256} differs from pinned {pinned}")
            self.failed += len(call.rows)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run, seconds: float) -> dict:
    """Alternate timed `run` calls, a pass of queries and set-up probes,
    so that all three sample the same stretch of the host's load, until
    `seconds` have passed.

    Times are taken as `timeit` takes them, the best of repeated samples
    of the same work: the host's stalls and slow stretches only ever add
    time to a sample, so the best one is the work's own cost.  Every
    call does the same work, so each of its stretches (see STAMPS) has
    one sample per call, and a call's time is the sum of the best
    stretches.  Set-up is the best of all set-up samples.  Every pass
    makes the same queries, so each distinct query has samples from
    every pass; the percentiles are taken over the distinct queries'
    best samples."""
    walls, setups, passes = [], [], []
    # the best sample of each stretch so far; kept as it goes, so that
    # the samples do not add to the process's peak memory
    stretches, uneven = None, False
    deadline = perf_counter() + seconds
    while (len(walls) < MIN_CALLS or sum(map(len, passes)) < MIN_QUERIES
           or perf_counter() < deadline):
        call = run.call()
        walls.append(call.wall_s)
        if stretches is None:
            stretches = call.stretches
        elif len(stretches) == len(call.stretches):
            stretches = list(map(min, stretches, call.stretches))
        else:
            uneven = True
        setups.append(call.setup_s)
        passes.append(run.queries())
        for _ in range(PROBES_PER_CALL):
            setups.append(timed_run(run.config_path, run.work / "probe", run.flags, stop=True)[2])
    run.gate()
    samples: dict[tuple, list] = {}
    for latencies in passes:
        for (argv, _), latency in zip(run.plan, latencies):
            samples.setdefault(tuple(argv), []).append(latency)
    best = [min(latencies) for latencies in samples.values()]
    # calls stamped unevenly: whole calls
    call_s = min(walls) if uneven else sum(stretches)
    pooled = [latency for latencies in passes for latency in latencies]
    print(f"# calls={len(walls)} setups={len(setups)} queries={len(pooled)} "
          f"distinct_queries={len(best)} passes={len(passes)} "
          f"query_p99_ms={percentile(best, 0.99) * 1e3:.4f} "
          f"pooled_p95_ms={percentile(pooled, 0.95) * 1e3:.4f} "
          f"pooled_requests_per_s={run.first.requests * len(walls) / sum(walls):.4f} "
          f"stretches={len(stretches)} best_call_s={call_s:.4f} "
          f"median_setup_s={statistics.median(setups):.6f} "
          f"call_s={' '.join(f'{w:.3f}' for w in walls)}")
    return {
        "requests_per_s": run.first.requests / call_s,
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_ms": statistics.median(best) * 1e3,
        "query_p95_ms": percentile(best, 0.95) * 1e3,
    }


def per_layer(run: Run, spans_path: Path) -> dict:
    def one_pass(tracer=None) -> tuple[Call, float]:
        """One call and at least MIN_QUERIES queries; returns the call and
        the time spent inside them (call wall time plus query latencies)."""
        call = run.call(tracer)
        if tracer is not None:
            tracer.phase = tracing.QUERY
        timed = call.wall_s
        for _ in range(math.ceil(MIN_QUERIES / len(run.plan))):
            timed += sum(run.queries())
        return call, timed

    _, untraced_s = one_pass()
    tracer = tracing.Tracer()
    traced, traced_s = one_pass(tracer)
    tracer.uninstall()
    bytes_written = sum(p.stat().st_size for p in traced.out_dir.iterdir())
    run.gate()

    tracer.write(spans_path)
    if tracer.absent:
        print(f"# absent: {' '.join(tracer.absent)}")
    print(f"# spans={len(tracer.names)} written to {spans_path}")
    metrics = tracing.layer_metrics(tracer, traced.counts)
    metrics["cli.bytes_written"] = bytes_written
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics


def run_one(args) -> dict:
    if not (SRC / "cloudtrust" / "__init__.py").is_file():
        raise BenchError(f"no cloudtrust package under {SRC}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work)
        fresh_cli()  # compile and load the standard library before timing
        if args.trace:
            metrics = per_layer(run, WORK / f"spans-{args.workload}.tsv")
            units = {name: tracing.unit(name) for name in metrics}
        else:
            metrics = end_to_end(run, args.seconds)
            units = END_TO_END_UNITS
        return run.result(metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload with and without tracing, each in its own process;
    prints every metric with its unit and the checks' outcome."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:40s} {value['value']:>16.6g} {value['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    # a terminated run still removes its outputs and its child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

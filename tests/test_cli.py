"""CLI behaviour: output formats, exit codes, and snapshot replay."""
from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudtrust.cli import main
from cloudtrust.simulation import ScenarioConfig, run


FIXTURE = {
    "nodes": ["p", "q", "r", "z"],
    "edges": [
        {"from": "p", "to": "q", "service": "s", "n_p": 1, "n": 2, "sl": 1.0, "dt": 0.8},
        {"from": "q", "to": "r", "service": "s", "n_p": 1, "n": 1, "sl": 1.0, "dt": 0.6},
        {"from": "p", "to": "z", "service": "s", "n_p": 4, "n": 4, "sl": 1.0, "dt": 0.9},
    ],
}

CONFIG = {
    "seed": 7,
    "entities": [
        {"id": "a", "grade": "High", "sla": 0.9},
        {"id": "b", "grade": "Medium", "sla": 0.9},
        {"id": "c", "grade": "Low", "sla": 0.85},
    ],
    "services": [{"id": "exchange", "required_level": "I"}],
    "schedule": [
        {"tick": 0, "requester": "a", "service": "exchange", "provider": "b"},
        {"tick": 1, "requester": "b", "service": "exchange", "provider": "c"},
        {"tick": 2, "requester": "a", "service": "exchange", "provider": "c"},
        {"tick": 3, "requester": "a", "service": "exchange", "provider": "b"},
    ],
}


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(FIXTURE), encoding="utf-8")
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# trust


def test_trust_recommended_line(fixture_path, capsys):
    assert main(["trust", fixture_path, "p", "r", "s"]) == 0
    assert capsys.readouterr().out == "td=0.6667 level=IV path=recommended\n"


def test_trust_direct_line(fixture_path, capsys):
    assert main(["trust", fixture_path, "p", "z", "s"]) == 0
    assert capsys.readouterr().out == "td=0.9000 level=IV path=direct\n"


def test_trust_ignorance_line(fixture_path, capsys):
    assert main(["trust", fixture_path, "z", "q", "s"]) == 0
    assert capsys.readouterr().out == "td=0.0000 level=I path=ignorance\n"


def test_trust_prints_a_negative_zero_degree_unsigned(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    fixture = copy.deepcopy(FIXTURE)
    fixture["edges"][2]["dt"] = -0.0
    path.write_text(json.dumps(fixture), encoding="utf-8")
    assert main(["trust", str(path), "p", "z", "s"]) == 0
    assert capsys.readouterr().out == "td=0.0000 level=I path=direct\n"


def test_trust_unknown_entity_is_exit_1(fixture_path, capsys):
    assert main(["trust", fixture_path, "p", "ghost", "s"]) == 1
    assert "unknown entity" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["z", "r"], ids=["direct", "recommended"])
def test_trust_max_len_out_of_range_is_exit_1(fixture_path, target, capsys):
    assert main(["trust", fixture_path, "p", target, "s", "--max-len", "99"]) == 1
    assert capsys.readouterr().err == "error: max_len must be within [2, 8], got 99\n"


@pytest.mark.parametrize(
    "flags, line",
    [
        pytest.param(
            [], "error: reflexive trust needs no chain; source and target must differ\n",
            id="self-trust",
        ),
        pytest.param(
            ["--max-len", "99"], "error: max_len must be within [2, 8], got 99\n",
            id="self-trust-and-max-len",
        ),
    ],
)
def test_trust_and_chains_refuse_self_trust_with_one_line(fixture_path, flags, line, capsys):
    errors = []
    for verb in ("trust", "chains"):
        assert main([verb, fixture_path, "p", "p", "s", *flags]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [line, line]


def test_trust_missing_fixture_is_exit_2(tmp_path, capsys):
    assert main(["trust", str(tmp_path / "nope.json"), "p", "q", "s"]) == 2


def test_trust_malformed_fixture_is_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["trust", str(path), "p", "q", "s"]) == 1


# ---------------------------------------------------------------------------
# chains


def test_chains_lists_paths_with_values(fixture_path, capsys):
    assert main(["chains", fixture_path, "p", "r", "s"]) == 0
    out = capsys.readouterr().out
    assert out == "p>q>r w=1.5000 rt=0.6667\n"


def test_chains_no_path_prints_nothing(fixture_path, capsys):
    assert main(["chains", fixture_path, "r", "p", "s"]) == 0
    assert capsys.readouterr().out == ""


def test_chains_max_len_below_shortest_prints_nothing(tmp_path, capsys):
    fixture = {
        "nodes": ["p", "q", "r", "s2", "t"],
        "edges": [
            {"from": "p", "to": "q", "service": "s", "n_p": 1, "n": 1, "sl": 1.0, "dt": 0.5},
            {"from": "q", "to": "r", "service": "s", "n_p": 1, "n": 1, "sl": 1.0, "dt": 0.5},
            {"from": "r", "to": "s2", "service": "s", "n_p": 1, "n": 1, "sl": 1.0, "dt": 0.5},
            {"from": "s2", "to": "t", "service": "s", "n_p": 1, "n": 1, "sl": 1.0, "dt": 0.5},
        ],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    assert main(["chains", str(path), "p", "t", "s", "--max-len", "3"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["chains", str(path), "p", "t", "s", "--max-len", "4"]) == 0
    assert capsys.readouterr().out.startswith("p>q>r>s2>t w=")


def test_chains_zero_weight_renders_na(tmp_path, capsys):
    fixture = {
        "nodes": ["p", "q", "r"],
        "edges": [
            {"from": "p", "to": "q", "service": "s", "n_p": 0, "n": 1, "sl": 1.0, "dt": 0.5},
            {"from": "q", "to": "r", "service": "s", "n_p": 0, "n": 1, "sl": 1.0, "dt": 0.5},
        ],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    assert main(["chains", str(path), "p", "r", "s"]) == 0
    assert capsys.readouterr().out == "p>q>r w=0.0000 rt=n/a\n"


# ---------------------------------------------------------------------------
# classify


def test_classify_medium(capsys):
    assert main(["classify", "0.5"]) == 0
    assert capsys.readouterr().out == "td=0.5000 level=III (Medium trust)\n"


def test_classify_prints_a_negative_zero_degree_unsigned(capsys):
    assert main(["classify", "-0.0"]) == 0
    assert capsys.readouterr().out == "td=0.0000 level=I (No Opinion)\n"


def test_classify_out_of_range_is_exit_1(capsys):
    assert main(["classify", "1.5"]) == 1


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace_and_snapshots(config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", config_path, "--out", str(out_dir)]) == 0
    trace = (out_dir / "trace.csv").read_text(encoding="utf-8")
    lines = trace.splitlines()
    assert lines[0] == "tick,requester,provider,service,path,td,level,decision,score"
    assert len(lines) == 5
    for entity in ("a", "b", "c"):
        assert (out_dir / f"store_{entity}.json").exists()


def test_run_malformed_config_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


def test_run_invalid_config_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = dict(CONFIG)
    data["seed"] = -4
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


def test_run_config_max_chain_length_out_of_range_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, max_chain_length=99)), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert_clean_exit(1, err)
    assert err == "error: bad max_chain_length: max_len must be within [2, 8], got 99\n"


DEMO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"
DEMO = json.loads(DEMO_PATH.read_text(encoding="utf-8"))


def test_run_refused_config_creates_no_out_dir(tmp_path, capsys):
    # snapshots are written as the run goes, but a config that `run`
    # refuses must still leave nothing behind
    out_dir = tmp_path / "out"
    argv = ["run", str(DEMO_PATH), "--out", str(out_dir), "--snapshots", "--max-len", "99"]
    assert main(argv) == 1
    assert_clean_exit(1, capsys.readouterr().err)
    assert not out_dir.exists()


def test_run_refuses_a_concentration_too_small_to_sample(tmp_path, capsys):
    # a config that validated but failed at its first grant, naming no
    # key, and with --snapshots left a graph file behind
    entities = [dict(entity, sla_concentration=5e-324) for entity in CONFIG["entities"]]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dict(CONFIG, entities=entities)), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--snapshots"]) == 1
    err = capsys.readouterr().err
    assert_clean_exit(1, err)
    assert "concentration 5e-324 is too small for quality 0.9" in err
    assert not out_dir.exists()


def value_paths(node, prefix=()):
    """Every key path inside a JSON document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from value_paths(child, prefix + (key,))


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=10)
    | st.floats()
    | st.text(max_size=4)
)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=5) | st.dictionaries(
    st.text(max_size=4), JSON_SCALARS, max_size=3
)
DELETE = object()


DEMO_RUN = run(ScenarioConfig.from_dict(dict(DEMO, graph_snapshots=True)))
DEMO_GRAPH = json.loads(DEMO_RUN.graph_snapshots[(4, 0)].to_json())
DEMO_STORE = json.loads(DEMO_RUN.stores["a"].to_json())

# The command line of each verb that reads a document, given the
# document's path and a scratch directory.
READER_ARGV = {
    "run": lambda doc, tmp: ["run", doc, "--out", f"{tmp}/out"],
    "trust": lambda doc, tmp: ["trust", doc, "a", "c", "exchange"],
    "chains": lambda doc, tmp: ["chains", doc, "a", "c", "exchange"],
    "inspect": lambda doc, tmp: ["inspect", doc],
}


def assert_clean_exit(code, stderr):
    """Exit 0 with nothing on stderr, or exit 1 with one `error:` line."""
    errors = stderr.splitlines()
    if code == 0:
        assert errors == []
    else:
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error: "), errors


@pytest.mark.parametrize(
    "verb, document",
    [
        pytest.param("run", DEMO, id="run"),
        pytest.param("trust", DEMO_GRAPH, id="trust"),
        pytest.param("chains", DEMO_GRAPH, id="chains"),
        pytest.param("inspect", DEMO_STORE, id="inspect"),
    ],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_mutated_demo_exits_cleanly(verb, document, data):
    path = data.draw(st.sampled_from(list(value_paths(document))), label="path")
    replacement = data.draw(st.just(DELETE) | JSON_VALUES, label="replacement")
    mutated = copy.deepcopy(document)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "document.json"
        doc.write_text(json.dumps(mutated), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(READER_ARGV[verb](str(doc), tmp))
    assert_clean_exit(code, stderr.getvalue())


# Flag values argparse accepts for an `int` or a `float` flag: small
# and negative numbers, values of up to 401 digits, nan and infinities.
INT_TEXT = (
    st.integers(min_value=-3, max_value=10) | st.integers(min_value=-(10**401), max_value=10**401)
).map(str)
FLOAT_TEXT = st.floats().map(repr) | INT_TEXT | st.sampled_from(["9" * 401, "-" + "9" * 401])

# Each verb's flags with their values; `--flag=value` keeps a negative
# value from reading as an option.
FLAG_ARGV = {
    "run": st.fixed_dictionaries(
        {},
        optional={"--seed": INT_TEXT, "--tau": FLOAT_TEXT, "--k": INT_TEXT, "--max-len": INT_TEXT},
    ).map(lambda flags: [f"{flag}={value}" for flag, value in flags.items()]),
    "trust": INT_TEXT.map(lambda value: [f"--max-len={value}"]),
    "chains": INT_TEXT.map(lambda value: [f"--max-len={value}"]),
    "classify": FLOAT_TEXT.map(lambda value: ["--", value]),
}
FLAG_VERB_ARGV = {
    "run": lambda tmp: ["run", str(DEMO_PATH), "--out", f"{tmp}/out"],
    "trust": lambda tmp: ["trust", f"{tmp}/fixture.json", "p", "r", "s"],
    "chains": lambda tmp: ["chains", f"{tmp}/fixture.json", "p", "r", "s"],
    "classify": lambda tmp: ["classify"],
}


@pytest.mark.parametrize("verb", FLAG_ARGV)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_flag_values_exit_cleanly(verb, data):
    flags = data.draw(FLAG_ARGV[verb], label="flags")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fixture.json").write_text(json.dumps(FIXTURE), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(FLAG_VERB_ARGV[verb](tmp) + flags)
    assert_clean_exit(code, stderr.getvalue())


@pytest.mark.parametrize("verb", READER_ARGV)
def test_deeply_nested_document_is_exit_1(verb, tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code = main(READER_ARGV[verb](str(doc), tmp_path))
    assert code == 1
    assert_clean_exit(code, capsys.readouterr().err)


def test_run_unwritable_out_dir_is_exit_2(config_path, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    assert main(["run", config_path, "--out", str(blocker / "out")]) == 2


def test_run_missing_config_is_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "o")]) == 2


def test_run_seed_override_changes_trace(config_path, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", config_path, "--out", str(out_a)]) == 0
    assert main(["run", config_path, "--out", str(out_b), "--seed", "99"]) == 0
    assert (out_a / "trace.csv").read_text() != (out_b / "trace.csv").read_text()


def test_run_is_reproducible(config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", config_path, "--out", str(out_a)])
    main(["run", config_path, "--out", str(out_b)])
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


# ---------------------------------------------------------------------------
# replay: cmd_trust over an emitted snapshot reproduces the trace value


def test_trace_values_replay_from_graph_snapshots(config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", config_path, "--out", str(out_dir), "--snapshots"]) == 0
    capsys.readouterr()
    with open(out_dir / "trace.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["path"] for row in rows} == {"ignorance", "direct", "recommended"}
    for row in rows:
        snapshot = out_dir / f"graph_t{row['tick']}_r0.json"
        assert snapshot.exists()
        assert main(["trust", str(snapshot), row["requester"], row["provider"], row["service"]]) == 0
        line = capsys.readouterr().out.strip()
        assert line == f"td={row['td']} level={row['level']} path={row['path']}"


# ---------------------------------------------------------------------------
# inspect


def test_inspect_summarizes_store(config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["run", config_path, "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["inspect", str(out_dir / "store_a.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("owner=a direct_entries=")
    assert "direct trustee=b service=exchange" in out


def test_inspect_prints_a_negative_zero_degree_unsigned(tmp_path, capsys):
    path = tmp_path / "store.json"
    store = {
        "owner": "a",
        "direct": [],
        "recommended": [{"service": "s", "peer": "b", "td": -0.0, "updated_at": 0}],
    }
    path.write_text(json.dumps(store), encoding="utf-8")
    assert main(["inspect", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "recommended service=s peer=b td=0.0000 updated_at=0"
    )


def test_inspect_malformed_snapshot_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"owner": 3}', encoding="utf-8")
    assert main(["inspect", str(path)]) == 1

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from geograms import cli, metrics, parse_grammar_dsl
from geograms.encoding import decode_paths, p_encoded_metric
from geograms.errors import ParseError
from geograms.store import RDFS_NS, RESULT_NS, Blank, Iri, load_ntriples

from conftest import FIXTURES, lanl, read_fixture

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_args():
    return ["--graph", str(FIXTURES / "social.nt")]


def test_metric_shortest_path_researcher_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--metric", "shortest-path", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["wall_time_ms"] >= 0
    payload["wall_time_ms"] = 0
    golden = json.loads((GOLDEN / "metric_researcher.json").read_text())
    assert payload == golden


def test_metric_shortest_path_any_path_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "shortest-path", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    payload["wall_time_ms"] = 0
    golden = json.loads((GOLDEN / "metric_any_path.json").read_text())
    assert payload == golden


def test_metric_text_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--metric", "shortest-path",
    )
    assert code == 0
    assert out.splitlines()[0] == "shortest-path = 2"


def test_metric_text_output_counts_skipped_targets(capsys, tmp_path):
    graph = tmp_path / "two_components.nt"
    graph.write_text("@prefix ex: <http://example.org/t#> .\nex:a ex:p ex:b .\nex:x ex:p ex:y .\n")
    code, out, _ = run_cli(
        capsys,
        "metric", "--graph", str(graph), "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "eccentricity", "--vertex", "ex:a",
        "--vertices", "ex:a", "--vertices", "ex:b", "--vertices", "ex:x",
    )
    assert code == 0
    assert out.splitlines() == ["eccentricity = 1", "skipped targets: 1"]


def test_metric_with_vertex_universe(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--graph", str(FIXTURES / "social.nt"),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "eccentricity", "--vertex", "lanl:johan",
        "--vertices", "lanl:johan", "--vertices", "lanl:marko",
        "--vertices", "lanl:jhw", "--vertices", "lanl:norman",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_bracketed_vertex_without_scheme_slashes_resolves_as_written(capsys, tmp_path):
    # the loader reads <urn:a> as written, so --vertex must accept it too;
    # unbracketed, urn: is an unknown prefix to both
    graph = tmp_path / "urn.nt"
    graph.write_text("<urn:a> <urn:p> <urn:b> .\n")
    grammar = tmp_path / "urn.pg"
    grammar.write_text(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
        "context e entry for <urn:a> {\n  pathcount 0\n  traverse out rdfs:Resource -> x\n}\n"
        "context x exit for <urn:b> {\n  pathcount 0\n}\n"
    )
    argv = ["metric", "--graph", str(graph), "--grammar", str(grammar), "--metric", "eccentricity"]
    universe = ["--vertices", "<urn:a>", "--vertices", "<urn:b>"]
    code, out, _ = run_cli(capsys, *argv, "--vertex", "<urn:a>", *universe, "--output", "json")
    assert code == 0
    assert json.loads(out)["value"] == 1
    code, _, err = run_cli(capsys, *argv, "--vertex", "urn:a")
    assert code == 1
    assert "unknown prefix" in err


JOHAN = lanl("johan")


# every way a resource may be written on the command line; ``readers``
# names the file formats that read the same text as the same resource, and
# the others reject it; a name that resolves to nothing expects the message
@pytest.mark.parametrize(
    "written, expected, readers",
    [
        ("lanl:johan", JOHAN, {"nt", "dsl"}),
        ("<lanl:johan>", JOHAN, {"nt", "dsl"}),
        ("<http://www.lanl.gov#johan>", JOHAN, {"nt", "dsl"}),
        ("http://www.lanl.gov#johan", JOHAN, set()),
        ("rdfs:Resource", Iri(RDFS_NS + "Resource"), set()),
        ("rwrx:grammar_0", Iri(RESULT_NS + "grammar_0"), set()),
        ("_:b", Blank("b"), {"nt"}),
        ("<_:b>", Iri("_:b"), {"nt", "dsl"}),
        ("<>", "cannot resolve resource '<>': empty name", set()),
        ("nope:x", "cannot resolve resource 'nope:x': unknown prefix", set()),
        ("_:", "cannot resolve resource '_:': malformed blank node", set()),
        ("_:a.b", "cannot resolve resource '_:a.b': malformed blank node", set()),
        ("_:x y", "cannot resolve resource '_:x y': malformed blank node", set()),
    ],
    ids=["prefixed", "bracketed-prefixed", "bracketed", "bare-iri", "builtin-rdfs",
         "builtin-rwrx", "blank", "bracketed-blank", "empty", "unknown-prefix",
         "blank-empty-label", "blank-dotted-label", "blank-spaced-label"],
)
def test_every_written_name_form_resolves_as_in_the_files(capsys, written, expected, readers):
    if isinstance(expected, str):
        code, out, err = run_cli(
            capsys,
            "metric", *graph_args(), "--grammar", str(FIXTURES / "any_path.pg"),
            "--metric", "eccentricity", "--vertex", written,
        )
        assert (code, out, err) == (1, "", f"usage error: {expected}\n")
    else:
        assert cli._resolve_token(written, load_ntriples(read_fixture("social.nt"))) == expected
    declared = "@prefix lanl: <http://www.lanl.gov#> .\n"
    read = {
        "nt": lambda: next(iter(load_ntriples(f"{declared}{written} lanl:p lanl:o .\n").triples)).subject,
        "dsl": lambda: parse_grammar_dsl(
            f"{declared}context a entry for {written} {{\n  pathcount 0\n  traverse out lanl:p -> b\n}}\n"
            "context b exit for lanl:o {\n  pathcount 0\n}\n"
        ).entry_context.for_resource,
    }
    for reader, resource in read.items():
        if reader in readers:
            assert resource() == expected
        else:
            with pytest.raises(ParseError):
                resource()


def test_metric_requires_vertex_for_eccentricity(capsys):
    code, _, err = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "eccentricity",
    )
    assert code == 1
    assert "requires --vertex" in err


def test_paths_all_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--mode", "all", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["edge_lengths"] == [3, 2]


def test_paths_encode_out_round_trips(capsys, tmp_path):
    out_file = tmp_path / "encoded.nt"
    code, out, _ = run_cli(
        capsys,
        "paths", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--encode-out", str(out_file), "--output", "json",
    )
    assert code == 0
    store = load_ntriples(out_file.read_text())
    records = decode_paths(store)
    assert sorted(r.edge_length for r in records) == [2, 3]


def test_encode_command(capsys, tmp_path):
    out_file = tmp_path / "store.nt"
    code, out, _ = run_cli(
        capsys,
        "encode", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--out", str(out_file), "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == 2
    assert len(load_ntriples(out_file.read_text())) == payload["triples"]


def test_encode_refuses_a_store_that_would_not_read_back_and_writes_no_file(capsys, tmp_path):
    # ``lanl:a<b>`` loads as an IRI holding '>', which no written form reads back
    graph = tmp_path / "glued.nt"
    graph.write_text(
        "@prefix lanl: <http://www.lanl.gov#> .\n"
        "lanl:johan lanl:knows lanl:a<b> .\nlanl:a<b> lanl:knows lanl:norman .\n"
    )
    out_file = tmp_path / "store.nt"
    code, out, err = run_cli(
        capsys,
        "encode", "--graph", str(graph), "--grammar", str(FIXTURES / "any_path.pg"), "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert "cannot write term '<http://www.lanl.gov#a<b>>'" in err
    assert not out_file.exists()


def test_encode_refuses_a_vertex_the_stores_rdf_prefix_would_expand_and_writes_no_file(capsys, tmp_path):
    # <rdf:a> names the IRI rdf:a in a file that declares no prefix, but the
    # store declares rdf:, so written as <rdf:a> it would read back in the rdf namespace
    graph = tmp_path / "graph.nt"
    graph.write_text("<rdf:a> <urn:p> <urn:b> .\n")
    grammar = tmp_path / "grammar.pg"
    grammar.write_text(
        "context a entry for <rdf:a> {\n  pathcount 0\n  traverse out <urn:p> -> b\n}\n"
        "context b exit for <urn:b> {\n  pathcount 0\n}\n"
    )
    out_file = tmp_path / "store.nt"
    code, out, err = run_cli(capsys, "encode", "--graph", str(graph), "--grammar", str(grammar), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert "cannot write term '<rdf:a>': a declared prefix reads it back as <http://www.w3.org/1999/02/22-rdf-syntax-ns#a>" in err
    assert not out_file.exists()


def test_encode_all_pairs_store_answers_every_metric_as_the_walker(capsys, tmp_path):
    out_file = tmp_path / "pairs.nt"
    universe = [lanl("johan"), lanl("marko"), lanl("norman")]
    code, out, _ = run_cli(
        capsys,
        "encode", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--all-pairs", "--vertices", "lanl:johan", "--vertices", "lanl:marko", "--vertices", "lanl:norman",
        "--out", str(out_file), "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["records"] == 108
    store = load_ntriples(out_file.read_text())
    graph = load_ntriples(read_fixture("social.nt"))
    walker = metrics.WalkerPaths(graph, parse_grammar_dsl(read_fixture("any_path.pg")))
    grammar_id = Iri(RESULT_NS + "grammar_0")
    for kind in metrics.MetricKind:
        for source in universe:
            for target in universe:
                if source != target:
                    found = p_encoded_metric(kind, store, grammar_id, universe, source=source, target=target)
                    assert found == metrics.fold(kind, walker, universe, source, target), (kind, source, target)


def test_validate_grammar_ok(capsys):
    code, out, _ = run_cli(
        capsys, "validate-grammar", "--grammar", str(FIXTURES / "researcher_path.pg")
    )
    assert code == 0
    assert out.strip() == "ok"


def test_validate_grammar_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.pg"
    bad.write_text(
        read_fixture("researcher_path.pg").replace(
            "context johan_0 entry for lanl:johan {",
            "context johan_0 entry for lanl:johan {\n  notever",
        )
    )
    code, out, _ = run_cli(capsys, "validate-grammar", "--grammar", str(bad))
    assert code == 2
    assert "error johan_0" in out


def test_validate_grammar_warning_exit_0(capsys, tmp_path):
    hazardous = tmp_path / "hazard.pg"
    hazardous.write_text(read_fixture("any_path.pg").replace("notever\n", ""))
    code, out, _ = run_cli(capsys, "validate-grammar", "--grammar", str(hazardous))
    assert code == 0
    assert "warning" in out


def test_oracle_check_passes_on_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", *graph_args(), "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == 20 and payload["mismatches"] == []


def test_oracle_check_answers_a_vertex_only_schema_triples_mention_as_unreachable(capsys):
    # lanl:Human occurs in the graph, but only as an rdf:type object, so the
    # unlabeled projection the check walks does not hold it
    code, out, err = run_cli(
        capsys, "oracle-check", *graph_args(), "--vertices", "lanl:Human", "--vertices", "lanl:johan", "--output", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"pairs": 2, "mismatches": []}


def test_oracle_check_reports_mismatch(capsys, monkeypatch):
    real = metrics.unlabeled_oracle_geodesics

    def skewed(graph, source, target):
        value = real(graph, source, target)
        return None if value is None else value + 1

    monkeypatch.setattr(metrics, "unlabeled_oracle_geodesics", skewed)
    code, out, _ = run_cli(capsys, "oracle-check", *graph_args(), "--output", "json")
    assert code == 3
    assert json.loads(out)["mismatches"]


def run_module(*argv):
    """``python -m geograms`` in a child process, with the package's source on its path."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "geograms", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_module_entry_point_validates_a_grammar():
    done = run_module("validate-grammar", "--grammar", str(FIXTURES / "researcher_path.pg"))
    assert done.returncode == 0
    assert done.stdout.strip() == "ok"


def test_module_entry_point_exits_2_on_a_missing_graph(tmp_path):
    done = run_module("oracle-check", "--graph", str(tmp_path / "missing.nt"))
    assert done.returncode == 2
    assert done.stderr.startswith("error:")


def test_module_entry_point_exits_0_and_1():
    pair = ["metric", "--graph", str(FIXTURES / "social.nt"), "--grammar", str(FIXTURES / "researcher_path.pg"),
            "--metric", "shortest-path"]
    done = run_module(*pair)
    assert (done.returncode, done.stdout.splitlines()[0]) == (0, "shortest-path = 2")
    done = run_module(*pair, "--vertex", "lanl:johan")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("usage error:")


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "metric", "--metric", "shortest-path")
    assert code == 1
    assert "usage error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "metric", "--graph", "no-such-file.nt",
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "shortest-path",
    )
    assert code == 2
    assert "error" in err


def test_grammar_parse_error_exit_2(capsys, tmp_path):
    mangled = tmp_path / "mangled.pg"
    mangled.write_text("context ! nope\n")
    code, _, err = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(mangled), "--metric", "shortest-path",
    )
    assert code == 2


CYCLE_NT = (
    "@prefix ex: <http://example.org/t#> .\n"
    "ex:a ex:p ex:b .\nex:b ex:p ex:c .\nex:c ex:p ex:a .\nex:x ex:p ex:y .\n"
)

# no notever on the hop context: walkers circle a -> b -> c until the cap
CYCLE_PG = (
    "@prefix ex: <http://example.org/t#>\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "context e entry for ex:a {\n  pathcount 0\n"
    "  traverse out ex:p -> H, out ex:p -> sink\n}\n"
    "context H for rdfs:Resource {\n  pathcount 0\n"
    "  traverse out ex:p -> H, out ex:p -> sink\n}\n"
    "context sink exit for ex:x {\n  pathcount 0\n}\n"
)


def cycle_args(tmp_path):
    cyclic = tmp_path / "cyclic.nt"
    cyclic.write_text(CYCLE_NT)
    hazardous = tmp_path / "hazard.pg"
    hazardous.write_text(CYCLE_PG)
    return ["--graph", str(cyclic), "--grammar", str(hazardous)]


def test_env_var_overrides_max_steps(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_MAX_STEPS, "9")
    code, _, err = run_cli(capsys, "paths", *cycle_args(tmp_path))
    assert code == 2
    assert "9 generations" in err


def test_grammar_triple_format_inferred_from_extension(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path_grammar.nt"),
        "--metric", "shortest-path", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_threads_flag_output_identical(capsys):
    outputs = []
    for threads in ("1", "4", "8"):
        code, out, _ = run_cli(
            capsys,
            "paths", *graph_args(),
            "--grammar", str(FIXTURES / "researcher_path.pg"),
            "--output", "json", "--threads", threads,
        )
        assert code == 0
        payload = json.loads(out)
        payload.pop("wall_time_ms")
        outputs.append(json.dumps(payload))
    assert outputs[0] == outputs[1] == outputs[2]


FOUR_HUMANS = [
    arg for name in ("johan", "marko", "jhw", "norman") for arg in ("--vertices", f"lanl:{name}")
]


@pytest.mark.parametrize(
    "kind", ["eccentricity", "radius", "diameter", "closeness", "betweenness"]
)
def test_metric_aggregate_any_path_golden(capsys, kind):
    vertex = ["--vertex", "lanl:marko"] if kind in ("eccentricity", "closeness", "betweenness") else []
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", kind, *vertex, *FOUR_HUMANS, "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    payload["wall_time_ms"] = 0
    golden = (GOLDEN / f"metric_{kind}.json").read_text()
    assert json.dumps(payload, indent=2) + "\n" == golden


@pytest.mark.parametrize(
    "flag, value",
    [("--max-steps", "0"), ("--max-steps", "-3"), ("--max-steps", "x"),
     ("--threads", "0"), ("--threads", "-3")],
)
def test_count_below_one_is_usage_error(capsys, flag, value):
    code, out, err = run_cli(
        capsys,
        "paths", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        flag, value,
    )
    assert code == 1
    assert flag in err and out == ""


def test_env_max_steps_zero_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_MAX_STEPS, "0")
    code, _, err = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "shortest-path",
    )
    assert code == 1
    assert cli.ENV_MAX_STEPS in err


def test_the_instances_of_a_class_endpoint_are_dead_ends(capsys):
    # Researcher <-hasPosition- marko -rdf:type-> Human is a 2-edge walk, but
    # marko is typed Human, so a step onto marko resolves into the exit
    # context and its walker retires there without reaching Human
    code, out, _ = run_cli(
        capsys,
        "metric", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "eccentricity", "--vertex", "lanl:Researcher",
        "--vertices", "lanl:Human", "--vertices", "lanl:Researcher",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["defined"], payload["skipped_targets"]) == (None, False, 1)
    assert payload["witness_paths"] == []


@pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # ARABIC-INDIC THREE, SUPERSCRIPT TWO
@pytest.mark.parametrize("where", ["flag", "env"])
def test_a_count_is_read_as_ascii_digits_only(capsys, monkeypatch, digit, where):
    flags = ("--max-steps", digit) if where == "flag" else ()
    if where == "env":
        monkeypatch.setenv(cli.ENV_MAX_STEPS, digit)
    code, out, err = run_cli(
        capsys,
        "paths", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--mode", "shortest", *flags,
    )
    assert (code, out) == (1, "")
    assert f"must be an integer >= 1, got {digit!r}" in err
    assert ("--max-steps" if where == "flag" else cli.ENV_MAX_STEPS) in err


def test_truncated_aggregate_names_the_pair(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "metric", *cycle_args(tmp_path),
        "--metric", "eccentricity", "--vertex", "ex:a",
        "--vertices", "ex:a", "--vertices", "ex:b", "--vertices", "ex:x",
        "--max-steps", "5",
    )
    assert code == 2
    assert "5 generations" in err
    assert "from <http://example.org/t#a> to <http://example.org/t#x>" in err


# a vertex the graph lacks stops the command before any run, for every
# metric and every command that takes one
@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--metric", "betweenness", "--vertex", "lanl:ghost"],
        ["metric", "--metric", "closeness", "--vertex", "lanl:ghost"],
        ["metric", "--metric", "eccentricity", "--vertex", "lanl:johan", "--vertices", "lanl:ghost"],
        ["metric", "--metric", "radius", "--vertices", "lanl:johan", "--vertices", "lanl:ghost"],
        ["metric", "--metric", "diameter", "--vertices", "lanl:ghost", "--vertices", "lanl:johan"],
        ["encode", "--all-pairs", "--vertices", "lanl:johan", "--vertices", "lanl:ghost"],
        ["oracle-check", "--vertices", "lanl:johan", "--vertices", "lanl:ghost"],
    ],
    ids=["betweenness", "closeness", "eccentricity", "radius", "diameter", "encode", "oracle-check"],
)
def test_a_vertex_the_graph_lacks_is_a_data_error(capsys, monkeypatch, tmp_path, argv):
    runs = []
    real_run = metrics.run
    monkeypatch.setattr(metrics, "run", lambda *args, **kwargs: runs.append(args) or real_run(*args, **kwargs))
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args) or real_run(*args, **kwargs))
    grammar = [] if argv[0] == "oracle-check" else ["--grammar", str(FIXTURES / "any_path.pg")]
    out_file = ["--out", str(tmp_path / "p.nt")] if argv[0] == "encode" else []
    code, out, err = run_cli(capsys, argv[0], *graph_args(), *grammar, *out_file, *argv[1:])
    assert (code, out, err) == (2, "", "error: vertex 'lanl:ghost' does not occur in the graph\n")
    assert runs == [] and not (tmp_path / "p.nt").exists()



# a flag the command does not read is a usage error, not silently dropped
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["metric", "--metric", "shortest-path", "--vertex", "lanl:ghost", "--vertices", "lanl:ghost"], "--vertex"),
        (["metric", "--metric", "shortest-path", "--vertices", "lanl:johan"], "--vertices"),
        (["encode", "--vertices", "lanl:ghost"], "--vertices"),
        (["metric", "--metric", "radius", "--vertex", "lanl:ghost", "--vertices", "lanl:johan"], "--vertex"),
        (["metric", "--metric", "diameter", "--vertex", "lanl:johan", "--vertices", "lanl:johan"], "--vertex"),
        (["paths", "--grammar-id", "nope:x"], "--grammar-id"),
        # the projection holds no schema triples, so neither mode changes it
        (["oracle-check", "--subsumption", "closure"], "--subsumption"),
    ],
    ids=["shortest-path-vertex", "shortest-path-vertices", "encode-without-all-pairs", "radius-vertex",
         "diameter-vertex", "paths-grammar-id-without-encode-out", "oracle-check-subsumption"],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, tmp_path, argv, flag):
    out_file = ["--out", str(tmp_path / "p.nt")] if argv[0] == "encode" else []
    grammar = [] if argv[0] == "oracle-check" else ["--grammar", str(FIXTURES / "researcher_path.pg")]
    code, out, err = run_cli(capsys, argv[0], *graph_args(), *grammar, *out_file, *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and flag in err
    assert not (tmp_path / "p.nt").exists()


# a check that reads only the flags runs before any file is opened
@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--grammar", str(FIXTURES / "any_path.pg"), "--metric", "shortest-path", "--vertex", "lanl:johan"],
        ["encode", "--grammar", str(FIXTURES / "researcher_path.pg"), "--vertices", "lanl:johan"],
    ],
    ids=["metric", "encode"],
)
def test_flag_checks_come_before_the_file_reads(capsys, monkeypatch, tmp_path, argv):
    loads = []
    real_load = cli.load_ntriples
    monkeypatch.setattr(cli, "load_ntriples", lambda *args: loads.append(args) or real_load(*args))
    out_file = ["--out", str(tmp_path / "p.nt")] if argv[0] == "encode" else []
    for graph in (tmp_path / "missing.nt", FIXTURES / "social.nt"):
        code, out, err = run_cli(capsys, argv[0], "--graph", str(graph), *out_file, *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")
    assert loads == []
    assert not (tmp_path / "p.nt").exists()


@pytest.mark.parametrize("argv", [["--help"], ["paths", "--help"], ["metric", "-h"]])
def test_help_returns_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: geograms")


def test_an_unresolvable_grammar_id_stops_paths_before_the_run(capsys, monkeypatch, tmp_path):
    runs = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args) or real_run(*args, **kwargs))
    code, out, err = run_cli(
        capsys, "paths", *graph_args(), "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--encode-out", str(tmp_path / "p.nt"), "--grammar-id", "nope:x",
    )
    assert (code, out, err) == (1, "", "usage error: cannot resolve resource 'nope:x': unknown prefix\n")
    assert runs == [] and not (tmp_path / "p.nt").exists()


@pytest.fixture
def negative_pathcount_grammar(tmp_path):
    # a step the DSL cannot write, but the triple encoding can
    path = tmp_path / "negative.nt"
    text = read_fixture("researcher_path_grammar.nt")
    old = 'psi:pathcount_3 rwr:step "2"^^xsd:int .'
    assert old in text
    path.write_text(text.replace(old, 'psi:pathcount_3 rwr:step "-1"^^xsd:int .'), encoding="utf-8")
    return path


def test_a_negative_pathcount_step_fails_validation(capsys, negative_pathcount_grammar):
    code, out, _ = run_cli(capsys, "validate-grammar", "--grammar", str(negative_pathcount_grammar))
    assert (code, out) == (2, "error Human_3: pathcount step must be >= 0, got -1\n")


def test_a_negative_pathcount_step_is_a_grammar_error_before_any_run(capsys, negative_pathcount_grammar):
    code, out, err = run_cli(capsys, "paths", *graph_args(), "--grammar", str(negative_pathcount_grammar))
    assert (code, out) == (2, "")
    assert err == "error: invalid grammar: Human_3: pathcount step must be >= 0, got -1\n"


def test_mode_and_subsumption_choices_and_defaults():
    # read from the parser, not from --help, whose wording differs between
    # Python versions
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    read = {
        name: {a.option_strings[0]: (list(a.choices), a.default)
               for a in command._actions if a.option_strings[:1] in (["--mode"], ["--subsumption"])}
        for name, command in commands.items()
    }
    subsumption = {"--subsumption": (["closure", "single-hop"], "closure")}
    assert read == {
        "paths": {**subsumption, "--mode": (["all", "shortest"], "all")},
        "metric": subsumption,
        "encode": subsumption,
        "oracle-check": {},
        "validate-grammar": {},
    }


@pytest.mark.parametrize(
    "fixture, old, new",
    [
        ("researcher_path.pg", "is 2", "is " + "2" * 5000),
        ("researcher_path_grammar.nt", 'psi:is_3 rwr:step "2"', 'psi:is_3 rwr:step "' + "2" * 5000 + '"'),
        ("researcher_path_grammar.nt", "psi:rules_0 rdf:_2", "psi:rules_0 rdf:_" + "2" * 5000),
    ],
    ids=["dsl-step", "triple-step", "rule-index"],
)
def test_an_over_long_digit_string_in_a_grammar_is_bad_data(capsys, tmp_path, fixture, old, new):
    # int() refuses more than 4300 digits from Python 3.11 on; the readers refuse them first
    text = read_fixture(fixture)
    assert old in text
    path = tmp_path / fixture
    path.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "validate-grammar", "--grammar", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "has more than 4300 digits" in err


@pytest.mark.parametrize("where", ["flag", "env"])
def test_an_over_long_count_is_a_usage_error_naming_its_source(capsys, monkeypatch, where):
    digits = "1" * 5000
    flags = ("--max-steps", digits) if where == "flag" else ()
    if where == "env":
        monkeypatch.setenv(cli.ENV_MAX_STEPS, digits)
    code, out, err = run_cli(
        capsys,
        "paths", *graph_args(),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--mode", "shortest", *flags,
    )
    assert (code, out) == (1, "")
    assert "must be an integer of at most 4300 digits, got 5000 characters" in err
    assert ("--max-steps" if where == "flag" else cli.ENV_MAX_STEPS) in err


def test_encode_all_pairs_payload_and_store_bytes(capsys, tmp_path):
    out_file = tmp_path / "pairs.nt"
    code, out, _ = run_cli(
        capsys,
        "encode", *graph_args(),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--all-pairs", "--vertices", "lanl:johan", "--vertices", "lanl:marko", "--vertices", "lanl:norman",
        "--out", str(out_file), "--output", "json",
    )
    assert code == 0
    assert json.loads(out) == {"records": 108, "triples": 2526, "out": str(out_file)}
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "201738a0a811c58cf6c29f0743a57a1a6c95a39931d51f1d41f505e047a19531"


def test_oracle_check_reports_every_skewed_pair_in_order(capsys, monkeypatch):
    real = metrics.unlabeled_oracle_geodesics

    def skewed(graph, source, target):
        value = real(graph, source, target)
        return None if value is None else value + 1

    monkeypatch.setattr(metrics, "unlabeled_oracle_geodesics", skewed)
    code, out, _ = run_cli(capsys, "oracle-check", *graph_args(), "--output", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["pairs"] == 20
    # (source, target, grammar) in universe order, each source before its targets
    expected = [
        ("Researcher", "jhw", 1), ("Researcher", "johan", 2), ("Researcher", "marko", 1), ("Researcher", "norman", 2),
        ("jhw", "Researcher", 1), ("jhw", "johan", 2), ("jhw", "marko", 1), ("jhw", "norman", 1),
        ("johan", "Researcher", 2), ("johan", "jhw", 2), ("johan", "marko", 1), ("johan", "norman", 1),
        ("marko", "Researcher", 1), ("marko", "jhw", 1), ("marko", "johan", 1), ("marko", "norman", 1),
        ("norman", "Researcher", 2), ("norman", "jhw", 1), ("norman", "johan", 1), ("norman", "marko", 1),
    ]
    assert payload["mismatches"] == [
        {"source": f"lanl:{source}", "target": f"lanl:{target}", "grammar": grammar, "oracle": grammar + 1}
        for source, target, grammar in expected
    ]


_IS_3_STEP = 'psi:is_3 rwr:step "2"^^xsd:int .\n'
_IS_3_MESSAGE = (
    "is attribute of Human_3: expected exactly one 'http://www.lanl.gov/rwr#step' on <http://www.lanl.gov/psi#is_3>, found 0"
)


@pytest.mark.parametrize(
    "new, expected",
    [
        # is_3 loses its step and the bag gains an attribute of no type: the first in resource order is named
        ("psi:attrs_3 rwr:hasAttribute psi:odd_3 .\n", (2, "", f"error: {_IS_3_MESSAGE}\n")),
        # is 0 and not 0 hash alike, so they are reported in the order they are read
        (
            'psi:is_3 rwr:step "0"^^xsd:int .\npsi:attrs_3 rwr:hasAttribute psi:not_3 .\n'
            'psi:not_3 rdf:type rwr:Not .\npsi:not_3 rwr:step "0"^^xsd:int .\n',
            (2, "error Human_3: is step must be >= 1, got 0\nerror Human_3: not step must be >= 1, got 0\n", ""),
        ),
    ],
    ids=["missing-step-and-untyped-attribute", "is-0-and-not-0"],
)
def test_validate_grammar_reads_a_contexts_attributes_in_one_order_whatever_the_hash_seed(
    monkeypatch, tmp_path, new, expected
):
    text = read_fixture("researcher_path_grammar.nt")
    assert _IS_3_STEP in text
    grammar = tmp_path / "grammar.nt"
    grammar.write_text(text.replace(_IS_3_STEP, new))
    outputs = set()
    for seed in range(4):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        done = run_module("validate-grammar", "--grammar", str(grammar))
        outputs.add((done.returncode, done.stdout, done.stderr))
    assert outputs == {expected}

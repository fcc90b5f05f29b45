import json

from geograms import cli

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_radius_needs_a_real_universe(capsys):
    # the researcher grammar's entry binds one vertex, so the default
    # universe is a singleton and radius cannot be computed over it
    code, _, err = run_cli(
        capsys,
        "metric", "--graph", str(FIXTURES / "social.nt"),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--metric", "radius",
    )
    assert code == 1
    assert "two vertices" in err


def test_radius_with_explicit_universe(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", "--graph", str(FIXTURES / "social.nt"),
        "--grammar", str(FIXTURES / "any_path.pg"),
        "--metric", "radius",
        "--vertices", "lanl:johan", "--vertices", "lanl:marko",
        "--vertices", "lanl:jhw", "--vertices", "lanl:norman",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_explicit_grammar_format_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "metric", "--graph", str(FIXTURES / "social.nt"),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--grammar-format", "dsl",
        "--metric", "shortest-path", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_multiple_graph_files_merge(capsys, tmp_path):
    extra = tmp_path / "extra.nt"
    extra.write_text(
        "@prefix lanl: <http://www.lanl.gov#> .\n"
        "lanl:johan lanl:hasFriend lanl:norman .\n"
    )
    code, out, _ = run_cli(
        capsys,
        "metric", "--graph", str(FIXTURES / "social.nt"), "--graph", str(extra),
        "--grammar", str(FIXTURES / "researcher_path.pg"),
        "--metric", "shortest-path", "--output", "json",
    )
    assert code == 0
    # the added direct friendship shortens the constrained path to one hop
    assert json.loads(out)["value"] == 1


def test_subsumption_flag_switches_traversal(capsys, tmp_path):
    data = tmp_path / "chain.nt"
    data.write_text(
        "@prefix ex: <http://example.org/t#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "ex:knows rdfs:subPropertyOf ex:related .\n"
        "ex:related rdfs:subPropertyOf ex:linked .\n"
        "ex:a ex:knows ex:b .\n"
    )
    grammar = tmp_path / "linked.pg"
    grammar.write_text(
        "@prefix ex: <http://example.org/t#>\n"
        "context e entry for ex:a {\n  pathcount 0\n"
        "  traverse out ex:linked -> sink\n}\n"
        "context sink exit for ex:b {\n  pathcount 0\n}\n"
    )
    for mode, expected in (("closure", 1), ("single-hop", None)):
        code, out, _ = run_cli(
            capsys,
            "metric", "--graph", str(data), "--grammar", str(grammar),
            "--metric", "shortest-path", "--subsumption", mode, "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == expected


def test_threaded_aggregate_metric_is_deterministic(capsys):
    payloads = []
    for threads in ("1", "4"):
        code, out, _ = run_cli(
            capsys,
            "metric", "--graph", str(FIXTURES / "social.nt"),
            "--grammar", str(FIXTURES / "any_path.pg"),
            "--metric", "betweenness", "--vertex", "lanl:marko",
            "--vertices", "lanl:johan", "--vertices", "lanl:marko",
            "--vertices", "lanl:jhw", "--vertices", "lanl:norman",
            "--output", "json", "--threads", threads,
        )
        assert code == 0
        payload = json.loads(out)
        payload.pop("wall_time_ms")
        payloads.append(json.dumps(payload))
    assert payloads[0] == payloads[1]


# -- unreadable input is a data error (exit 2) ------------------------------------


def _assert_data_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_graph_that_is_a_directory_is_a_data_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "metric", "--graph", str(tmp_path),
        "--grammar", str(FIXTURES / "researcher_path.pg"), "--metric", "shortest-path",
    )
    _assert_data_error(code, err)


def test_encode_out_that_is_a_directory_is_a_data_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "encode", "--graph", str(FIXTURES / "social.nt"),
        "--grammar", str(FIXTURES / "researcher_path.pg"), "--out", str(tmp_path),
    )
    _assert_data_error(code, err)


def test_graph_that_is_not_utf8_is_a_data_error(capsys, tmp_path):
    data = tmp_path / "latin1.nt"
    data.write_bytes("<http://e/café> <http://e/p> <http://e/o> .\n".encode("latin-1"))
    code, _, err = run_cli(
        capsys,
        "metric", "--graph", str(data),
        "--grammar", str(FIXTURES / "researcher_path.pg"), "--metric", "shortest-path",
    )
    _assert_data_error(code, err)
    assert "utf-8" in err


def test_grammar_that_is_not_utf8_is_a_data_error(capsys, tmp_path):
    grammar = tmp_path / "latin1.pg"
    grammar.write_bytes(b"# caf\xe9\n" + (FIXTURES / "researcher_path.pg").read_bytes())
    code, _, err = run_cli(
        capsys,
        "metric", "--graph", str(FIXTURES / "social.nt"),
        "--grammar", str(grammar), "--metric", "shortest-path",
    )
    _assert_data_error(code, err)
    assert "utf-8" in err


def test_oracle_check_projects_the_graph_once(capsys, monkeypatch):
    # the walker and the oracle's BFS share the graph's one projection,
    # derived on first use; not once per checked pair
    from geograms import metrics

    calls = []
    real_projection_edges = metrics.projection_edges

    def counting(*args, **kwargs):
        calls.append(args)
        return real_projection_edges(*args, **kwargs)

    monkeypatch.setattr(metrics, "projection_edges", counting)
    code, out, _ = run_cli(
        capsys, "oracle-check", "--graph", str(FIXTURES / "social.nt"), "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["pairs"] > 2
    assert len(calls) == 1


def test_oracle_check_builds_one_grammar(capsys, monkeypatch):
    # every pair rebinds the one unconstrained grammar, as a metric does
    calls = []
    real_unconstrained_grammar = cli.unconstrained_grammar

    def counting(*args):
        calls.append(args)
        return real_unconstrained_grammar(*args)

    monkeypatch.setattr(cli, "unconstrained_grammar", counting)
    code, out, _ = run_cli(
        capsys, "oracle-check", "--graph", str(FIXTURES / "social.nt"), "--output", "json",
    )
    assert code == 0
    assert json.loads(out) == {"pairs": 20, "mismatches": []}
    assert len(calls) == 1

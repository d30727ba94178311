import csv
import json

import jsonschema
import pytest

import pmdm.cli
import pmdm.exact
import pmdm.hypergraph
import pmdm.index
from pmdm import Dictionary, GenConfig, generate
from pmdm.cli import main

from support import T1_ENTRIES


def load_schema(name):
    import importlib.resources as resources

    with resources.files("pmdm.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


@pytest.fixture()
def t1_file(tmp_path):
    path = tmp_path / "t1.txt"
    path.write_text("\n".join(T1_ENTRIES) + "\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None


def test_solve_success(capsys, t1_file):
    code, data = run_json(capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "4")
    assert code == 0
    assert data == {"k": 3, "positions": [1, 2, 4], "matches": 4, "masked": "??a?"}
    jsonschema.validate(data, load_schema("solve-result.schema.json"))


def test_solve_infeasible_exit_code(capsys, t1_file):
    code, out = run_cli(capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "9")
    assert code == 1 and out == ""


def test_solve_mixed_length_dictionary_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ab\nabc\n", encoding="utf-8")
    code, _ = run_cli(capsys, "solve", "--dict", str(bad), "--query", "ab", "--z", "1")
    assert code == 2


def test_capacity_guard_exit_code(capsys, t1_file, tmp_path, monkeypatch):
    monkeypatch.setattr(pmdm.exact, "DEFAULT_TABLE_LIMIT", 3)
    out = tmp_path / "idx.bin"
    code, _ = run_cli(
        capsys, "index", "build", "--dict", t1_file, "--kind", "split", "--tau", "1",
        "--out", str(out),
    )
    assert code == 3 and not out.exists()
    # a greedy section search of 4 or more positions past its visit budget
    monkeypatch.setattr(pmdm.hypergraph, "DEFAULT_BRUTE_BUDGET", 0)
    monkeypatch.setattr(pmdm.hypergraph, "BRANCHING_VISIT_BUDGET", 0)
    code, out = run_cli(
        capsys, "greedy", "--dict", t1_file, "--query", "abab", "--z", "5", "--tau", "4"
    )
    assert code == 3 and out == ""


@pytest.mark.parametrize("length", [4, 30])
def test_small_index_query_prints_the_solve_answer(capsys, tmp_path, length):
    # a small index is the dictionary itself, answered by solve_pmdm at
    # every length: the table at l = 4, the kept-set search at l = 30
    d = generate(
        GenConfig(size=60, length=length, alphabet_size=3, seed=4, mode="clustered",
                  centers=4, mutation_rate=0.2)
    )
    path = tmp_path / "d.txt"
    d.save(path)
    out = tmp_path / "small.bin"
    code, _ = run_cli(capsys, "index", "build", "--dict", str(path), "--kind", "small", "--out", str(out))
    assert code == 0
    for query in (d[0], d[7]):
        for z in (1, 12, 60):
            code, indexed = run_json(capsys, "index", "query", "--index", str(out), "--query", query, "--z", str(z))
            assert code == 0
            code, solved = run_json(capsys, "solve", "--dict", str(path), "--query", query, "--z", str(z))
            assert code == 0
            assert indexed == {"found": True, **solved}


def test_usage_error_exit_code(capsys, t1_file):
    assert main(["solve", "--dict", t1_file, "--query", "abab"]) == 2


def test_mask_count_round_trip(capsys, t1_file):
    code, solved = run_json(
        capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "4"
    )
    assert code == 0
    code, masked = run_json(
        capsys, "mask", "--query", "abab", "--positions", json.dumps(solved["positions"])
    )
    assert code == 0 and masked["masked"] == solved["masked"]
    code, counted = run_json(
        capsys, "count", "--dict", t1_file, "--masked", masked["masked"]
    )
    assert code == 0 and counted["matches"] == solved["matches"]


@pytest.mark.parametrize("positions", ["[1.5]", "[true]", '["1"]'])
def test_mask_refuses_positions_that_are_not_json_integers(capsys, positions):
    code, out = run_cli(capsys, "mask", "--query", "abab", "--positions", positions)
    assert code == 2 and out == ""


def test_greedy_and_baseline_outputs(capsys, t1_file):
    schema = load_schema("solve-result.schema.json")
    code, data = run_json(
        capsys, "greedy", "--dict", t1_file, "--query", "abab", "--z", "4", "--tau", "3"
    )
    assert code == 0 and data["k"] == 3 and data["iterations"] == 1
    jsonschema.validate(data, schema)
    code, data = run_json(
        capsys, "baseline", "--dict", t1_file, "--query", "abab", "--z", "2"
    )
    assert code == 0 and data["k"] == 1 and data["matches"] >= 2
    jsonschema.validate(data, schema)


def test_solve_multi_query(capsys, tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("aa\nab\nba\n", encoding="utf-8")
    queries = tmp_path / "q.txt"
    queries.write_text("aa\nbb\n", encoding="utf-8")
    code, data = run_json(
        capsys, "solve", "--dict", str(d), "--multi", str(queries), "--z", "2"
    )
    assert code == 0
    assert data["k"] == 2 and data["positions"] == [1, 2]
    assert data["matches"] == [3, 3]
    assert data["masked"] == ["??", "??"]


def test_query_file_with_several_queries_needs_multi(capsys, tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("aa\nab\nba\n", encoding="utf-8")
    queries = tmp_path / "q.txt"
    queries.write_text("aa\nbb\n", encoding="utf-8")
    code = main(["solve", "--dict", str(d), "--query-file", str(queries), "--z", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--multi" in captured.err
    queries.write_text("aa\n", encoding="utf-8")
    code, data = run_json(
        capsys, "solve", "--dict", str(d), "--query-file", str(queries), "--z", "2"
    )
    assert code == 0 and data["k"] == 1 and data["matches"] == 2


def test_crlf_dictionary_is_refused(capsys, tmp_path):
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"abab\r\nabbb\r\n")
    out = tmp_path / "idx.bin"
    for argv in (
        ["solve", "--dict", str(crlf), "--query", "abab", "--z", "1"],
        ["index", "build", "--dict", str(crlf), "--kind", "small", "--out", str(out)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 1" in captured.err
    assert not out.exists()


def test_query_file_splits_at_line_feeds_only(capsys, tmp_path):
    # \x0b is a line break to str.splitlines, but a symbol in a dictionary
    d = tmp_path / "d.txt"
    d.write_text("a\x0bbc\nabcd\n", encoding="utf-8", newline="")
    queries = tmp_path / "q.txt"
    queries.write_text("a\x0bbc\n", encoding="utf-8", newline="")
    for source in (["--query", "a\x0bbc"], ["--query-file", str(queries)]):
        code, data = run_json(capsys, "solve", "--dict", str(d), *source, "--z", "1")
        assert code == 0 and data["k"] == 0 and data["matches"] == 1
    queries.write_bytes(b"abcd\nabcd\r\n")
    assert main(["solve", "--dict", str(d), "--query-file", str(queries), "--z", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line 2" in captured.err


def test_small_index_query_ties_like_solve(capsys, tmp_path):
    # {1, 4} and {2, 3} each match one entry; the smaller bitmask is {2, 3},
    # the lexicographically smaller position list {1, 4}
    d = tmp_path / "d.txt"
    d.write_text("baab\nabba\n", encoding="utf-8")
    out = tmp_path / "small.bin"
    code, _ = run_json(capsys, "index", "build", "--dict", str(d), "--kind", "small", "--out", str(out))
    assert code == 0
    code, indexed = run_json(capsys, "index", "query", "--index", str(out), "--query", "aaaa", "--z", "1")
    assert code == 0
    code, solved = run_json(capsys, "solve", "--dict", str(d), "--query", "aaaa", "--z", "1")
    assert code == 0
    assert indexed["positions"] == solved["positions"] == [1, 4]


def test_split_build_over_the_workspace_limit_exit_code(capsys, t1_file, tmp_path, monkeypatch):
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 100)
    out = tmp_path / "split.bin"
    code, _ = run_cli(
        capsys, "index", "build", "--dict", t1_file, "--kind", "split", "--tau", "1",
        "--out", str(out),
    )
    assert code == 3 and not out.exists()


def test_dump_hypergraph(capsys, t1_file):
    code, data = run_json(
        capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "4",
        "--dump-hypergraph",
    )
    assert code == 0
    assert data["l"] == 4 and data["base"] == 1
    assert [e["nodes"] for e in data["edges"]] == [[1], [2, 4], [3], [4]]


def test_output_formats(capsys, t1_file):
    code, out = run_cli(
        capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "4",
        "--format", "plain",
    )
    assert code == 0 and out == "k=3 positions=[1,2,4] matches=4 masked=??a?"
    code, out = run_cli(
        capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "k,positions,matches,masked"
    # every payload goes through the one printer: the default output is the
    # JSON the hypergraph dump and the MU instance printed before, and in
    # csv and plain their nested values become compact JSON cells, quoted
    # in csv with their quotes doubled
    edges = '[{"nodes":[1],"w":1},{"nodes":[2,4],"w":1},{"nodes":[3],"w":1},{"nodes":[4],"w":1}]'
    quoted = '"' + edges.replace('"', '""') + '"'
    for command, json_out, csv_out, plain_out in [
        (
            ["solve", "--query", "abab", "--z", "4", "--dump-hypergraph"],
            '{"l": 4, "base": 1, "edges": [{"nodes": [1], "w": 1}, {"nodes": [2, 4], "w": 1}, '
            '{"nodes": [3], "w": 1}, {"nodes": [4], "w": 1}]}',
            f"l,base,edges\n4,1,{quoted}",
            f"l=4 base=1 edges={edges}",
        ),
        (
            ["reduce", "to-mu", "--query", "abab", "--z", "2"],
            '{"universe": 4, "sets": [[], [3], [2, 4], [1], [4]], "z": 2}',
            'universe,sets,z\n4,"[[],[3],[2,4],[1],[4]]",2',
            "universe=4 sets=[[],[3],[2,4],[1],[4]] z=2",
        ),
    ]:
        argv = [*command, "--dict", t1_file]
        assert run_cli(capsys, *argv) == (0, json_out)
        assert run_cli(capsys, *argv, "--format", "csv") == (0, csv_out)
        assert run_cli(capsys, *argv, "--format", "plain") == (0, plain_out)


def test_csv_rows_parse_into_as_many_fields_as_the_header(capsys, t1_file):
    # a nested cell holds commas; csv.reader must still see one field per
    # header name, and the cell must read back as the JSON value
    for argv, name, value in [
        (["solve", "--query", "abab", "--z", "4"], "positions", [1, 2, 4]),
        (["reduce", "to-mu", "--query", "abab", "--z", "2"], "sets", [[], [3], [2, 4], [1], [4]]),
    ]:
        code, out = run_cli(capsys, *argv, "--dict", t1_file, "--format", "csv")
        assert code == 0
        header, row = csv.reader(out.splitlines())
        assert len(header) == len(row)
        assert json.loads(row[header.index(name)]) == value


def test_a_failed_allocation_exits_with_the_capacity_code(capsys, t1_file, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(pmdm.cli, "solve_pmdm", out_of_memory)
    code = main(["solve", "--dict", t1_file, "--query", "abab", "--z", "4"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: capacity guard: out of memory\n"


def test_custom_wildcard_glyph(capsys, t1_file):
    code, data = run_json(
        capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "4",
        "--wildcard", "*",
    )
    assert code == 0 and data["masked"] == "**a*"


@pytest.mark.parametrize("glyph", ["##", ""])
@pytest.mark.parametrize("command", ["mask", "solve"])
def test_wildcard_must_be_one_character(capsys, t1_file, command, glyph):
    argv = {
        "mask": ["mask", "--query", "abc", "--positions", "[1]"],
        "solve": ["solve", "--dict", t1_file, "--query", "abab", "--z", "4"],
    }[command]
    code, out = run_cli(capsys, *argv, "--wildcard", glyph)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "kind,extra",
    [("small", []), ("simple", ["--k", "1"]), ("split", ["--tau", "2"])],
)
def test_index_build_and_query(capsys, t1_file, tmp_path, kind, extra):
    out = tmp_path / f"{kind}.bin"
    code, _ = run_json(
        capsys, "index", "build", "--dict", t1_file, "--kind", kind, *extra,
        "--out", str(out),
    )
    assert code == 0
    code, data = run_json(
        capsys, "index", "query", "--index", str(out), "--query", "abab", "--z", "2"
    )
    assert code == 0
    assert data["found"] and data["k"] == 1 and data["matches"] == 2
    # a threshold above the dictionary size is infeasible on every kind
    code, printed = run_cli(
        capsys, "index", "query", "--index", str(out), "--query", "abab", "--z", "6"
    )
    assert code == 1 and printed == ""


def test_index_query_not_found(capsys, t1_file, tmp_path):
    out = tmp_path / "simple.bin"
    run_json(
        capsys, "index", "build", "--dict", t1_file, "--kind", "simple",
        "--k", "1", "--z0", "2", "--out", str(out),
    )
    code, data = run_json(
        capsys, "index", "query", "--index", str(out), "--query", "abab", "--z", "3"
    )
    assert code == 0 and data == {"found": False}


def test_reduce_clique_round_trip(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    out = tmp_path / "cl.txt"
    code, data = run_json(
        capsys, "reduce", "clique", "--graph", str(graph), "--k", "3",
        "--out-dict", str(out),
    )
    assert code == 0
    assert data["query"] == "aaa" and data["z"] == 3 and data["d"] == 3
    assert out.read_text().split() == ["bba", "bab", "abb"]
    code, solved = run_json(
        capsys, "solve", "--dict", str(out), "--query", "aaa", "--z", "3"
    )
    assert code == 0 and solved["k"] == 3


def test_reduce_mu_round_trip(capsys, t1_file, tmp_path):
    mu_path = tmp_path / "mu.json"
    code, _ = run_json(
        capsys, "reduce", "to-mu", "--dict", t1_file, "--query", "abab",
        "--z", "2", "--out", str(mu_path),
    )
    assert code == 0
    payload = json.loads(mu_path.read_text())
    jsonschema.validate(payload, load_schema("mu-instance.schema.json"))
    assert payload == {"universe": 4, "sets": [[], [3], [2, 4], [1], [4]], "z": 2}
    back = tmp_path / "back.txt"
    code, data = run_json(
        capsys, "reduce", "from-mu", "--mu", str(mu_path), "--out-dict", str(back)
    )
    assert code == 0 and data["z"] == 2 and data["d"] == 5
    # optimal mask size is preserved through the translation
    code, solved = run_json(
        capsys, "solve", "--dict", str(back), "--query", data["query"], "--z", "2"
    )
    code2, original = run_json(
        capsys, "solve", "--dict", t1_file, "--query", "abab", "--z", "2"
    )
    assert code == 0 and code2 == 0 and solved["k"] == original["k"]


def test_reduce_from_mu_answer_names_the_elements(capsys, tmp_path):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(
        '{"universe": 9, "sets": [[3, 7], [7], [3, 7, 9], [2, 5]], "z": 2}', encoding="utf-8"
    )
    back = tmp_path / "back.txt"
    code, data = run_json(
        capsys, "reduce", "from-mu", "--mu", str(mu_path), "--out-dict", str(back)
    )
    assert code == 0 and data["query"] == "a" * 9
    code, solved = run_json(
        capsys, "solve", "--dict", str(back), "--query", data["query"], "--z", "2"
    )
    # the smallest union is {3, 7}, of the sets [3, 7] and [7]
    assert code == 0 and solved["positions"] == [3, 7]


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"universe": 3, "sets": 5, "z": 1},
        {"universe": "3", "sets": [[1]], "z": 1},
        {"universe": True, "sets": [[1]], "z": 1},
        {"universe": 3, "sets": [1], "z": 1},
        {"universe": 3, "sets": [[1.5]], "z": 1},
        {"universe": 3, "sets": [[True]], "z": 1},
        {"universe": 3, "sets": [[1]], "z": True},
    ],
    ids=["array", "sets-int", "universe-str", "universe-bool", "set-int", "element-float",
         "element-bool", "z-bool"],
)
def test_reduce_from_mu_refuses_payloads_outside_the_schema(capsys, tmp_path, payload):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, load_schema("mu-instance.schema.json"))
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main(["reduce", "from-mu", "--mu", str(mu_path), "--out-dict", str(out)])
    assert code == 2
    assert capsys.readouterr().out == "" and not out.exists()


def test_bench_gen_and_run(capsys, tmp_path):
    dict_path = tmp_path / "syn.txt"
    code, _ = run_json(
        capsys, "bench", "gen", "--d", "80", "--l", "7", "--sigma", "4",
        "--seed", "5", "--mode", "clustered", "--centers", "6", "--rho", "0.1",
        "--out", str(dict_path),
    )
    assert code == 0
    assert Dictionary.from_file(dict_path) == generate(
        GenConfig(size=80, length=7, alphabet_size=4, seed=5, mode="clustered",
                  centers=6, mutation_rate=0.1)
    )
    # gen is bench's only subcommand; argparse refuses any other
    code = main(["bench", "run", "--dict", str(dict_path), "--z", "6", "--queries", "4"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'run'" in captured.err

import contextlib
import functools
import io
import json
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from tss import (
    constant_threshold,
    cycle,
    cycle_permutation,
    generalized_petersen,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    identity_permutation,
    majority_threshold,
    path,
    permutation_from_one_based,
    seed_cycle_permutation,
    seed_generalized_petersen,
    seed_torus_cordalis,
    toroidal_mesh,
    torus_cordalis,
    torus_serpentinus,
)
from tss.cli import FAMILIES, main
from tss.graph import Graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "--family", "gpg", "--m", "5", "--s", "2")
    assert code == 0
    g, thresholds = graph_from_json(out)
    assert g.vertex_count == 10 and len(g.edges) == 15
    assert thresholds is None
    from tss import generalized_petersen

    assert g.edges == generalized_petersen(5, 2).edges


def test_gen_embeds_thresholds(capsys):
    code, out, _ = run(
        capsys, "gen", "--family", "cordalis", "--m", "4", "--n", "3",
        "--threshold", "strict-majority",
    )
    assert code == 0
    _, thresholds = graph_from_json(out)
    assert thresholds == [3] * 12


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "--family", "cordalis", "--m", "4", "--n", "3", "--dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert "--" in out


def test_gen_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "gen", "--family", "cordalis", "--m", "2", "--n", "3")
    assert code == 2
    assert "error" in err


def test_seed_cordalis_golden_value(capsys):
    code, out, _ = run(capsys, "seed", "--family", "cordalis", "--m", "12", "--n", "14")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 57 and doc["kind"] == "exact" and doc["verified"]
    assert doc["case"] == "T9even"
    assert doc["lower_bound"] == 57


def test_seed_gpg_with_sequence(capsys):
    code, out, _ = run(
        capsys, "seed", "--family", "gpg", "--m", "10", "--s", "4", "--include-sequence"
    )
    doc = json.loads(out)
    assert code == 0 and doc["size"] == 6
    assert len(doc["sequence"]) == 20 - 6


def test_seed_cp_with_permutation(capsys):
    code, out, _ = run(capsys, "seed", "--family", "cp", "--n", "5", "--pi", "1,3,5,2,4")
    doc = json.loads(out)
    assert code == 0 and doc["size"] == 3


def test_simulate_full_seed_exit_0(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    code, out, _ = run(capsys, "gen", "--family", "cordalis", "--m", "3", "--n", "3")
    gpath.write_text(out)
    code, out, _ = run(
        capsys, "simulate", "--graph", str(gpath), "--k", "3", "--seed", "all"
    )
    assert code == 0
    assert json.loads(out)["final_size"] == 9


def test_simulate_reports_rounds_and_dot(capsys, tmp_path):
    code, out, _ = run(
        capsys, "simulate", "--family", "path", "--n", "3", "--k", "1",
        "--seed", "1", "--dot-dir", str(tmp_path / "rounds"), "--rng-seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == [[0, 2]]
    assert doc["sequential_matches"] is True
    assert (tmp_path / "rounds" / "round00.dot").exists()
    assert (tmp_path / "rounds" / "round01.dot").exists()


def test_simulate_non_influencing_exit_1(capsys):
    code, out, _ = run(
        capsys, "simulate", "--family", "gpg", "--m", "5", "--s", "2",
        "--k", "2", "--seed", "0",
    )
    assert code == 1


def test_verify_seed_and_sequence(capsys):
    code, _, _ = run(
        capsys, "verify", "--family", "cordalis", "--m", "4", "--n", "3",
        "--k", "3", "--seed", "all",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--family", "path", "--n", "3", "--k", "1",
        "--seed", "1", "--sequence", "0,2",
    )
    assert code == 0 and json.loads(out)["full_influence"] is True
    code, out, _ = run(
        capsys, "verify", "--family", "path", "--n", "3", "--k", "2",
        "--seed", "1", "--sequence", "0,2",
    )
    assert code == 1
    assert json.loads(out)["failing_position"] == 1


def test_bounds_torus(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "cordalis", "--m", "9", "--n", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == 28 and doc["upper"] == 30


def test_bounds_graph_with_k(capsys, tmp_path):
    _, out, _ = run(capsys, "gen", "--family", "gpg", "--m", "5", "--s", "2")
    gpath = tmp_path / "g.json"
    gpath.write_text(out)
    code, out, _ = run(capsys, "bounds", "--graph", str(gpath), "--k", "2")
    doc = json.loads(out)
    assert code == 0 and doc["lower"] == 3 and doc["lower_source"] == "lemma3"


def test_bounds_gpg_uses_construction_upper(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "gpg", "--m", "10", "--s", "4", "--k", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"lower": 6, "upper": 6, "lower_source": "lemma3", "upper_source": "construction"}
    code, out, _ = run(capsys, "bounds", "--family", "cp", "--n", "7", "--k", "2")
    assert code == 0
    assert out == '{"lower": 4, "upper": 4, "lower_source": "lemma3", "upper_source": "construction"}\n'


def test_exact_small_torus(capsys):
    code, out, _ = run(
        capsys, "exact", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3"
    )
    assert code == 0
    assert json.loads(out)["optimum"] == 4


def test_exact_on_regular_graphs_with_k_at_degree(capsys):
    code, out, _ = run(capsys, "exact", "--family", "gpg", "--m", "8", "--s", "3", "--k", "3")
    assert code == 0 and json.loads(out)["optimum"] == 8
    code, out, _ = run(capsys, "exact", "--family", "cycle", "--n", "4", "--k", "2")
    assert code == 0 and json.loads(out)["optimum"] == 2
    _, out, _ = run(capsys, "bounds", "--family", "cycle", "--n", "4", "--k", "2")
    assert json.loads(out)["lower"] == 2


def test_check_optimal_names_the_floor(capsys):
    code, out, _ = run(
        capsys, "check-optimal", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3",
        "--claimed", "4",
    )
    assert code == 0
    assert json.loads(out) == {"status": "confirmed", "witness": [0, 1, 3, 5],
                               "reason": "size 3 is below the lemma3 lower bound 4",
                               "nodes_explored": 8}
    code, out, _ = run(
        capsys, "check-optimal", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3",
        "--claimed", "3",
    )
    doc = json.loads(out)
    assert code == 1 and (doc["status"], doc["nodes_explored"]) == ("inconclusive", 0)


def test_exact_reports_above_max_size(capsys):
    # the lemma floor 4 rules out every seed of size <= 3 before any search
    code, out, _ = run(capsys, "exact", "--family", "cordalis", "--m", "3", "--n", "3",
                       "--k", "3", "--max-size", "3")
    assert code == 1
    assert json.loads(out) == {"optimum": None, "witness": None, "nodes_explored": 0,
                               "status": "above_max_size"}


def test_edges_only_computed_for_the_writers(capsys, monkeypatch):
    """Every command but the writers, and seed_torus_cordalis, read only the
    neighbour tuples; `Graph.edges` is built for the JSON and DOT output."""
    torus_doc = graph_to_json(torus_cordalis(9, 7), [3] * 63)
    gpg_doc = graph_to_json(generalized_petersen(8, 3))
    calls = []
    edges = Graph.__dict__["edges"]

    def counting(self):
        calls.append(self.vertex_count)
        return edges.func(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(Graph, "edges")
    monkeypatch.setattr(Graph, "edges", counted)
    for m in range(3, 16):
        for n in range(2, 16):
            seed_torus_cordalis(m, n)
    for doc, argv in (
        (torus_doc, ("simulate", "--graph", "-", "--seed", "0,1,2,3,4,5,6,7,8,9")),
        (torus_doc, ("verify", "--graph", "-", "--seed", "0,1,2", "--sequence", "3,4")),
        (gpg_doc, ("bounds", "--graph", "-", "--k", "2")),
        (gpg_doc, ("exact", "--graph", "-", "--k", "2")),
        (gpg_doc, ("check-optimal", "--graph", "-", "--k", "2", "--claimed", "5")),
        (None, ("seed", "--family", "cordalis", "--m", "12", "--n", "14", "--include-sequence")),
        (None, ("seed", "--family", "gpg", "--m", "10", "--s", "4", "--include-sequence")),
        (None, ("seed", "--family", "cp", "--n", "5", "--pi", "1,3,5,2,4")),
        (None, ("table", "--m-max", "9", "--n-max", "9")),
    ):
        if doc is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and err == "", (argv, err)
    assert calls == []
    run(capsys, "gen", "--family", "cordalis", "--m", "4", "--n", "3")
    assert calls == [12]


def test_graph_and_family_together_exit_2(capsys, tmp_path):
    gpath = tmp_path / "c4.json"
    gpath.write_text(graph_to_json(cycle(4)))
    both = ("--graph", str(gpath), "--family", "cordalis", "--m", "9", "--n", "9")
    for argv in (("simulate", *both, "--k", "2", "--seed", "0,2"), ("bounds", *both),
                 ("exact", *both, "--k", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "not both" in err, argv


def test_check_optimal_exit_codes(capsys):
    code, out, _ = run(
        capsys, "check-optimal", "--family", "cycle", "--n", "3", "--k", "2",
        "--claimed", "2",
    )
    assert code == 0 and json.loads(out)["status"] == "confirmed"
    code, out, _ = run(
        capsys, "check-optimal", "--family", "cycle", "--n", "3", "--k", "2",
        "--claimed", "3",
    )
    assert code == 1 and json.loads(out)["status"] == "refuted"


def test_table_csv_shape_and_values(capsys):
    code, out, _ = run(
        capsys, "table", "--m-min", "9", "--m-max", "9", "--n-min", "9", "--n-max", "9"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,case,phi,size,lower,status"
    assert lines[1] == "9,9,T9odd,28,28,28,exact"


def test_table_json_contains_gap_one_row(capsys):
    code, out, _ = run(
        capsys, "table", "--m-min", "8", "--m-max", "8", "--n-min", "9", "--n-max", "9",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["case"] == "T6c" and rows[0]["status"] == "gap_one"
    assert rows[0]["size"] == 26 and rows[0]["phi"] == 26 and rows[0]["lower"] == 25


def test_table_respects_cell_cap(capsys):
    code, out, _ = run(
        capsys, "table", "--m-min", "3", "--m-max", "3", "--n-min", "2", "--n-max", "400",
        "--max-cells", "30",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(int(r.split(",")[1]) <= 10 for r in rows)


def test_export_dot_from_stdin(capsys, monkeypatch, tmp_path):
    _, out, _ = run(capsys, "gen", "--family", "path", "--n", "3")
    gpath = tmp_path / "g.json"
    gpath.write_text(out)
    code, out, _ = run(capsys, "export-dot", "--graph", str(gpath))
    assert code == 0 and "0 -- 1;" in out


def test_label_keys_must_be_canonical_exit_2(capsys, monkeypatch):
    args = ("verify", "--graph", "-", "--k", "1", "--seed", "0")
    doc = '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], "labels": {%s}}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc % '"1": "a", "0": "b"'))
    assert run(capsys, *args)[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(doc % '" 1": "a", "+0": "b"'))
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert "canonical integer" in err


def test_io_error_exit_2(capsys):
    code, _, err = run(capsys, "exact", "--graph", "/does/not/exist.json", "--k", "2")
    assert code == 2


def test_seed_file_must_hold_a_list_exit_2(capsys, tmp_path):
    seed_file = tmp_path / "seed.json"
    for doc in ("5", '{"seed": [0, 1, 2]}'):
        seed_file.write_text(doc)
        code, out, err = run(
            capsys, "verify", "--family", "cordalis", "--m", "3", "--n", "3",
            "--k", "3", "--seed-file", str(seed_file),
        )
        assert code == 2 and out == ""
        assert "list of vertex ids" in err


def test_seed_file_ids_are_not_coerced(capsys, tmp_path):
    seed_file = tmp_path / "seed.json"
    args = ("verify", "--family", "path", "--n", "3", "--k", "1", "--seed-file", str(seed_file))
    seed_file.write_text("[1]")
    assert run(capsys, *args)[0] == 0
    for doc in ("[true]", "[1.0]", '["1"]'):
        seed_file.write_text(doc)
        code, _, err = run(capsys, *args)
        assert code == 2 and "must be an integer" in err
    seed_file.write_text("1, 0 2")  # plain text ids still parse
    assert run(capsys, *args)[0] == 0


def test_negative_solver_limits_exit_2(capsys):
    bad_limits = (("--max-size", "-1"), ("--time-budget", "-1"), ("--max-vertices", "-1"),
                  ("--time-budget", "nan"))
    for command in (("exact",), ("check-optimal", "--claimed", "4")):
        for flag, value in bad_limits:
            code, out, err = run(
                capsys, *command, "--family", "cordalis", "--m", "3", "--n", "3",
                "--k", "3", flag, value,
            )
            assert code == 2 and out == ""
            assert "must be non-negative" in err
    # zero limits are valid
    code, out, _ = run(capsys, "exact", "--family", "cordalis", "--m", "3", "--n", "3",
                       "--k", "3", "--max-size", "0")
    assert code == 1 and json.loads(out)["status"] == "above_max_size"
    code, out, _ = run(capsys, "exact", "--family", "cordalis", "--m", "3", "--n", "3",
                       "--k", "3", "--time-budget", "0")
    assert code == 0 and json.loads(out)["optimum"] == 4


def test_vertex_cap_exit_2(capsys, monkeypatch):
    doc = '{"format": "tss-graph-v1", "n": %d, "edges": []}' % 10**12
    for argv in (("simulate", "--graph", "-", "--k", "1", "--seed", "0"),
                 ("verify", "--graph", "-", "--k", "0", "--seed", ""),
                 ("export-dot", "--graph", "-")):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "above the limit" in err


# Each family's size flags, listed here independently of the CLI's own table.
FAMILY_FLAGS = {
    "path": (("--n", "6"),),
    "cycle": (("--n", "6"),),
    "cp": (("--n", "5"),),
    "gpg": (("--m", "7"), ("--s", "2")),
    "mesh": (("--m", "4"), ("--n", "5")),
    "cordalis": (("--m", "5"), ("--n", "7")),
    "serpentinus": (("--m", "4"), ("--n", "5")),
}
LIBRARY = {
    "path": lambda: path(6),
    "cycle": lambda: cycle(6),
    "cp": lambda: cycle_permutation(5, identity_permutation(5)),
    "gpg": lambda: generalized_petersen(7, 2),
    "mesh": lambda: toroidal_mesh(4, 5),
    "cordalis": lambda: torus_cordalis(5, 7),
    "serpentinus": lambda: torus_serpentinus(4, 5),
}


def _family_argv(family):
    return ["--family", family, *(tok for pair in FAMILY_FLAGS[family] for tok in pair)]


def test_every_family_gen_and_export_dot_match_the_library(capsys):
    assert set(FAMILY_FLAGS) == set(FAMILIES)
    for family in FAMILIES:
        g = LIBRARY[family]()
        argv = _family_argv(family)
        assert run(capsys, "gen", *argv) == (0, graph_to_json(g) + "\n", "")
        assert run(capsys, "gen", *argv, "--dot") == (0, graph_to_dot(g), "")
        assert run(capsys, "export-dot", *argv) == (0, graph_to_dot(g), "")
        want = graph_to_json(g, constant_threshold(g, 2)) + "\n"
        assert run(capsys, "gen", *argv, "--k", "2") == (0, want, "")
        want = graph_to_json(g, majority_threshold(g)) + "\n"
        assert run(capsys, "gen", *argv, "--threshold", "majority") == (0, want, "")


def test_gen_missing_param_exit_2(capsys):
    code, _, err = run(capsys, "gen", "--family", "gpg", "--m", "5")
    assert code == 2
    # every command that builds a family names the first size flag it lacks
    commands = (("gen",), ("export-dot",), ("simulate", "--k", "2", "--seed", "0"),
                ("bounds", "--k", "2"))
    for family, flags in FAMILY_FLAGS.items():
        seed_family = family in ("cordalis", "gpg", "cp")
        for command in commands + ((("seed",),) if seed_family else ()):
            for i, (missing, _) in enumerate(flags):
                kept = [tok for j, pair in enumerate(flags) if j != i for tok in pair]
                code, out, err = run(capsys, *command, "--family", family, *kept)
                assert (code, out) == (2, "")
                assert err == f"error: --family {family} needs {missing}\n"
            # with every size flag missing, the first one is named
            code, _, err = run(capsys, *command, "--family", family)
            assert code == 2 and err == f"error: --family {family} needs {flags[0][0]}\n"


def test_seed_matches_the_library_report(capsys):
    cases = (
        (("--family", "cordalis", "--m", "7", "--n", "8"), seed_torus_cordalis(7, 8)),
        (("--family", "cordalis", "--m", "5", "--n", "5"), seed_torus_cordalis(5, 5)),
        (("--family", "gpg", "--m", "10", "--s", "4"), seed_generalized_petersen(10, 4)),
        (("--family", "cp", "--n", "6"), seed_cycle_permutation(6, identity_permutation(6))),
        (("--family", "cp", "--n", "5", "--pi", "1,3,5,2,4"),
         seed_cycle_permutation(5, permutation_from_one_based([1, 3, 5, 2, 4]))),
    )
    for argv, report in cases:
        code, out, err = run(capsys, "seed", *argv)
        assert (code, json.loads(out), err) == (0, report.to_dict(), "")
        code, out, _ = run(capsys, "seed", *argv, "--include-sequence")
        want = {**report.to_dict(), "sequence": list(report.convinced_sequence)}
        assert (code, out) == (0, json.dumps(want) + "\n")


def test_threshold_specs(capsys):
    code, out, _ = run(capsys, "gen", "--family", "path", "--n", "5", "--threshold", "majority")
    assert code == 0 and graph_from_json(out)[1] == [1, 1, 1, 1, 1]
    for spec in ("bogus", "constant", "majority:2"):
        code, out, err = run(capsys, "gen", "--family", "path", "--n", "5", "--threshold", spec)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad threshold spec {spec!r}")
    code, out, err = run(capsys, "simulate", "--family", "path", "--n", "5",
                         "--threshold", "constant:x", "--seed", "0")
    assert (code, out) == (2, "") and "invalid literal" in err


def test_permutation_flag_errors_exit_2(capsys):
    for command in ("gen", "seed", "export-dot"):
        code, out, err = run(capsys, command, "--family", "cp", "--n", "5", "--pi", "1,3")
        assert (code, out, err) == (2, "", "error: permutation needs 5 entries, got 2\n")
        code, out, err = run(capsys, command, "--family", "cp", "--n", "5", "--pi", "1,1,2,3,4")
        assert (code, out) == (2, "") and "not a bijection" in err


def test_family_sizes_capped_before_allocating_exit_2(capsys):
    big = str(10**12)
    argvs = [("gen", "--family", "path", "--n", big), ("gen", "--family", "cp", "--n", big),
             ("gen", "--family", "gpg", "--m", big, "--s", "1"),
             ("gen", "--family", "cordalis", "--m", big, "--n", "3"),
             ("seed", "--family", "cp", "--n", big),
             ("seed", "--family", "gpg", "--m", big, "--s", "1"),
             ("seed", "--family", "cordalis", "--m", big, "--n", "3"),
             ("seed", "--family", "cordalis", "--m", "1000000", "--n", "1000000")]
    for argv in argvs:
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "") and "above the limit" in err
        assert peak < 1 << 20, argv


# --- property test: every command line and document ends in exit 0, 1 or 2 ---

def _mostly(valid, other):
    """`valid` nine draws in ten, else `other`, so most examples get past argparse."""
    return st.sampled_from([valid] * 9 + [other]).flatmap(lambda strategy: strategy)


_small = _mostly(st.integers(2, 4), st.integers(-2, 8)).map(str)
_ids = st.lists(_mostly(st.integers(0, 8), st.integers(-1, 30)), max_size=8).map(
    lambda xs: ",".join(map(str, xs))
)
_junk = st.text(alphabet="abx019,:.- ", max_size=4)
# A fixed alphabet with JSON punctuation and a non-ASCII letter; the full
# Unicode range would add nothing here and costs a cache build on first use.
_chars = st.text(alphabet='ab"{}[]:,.-+019 é\\', max_size=12)
# `--dot-dir` is left out because it writes files; paths name files that do not exist.
_VALUE_FLAGS = {
    "--family": _mostly(st.sampled_from(FAMILIES), st.just("bogus")),
    "--m": _small, "--n": _small, "--s": _mostly(st.integers(1, 2).map(str), _small),
    "--pi": _ids,
    "--graph": _mostly(st.just("-"), st.just("no-such-graph.json")),
    "--threshold": st.sampled_from(["constant:0", "constant:2", "constant:3", "constant:-1",
                                    "constant:x", "majority", "strict-majority", "bogus"]),
    "--k": _mostly(st.integers(0, 3), st.integers(-2, 6)).map(str),
    "--seed": st.one_of(st.just("all"), _ids),
    "--seed-file": st.just("no-such-seed.json"),
    "--sequence": _ids,
    "--rng-seed": _small,
    "--max-vertices": st.integers(-1, 16).map(str),
    "--time-budget": st.sampled_from(["0", "5", "-1", "nan", "x"]),
    "--max-size": _small,
    "--claimed": _small,
    "--m-min": _small, "--m-max": _small, "--n-min": _small, "--n-max": _small,
    "--max-cells": st.integers(-1, 40).map(str),
    "--format": _mostly(st.sampled_from(["csv", "json"]), st.just("xml")),
}
_SWITCHES = ("--dot", "--include-sequence", "--bogus", "-h")
_FAMILY = ("--family", "--m", "--n", "--s", "--pi")
_SOURCE = ("--graph", *_FAMILY, "--threshold", "--k")
_LIMITS = ("--max-vertices", "--time-budget", "--max-size")
_COMMAND_FLAGS = {
    "gen": (*_FAMILY, "--threshold", "--k", "--dot"),
    "seed": (*_FAMILY, "--include-sequence"),
    "simulate": (*_SOURCE, "--seed", "--seed-file", "--rng-seed"),
    "verify": (*_SOURCE, "--seed", "--seed-file", "--sequence"),
    "bounds": _SOURCE,
    "exact": (*_SOURCE, *_LIMITS),
    "check-optimal": (*_SOURCE, "--claimed", *_LIMITS),
    "table": ("--m-min", "--m-max", "--n-min", "--n-max", "--max-cells", "--format"),
    "export-dot": ("--graph", *_FAMILY),
}


def _flag_tokens(flag: str):
    if flag in _SWITCHES:
        return st.just([flag])
    return _VALUE_FLAGS[flag].map(lambda value: [flag, value])


def _family_part(families=FAMILIES):
    family = _mostly(st.sampled_from(families), st.just("bogus"))
    return st.tuples(family, _small, _small, _VALUE_FLAGS["--s"]).map(
        lambda t: ["--family", t[0], "--m", t[1], "--n", t[2], "--s", t[3]]
    )


_source = st.one_of(_family_part(), _flag_tokens("--graph"))
_threshold = st.one_of(_flag_tokens("--k"), _flag_tokens("--threshold"))
# What each command needs to get past its usage checks; each part is dropped
# one time in ten, and random flags follow.
_BASE = {
    "gen": (_family_part(),),
    "seed": (_family_part(("cordalis", "gpg", "cp")),),
    "simulate": (_source, _threshold, _flag_tokens("--seed")),
    "verify": (_source, _threshold, _flag_tokens("--seed")),
    "bounds": (_source, _threshold),
    "exact": (_source, _threshold),
    "check-optimal": (_source, _threshold, _flag_tokens("--claimed")),
    "table": (_flag_tokens("--m-max"), _flag_tokens("--n-max")),
    "export-dot": (_source,),
}


def _command_line(command: str):
    base = st.tuples(*(_mostly(part, st.just([])) for part in _BASE.get(command, ())))
    own = st.sampled_from(_COMMAND_FLAGS.get(command, _SWITCHES)).flatmap(_flag_tokens)
    stray = st.one_of(  # a flag of another command, a switch, or a stray token
        st.sampled_from(sorted(_VALUE_FLAGS) + list(_SWITCHES)).flatmap(_flag_tokens),
        _junk.map(lambda t: [t]),
    )
    extra = st.lists(_mostly(own, stray), max_size=4)
    return st.tuples(base, extra).map(
        lambda t: [command, *(tok for part in (*t[0], *t[1]) for tok in part)]
    )


_argv = _mostly(st.sampled_from(sorted(_COMMAND_FLAGS)), st.just("bogus")).flatmap(_command_line)


def _graph_document(n: int):
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    return st.fixed_dictionaries(
        {
            "format": st.just("tss-graph-v1"),
            "n": st.just(n),
            "edges": st.lists(pair, max_size=2 * n).map(lambda es: [e for e in es if e[0] != e[1]]),
        },
        optional={"thresholds": st.lists(st.integers(0, 3), min_size=n, max_size=n)},
    )


_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.just(10**15),
                         st.floats(allow_nan=False, allow_infinity=False), _chars)
_malformed_document = st.fixed_dictionaries(
    {"format": st.sampled_from(["tss-graph-v1", "tss-graph-v2"])},
    optional={
        "n": st.one_of(st.integers(-2, 10), _json_scalar),
        "edges": st.one_of(st.lists(st.lists(st.integers(-2, 10), max_size=3), max_size=16),
                           _json_scalar),
        "labels": st.one_of(st.dictionaries(st.text("019-+ ", max_size=2),
                                            st.one_of(_chars, _json_scalar),
                                            max_size=10),
                            st.lists(_chars, max_size=3), _json_scalar),
        "thresholds": st.one_of(st.lists(st.one_of(st.integers(-1, 5), _json_scalar), max_size=10),
                                _json_scalar),
    },
)
_well_formed = st.integers(0, 8).flatmap(_graph_document).map(json.dumps)
_stdin = st.one_of(_well_formed, _well_formed, _malformed_document.map(json.dumps),
                   _chars)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=_argv, stdin_text=_stdin)
def test_main_exits_0_1_or_2_and_never_raises(argv, stdin_text):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # reported as a failing example, not let through
        code = f"SystemExit({exc.code})"
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)

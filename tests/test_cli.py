import json

from tss import graph_from_json
from tss.cli import main


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


def test_gen_missing_param_exit_2(capsys):
    code, _, err = run(capsys, "gen", "--family", "gpg", "--m", "5")
    assert code == 2


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


def test_exact_small_torus(capsys):
    code, out, _ = run(
        capsys, "exact", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3"
    )
    assert code == 0
    assert json.loads(out)["optimum"] == 4


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

"""Run a fixed list of `tss` command lines in-process and print what each gives.

    python3 tools/cli_matrix.py > matrix.jsonl

Prints one JSON line per command line, {"argv", "stdin", "code", "stdout",
"stderr"}, then a last line `sha256 <hex>` over all of them. Run it in two
checkouts and diff the outputs to see which command lines a change moved.

The `tss` package comes from the `src/` next to this script. The list covers
every subcommand, every family, the threshold spellings, graph documents on
stdin and in files, `table` in csv and json, and malformed input. A command
that raises out of `main` (a broken 0/1/2 exit-code contract) is recorded
with the exception's type as its code. Files named in the list are written
to a temporary working directory, so every path in the output is relative.
Help text is formatted for COLUMNS=80. Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TORI = ("mesh", "cordalis", "serpentinus")
FAMILY_ARGS = {
    "path": ("--n", "6"),
    "cycle": ("--n", "6"),
    "cp": ("--n", "5", "--pi", "1,3,5,2,4"),
    "gpg": ("--m", "5", "--s", "2"),
    "mesh": ("--m", "4", "--n", "4"),
    "cordalis": ("--m", "4", "--n", "3"),
    "serpentinus": ("--m", "4", "--n", "3"),
}
BAD_FAMILY_ARGS = (
    ("path", "--n", "0"), ("path",), ("cycle", "--n", "2"), ("cp", "--n", "3"),
    ("cp", "--n", "4", "--pi", "1,2,3"), ("cp", "--n", "4", "--pi", "1,1,2,3"),
    ("cp", "--n", "4", "--pi", "a,b,c,d"), ("gpg", "--m", "5", "--s", "3"),
    ("gpg", "--m", "2", "--s", "1"), ("gpg", "--m", "5"),
    ("mesh", "--m", "2", "--n", "4"), ("mesh", "--m", "4", "--n", "2"),
    ("mesh", "--m", "4"), ("cordalis", "--m", "2", "--n", "3"),
    ("cordalis", "--m", "3", "--n", "1"), ("serpentinus", "--m", "2", "--n", "3"),
    ("serpentinus", "--m", "5", "--n", "2"), ("serpentinus", "--m", "3", "--n", "1"),
    ("cordalis", "--m", "1000000", "--n", "1000000"), ("path", "--n", "100000000"),
    ("cp", "--n", "100000000"), ("cordalis", "--m", "-3", "--n", "-3"),
    ("serpentinus", "--m", "6000000", "--n", "2"), ("cp", "--n", "5", "--pi", ""),
)
THRESHOLDS = (
    (), ("--k", "1"), ("--k", "2"), ("--k", "3"), ("--k", "4"), ("--k", "0"), ("--k", "-1"),
    ("--threshold", "constant:3"), ("--threshold", "constant:03"),
    ("--threshold", "constant:+3"), ("--threshold", "constant:2"),
    ("--threshold", "majority"), ("--threshold", "strict-majority"),
    ("--threshold", "bogus"), ("--threshold", "constant:x"), ("--threshold", "constant:"),
    ("--threshold", ""), ("--threshold", "constant:3", "--k", "2"),
)


def _doc(n: int, edges: list, thresholds: list | None = None) -> str:
    doc = {"format": "tss-graph-v1", "n": n, "edges": edges}
    if thresholds is not None:
        doc["thresholds"] = thresholds
    return json.dumps(doc)


def _cordalis_edges(m: int, n: int) -> list:
    N = m * n
    return sorted({tuple(sorted((k, (k + d) % N))) for k in range(N) for d in (1, n)})


CYCLE6 = [[i, (i + 1) % 6] for i in range(6)]
DOCS = {
    "cycle6": _doc(6, CYCLE6),
    "cycle6_k2": _doc(6, CYCLE6, [2] * 6),
    "cycle6_mixed": _doc(6, CYCLE6, [1, 2, 1, 2, 1, 2]),
    "cordalis33_k3": _doc(9, [list(e) for e in _cordalis_edges(3, 3)], [3] * 9),
    "split": _doc(4, [[0, 1], [2, 3]], [1] * 4),
    "empty": _doc(0, []),
    "bad_json": '{"format": "tss-graph-v1", "n": 3,',
    "bad_format": '{"format": "other", "n": 1, "edges": []}',
    "self_loop": _doc(2, [[0, 0]]),
    "out_of_range": _doc(2, [[0, 5]]),
    "short_thresholds": _doc(3, [[0, 1], [1, 2]], [1]),
    "bad_labels": '{"format": "tss-graph-v1", "n": 2, "edges": [[0, 1]], '
                  '"labels": {"1": "a", "0": "b"}}',
    "huge_n": '{"format": "tss-graph-v1", "n": 100000000, "edges": []}',
}
FILES = {
    "g.json": DOCS["cycle6_k2"],
    "seed.txt": "0 3",
    "seed.json": "[0, 2, 4]",
    "seed_obj.json": '{"seed": [0]}',
}


def _commands() -> list[tuple[list[str], str | None]]:
    cmds: list[tuple[list[str], str | None]] = []

    def add(*argv: str, stdin: str | None = None) -> None:
        cmds.append((list(argv), stdin))

    add()
    add("--help")
    add("nope")
    for sub in ("gen", "seed", "simulate", "verify", "bounds", "exact", "check-optimal",
                "table", "export-dot"):
        add(sub, "--help")
        add(sub)
    for fam, sizes in FAMILY_ARGS.items():
        add("gen", "--family", fam, *sizes)
        add("gen", "--family", fam, *sizes, "--dot")
        add("export-dot", "--family", fam, *sizes)
        add("simulate", "--family", fam, *sizes, "--k", "2", "--seed", "0,1")
        add("verify", "--family", fam, *sizes, "--k", "2", "--seed", "all")
        add("exact", "--family", fam, *sizes, "--k", "2")
        for th in THRESHOLDS:
            add("bounds", "--family", fam, *sizes, *th)
    for th in THRESHOLDS:
        add("gen", "--family", "cordalis", "--m", "3", "--n", "3", *th)
        add("simulate", "--family", "cordalis", "--m", "4", "--n", "3", "--seed", "0,4,8", *th)
        add("exact", "--family", "cycle", "--n", "5", *th)
    for fam, *sizes in BAD_FAMILY_ARGS:
        for sub in ("gen", "bounds", "exact"):
            add(sub, "--family", fam, *sizes, "--k", "3")
        add("simulate", "--family", fam, *sizes, "--k", "3", "--seed", "0")
    for variant in TORI:
        for m, n in ((2, 2), (3, 2), (2, 3), (3, 3), (9, 9), (5, 2), (12, 14)):
            add("bounds", "--family", variant, "--m", str(m), "--n", str(n))
            add("bounds", "--family", variant, "--m", str(m), "--n", str(n),
                "--threshold", "bogus")
    # seed
    for m, n in ((3, 2), (4, 3), (6, 5), (9, 9), (4, 4), (7, 7), (11, 5), (13, 8), (2, 3),
                 (3, 1)):
        add("seed", "--family", "cordalis", "--m", str(m), "--n", str(n))
    add("seed", "--family", "cordalis", "--m", "4", "--n", "4", "--include-sequence")
    add("seed", "--family", "gpg", "--m", "7", "--s", "2", "--include-sequence")
    add("seed", "--family", "gpg", "--m", "7", "--s", "4")
    add("seed", "--family", "cp", "--n", "5", "--pi", "2,4,1,5,3")
    add("seed", "--family", "cp", "--n", "5")
    add("seed", "--family", "cp", "--n", "3")
    add("seed", "--family", "mesh", "--m", "4", "--n", "4")
    # simulate and verify
    add("simulate", "--family", "cordalis", "--m", "4", "--n", "3", "--k", "3",
        "--seed", "0,4,8", "--rng-seed", "7")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed", "0,3",
        "--dot-dir", "rounds")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed-file", "seed.txt")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed-file", "seed.json")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed-file", "seed_obj.json")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed-file", "missing")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed", "0,9")
    add("simulate", "--family", "cycle", "--n", "6", "--k", "2", "--seed", "0,x")
    add("verify", "--family", "path", "--n", "3", "--k", "2", "--seed", "0,2",
        "--sequence", "1")
    add("verify", "--family", "path", "--n", "3", "--k", "2", "--seed", "1",
        "--sequence", "0,2")
    add("verify", "--family", "path", "--n", "3", "--k", "2", "--seed", "0",
        "--sequence", "1,1")
    add("verify", "--family", "path", "--n", "3", "--k", "2", "--seed", "0",
        "--sequence", "0")
    add("verify", "--family", "path", "--n", "3", "--k", "2", "--seed", "0",
        "--sequence", "7")
    add("verify", "--family", "path", "--n", "3", "--k", "2", "--seed", "0", "--sequence", "")
    # graph documents on stdin and in files
    for name, text in DOCS.items():
        add("simulate", "--graph", "-", "--seed", "0,3", stdin=text)
        add("verify", "--graph", "-", "--k", "1", "--seed", "0", stdin=text)
        add("bounds", "--graph", "-", stdin=text)
        add("bounds", "--graph", "-", "--k", "2", stdin=text)
        add("exact", "--graph", "-", stdin=text)
        add("check-optimal", "--graph", "-", "--claimed", "2", stdin=text)
        add("export-dot", "--graph", "-", stdin=text)
    add("bounds", "--graph", "g.json")
    add("bounds", "--graph", "g.json", "--threshold", "constant:3")
    add("bounds", "--graph", "g.json", "--family", "cycle", "--n", "6")
    add("bounds", "--graph", "missing.json", "--k", "2")
    add("export-dot", "--graph", "g.json")
    add("simulate", "--graph", "g.json", "--seed", "0,3")
    # exact and check-optimal
    add("exact", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3")
    add("exact", "--family", "cordalis", "--m", "4", "--n", "4", "--k", "3")
    add("exact", "--family", "cordalis", "--m", "4", "--n", "4", "--k", "3", "--max-size", "3")
    add("exact", "--family", "cordalis", "--m", "4", "--n", "4", "--k", "3", "--max-size", "20")
    add("exact", "--family", "cordalis", "--m", "5", "--n", "5", "--k", "3")
    add("exact", "--family", "cordalis", "--m", "5", "--n", "5", "--k", "3",
        "--max-vertices", "25")
    add("exact", "--family", "cordalis", "--m", "1000", "--n", "1000", "--k", "3")
    add("exact", "--family", "gpg", "--m", "8", "--s", "3", "--threshold", "majority")
    add("exact", "--family", "path", "--n", "7", "--k", "2", "--time-budget", "0")
    for claimed in ("-1", "0", "3", "4", "5", "10", "11"):
        add("check-optimal", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3",
            "--claimed", claimed)
    add("check-optimal", "--family", "cordalis", "--m", "3", "--n", "3", "--k", "3")
    add("check-optimal", "--family", "cordalis", "--m", "4", "--n", "5", "--k", "3",
        "--claimed", "8", "--time-budget", "0")
    add("check-optimal", "--family", "gpg", "--m", "6", "--s", "1", "--k", "2",
        "--claimed", "4", "--max-vertices", "8")
    # table
    for fmt in ("csv", "json"):
        for rng in (("3", "8", "2", "8"), ("1", "4", "0", "3"), ("3", "40", "3", "3"),
                    ("-2", "3", "-2", "3"), ("3", "3000", "5", "9"), ("5", "3", "2", "4")):
            m_min, m_max, n_min, n_max = rng
            add("table", "--m-min", m_min, "--m-max", m_max, "--n-min", n_min,
                "--n-max", n_max, "--max-cells", "60", "--format", fmt)
    add("table", "--m-max", "6", "--n-max", "6")
    add("table", "--m-max", "6", "--n-max", "6", "--max-cells", "-1")
    add("table", "--m-max", "x", "--n-max", "6")
    add("table", "--m-max", "6", "--n-max", "6", "--format", "xml")
    # malformed flags
    add("gen", "--family", "hexagonal", "--n", "3")
    add("gen", "--family", "path", "--n", "x")
    add("bounds", "--family", "path", "--n", "4", "--graph", "g.json")
    add("bounds")
    add("exact", "--family", "path", "--n", "4", "--k", "2", "--max-vertices", "x")
    return cmds


def _run(main, argv: list[str], stdin: str | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # recorded, not raised: a broken exit-code contract
        code = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    os.environ["COLUMNS"] = "80"
    from tss.cli import main as tss_main

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text)
            for argv, stdin in _commands():
                line = json.dumps(_run(tss_main, argv, stdin))
                digest.update(line.encode() + b"\n")
                print(line)
        finally:
            os.chdir(cwd)
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

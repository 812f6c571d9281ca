"""Command-line front end.

Subcommands: gen, seed, simulate, verify, bounds, exact, check-optimal,
table, export-dot.  JSON goes to stdout, diagnostics to stderr; the exit
code is the only process-level signal: 0 on success/verified/confirmed,
1 on refuted/not-influencing/failed rows, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from . import bounds as bounds_mod
from . import constructions, families
from .activation import (
    is_influencing,
    parallel_trace,
    sequential_closure,
    validate_convinced_sequence,
)
from .constructions import GAP_ONE, formula_value, seed_torus_cordalis
from .errors import BadParam, TssError
from .families import identity_permutation, permutation_from_one_based
from .graph import (MAX_VERTICES, Graph, check_vertex_count, check_vertex_limit, graph_from_json,
                    graph_to_dot, graph_to_json, int_list)
from .solver import SolveLimits, exact_min_seed, verify_optimality
from .thresholds import (
    constant_threshold,
    majority_threshold,
    strict_majority_threshold,
)

# --family: (size flags in the order they are read, graph constructor in
# `families`, seed builder in `constructions` or None). Both are looked up by
# name at call time, so a wrapper later installed on either module is used.
FAMILY_TABLE = {
    "path": (("n",), "path", None),
    "cycle": (("n",), "cycle", None),
    "cp": (("n", "pi"), "cycle_permutation", "seed_cycle_permutation"),
    "gpg": (("m", "s"), "generalized_petersen", "seed_generalized_petersen"),
    "mesh": (("m", "n"), "toroidal_mesh", None),
    "cordalis": (("m", "n"), "torus_cordalis", "seed_torus_cordalis"),
    "serpentinus": (("m", "n"), "torus_serpentinus", None),
}
FAMILIES = tuple(FAMILY_TABLE)
TABLE_COLUMNS = ("m", "n", "case", "phi", "size", "lower", "status")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_ids(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.replace(",", " ").split()]


def _permutation(text: str | None, n: int) -> tuple[int, ...]:
    """--pi (1-based images) as a 0-based permutation of n, or the identity
    when it is absent; the vertex cap is checked before that is built."""
    if text is None:
        check_vertex_count(2 * n, "2n")
        return identity_permutation(n)
    images = _parse_ids(text)
    if len(images) != n:
        raise TssError(f"permutation needs {n} entries, got {len(images)}")
    return permutation_from_one_based(images)


def _vertex_count(family: str, sizes: list) -> int:
    """Vertices of a --family graph from its size flags: n for path and cycle,
    2n for cp, 2m for gpg, mn for a torus. A negative size counts as 0, so
    that the constructor names it."""
    first = max(sizes[0], 0)
    if family in ("path", "cycle"):
        return first
    if family in ("cp", "gpg"):
        return 2 * first
    return first * max(sizes[1], 0)


def _family_sizes(args, max_vertices: int = MAX_VERTICES) -> list:
    """The values of the --family's size flags, in FAMILY_TABLE order. A
    family on more than `max_vertices` vertices is refused before --pi is
    read; above MAX_VERTICES the constructor refuses it itself."""
    flags = FAMILY_TABLE[args.family][0]
    sizes = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, sizes):
        if value is None and flag != "pi":
            raise TssError(f"--family {args.family} needs --{flag}")
    count = _vertex_count(args.family, sizes)
    if count <= MAX_VERTICES:
        check_vertex_limit(count, max_vertices)
    if flags[-1] == "pi":
        sizes[-1] = _permutation(sizes[-1], sizes[0])
    return sizes


def _build_family(args, max_vertices: int = MAX_VERTICES) -> Graph:
    return getattr(families, FAMILY_TABLE[args.family][1])(*_family_sizes(args, max_vertices))


def _one_source(args) -> None:
    if args.graph and args.family:
        raise BadParam("give either --graph or --family, not both")


def _load_graph(args, max_vertices: int = MAX_VERTICES) -> tuple[Graph, list[int] | None]:
    """Graph from --graph (path or '-') or from family flags, refused above
    `max_vertices` before it is built."""
    _one_source(args)
    if args.graph:
        text = sys.stdin.read() if args.graph == "-" else Path(args.graph).read_text()
        return graph_from_json(text, max_vertices)
    if args.family:
        return _build_family(args, max_vertices), None
    raise TssError("need either --graph or --family")


def _threshold_rule(args) -> tuple[str, int | None] | None:
    """--threshold or --k, as (name, k): ("constant", k), ("majority", None)
    or ("strict-majority", None). None when neither flag is given."""
    spec = args.threshold
    if spec is not None and args.k is not None:
        raise BadParam("give either --threshold or --k, not both")
    if spec is None:
        return None if args.k is None else ("constant", args.k)
    if spec in ("majority", "strict-majority"):
        return spec, None
    if spec.startswith("constant:"):
        return "constant", int(spec.split(":", 1)[1])
    raise TssError(f"bad threshold spec {spec!r}; use constant:<k>|majority|strict-majority")


def _thresholds(rule: tuple[str, int | None] | None, g: Graph,
                doc_thresholds: list[int] | None):
    if rule is None:
        if doc_thresholds is not None:
            return doc_thresholds
        raise TssError("need --threshold (or --k, or thresholds in the graph document)")
    name, k = rule
    if name == "constant":
        return constant_threshold(g, k)
    return majority_threshold(g) if name == "majority" else strict_majority_threshold(g)


def _seed_ids(args, g: Graph) -> list[int]:
    if args.seed_file:
        text = Path(args.seed_file).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return _parse_ids(text)
        if not isinstance(doc, list):
            raise BadParam("a JSON seed file must hold a list of vertex ids")
        return int_list(doc, "seed id")
    if args.seed is not None:
        if args.seed == "all":
            return list(g.vertices())
        return _parse_ids(args.seed)
    raise TssError("need --seed or --seed-file")


def _add_family_flags(
    p: argparse.ArgumentParser, families: Sequence[str] = FAMILIES, required: bool = False
) -> None:
    p.add_argument("--family", choices=families, required=required)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--pi", help="1-based permutation images, comma separated")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph JSON file, or - for stdin")
    _add_family_flags(p)


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", help="constant:<k> | majority | strict-majority")
    p.add_argument("--k", type=int, help="shorthand for --threshold constant:<k>")


def cmd_gen(args) -> int:
    g = _build_family(args)
    rule = _threshold_rule(args)
    theta = None if rule is None else _thresholds(rule, g, None)
    if args.dot:  # DOT carries no thresholds, but bad threshold flags still fail
        sys.stdout.write(graph_to_dot(g))
        return 0
    print(graph_to_json(g, theta))
    return 0


def cmd_seed(args) -> int:
    report = getattr(constructions, FAMILY_TABLE[args.family][2])(*_family_sizes(args))
    doc = report.to_dict()
    if args.include_sequence:
        doc["sequence"] = list(report.convinced_sequence)
    print(json.dumps(doc))
    return 0  # every report has passed the simulation gate


def cmd_simulate(args) -> int:
    g, doc_th = _load_graph(args)
    theta = _thresholds(_threshold_rule(args), g, doc_th)
    seed = _seed_ids(args, g)
    trace = parallel_trace(g, theta, seed)
    doc = trace.to_dict()
    if args.rng_seed is not None:
        seq_final = sequential_closure(g, theta, seed, args.rng_seed)
        doc["sequential_matches"] = seq_final == trace.final
    print(json.dumps(doc))
    if args.dot_dir:
        out = Path(args.dot_dir)
        out.mkdir(parents=True, exist_ok=True)
        active = set(trace.seed)
        (out / "round00.dot").write_text(graph_to_dot(g, active))
        for t, r in enumerate(trace.rounds, start=1):
            active |= set(r)
            (out / f"round{t:02d}.dot").write_text(graph_to_dot(g, active))
    return 0 if len(trace.final) == g.vertex_count else 1


def cmd_verify(args) -> int:
    g, doc_th = _load_graph(args)
    theta = _thresholds(_threshold_rule(args), g, doc_th)
    seed = _seed_ids(args, g)
    doc: dict = {"seed_size": len(set(seed))}
    if args.sequence is not None:
        check = validate_convinced_sequence(g, theta, seed, _parse_ids(args.sequence))
        fields = dataclasses.asdict(check)
        doc["sequence_ok"] = fields.pop("ok")
        doc.update(fields)
        ok = check.ok and check.full_influence
    else:
        ok = is_influencing(g, theta, seed)
        doc["influences_all"] = ok
    print(json.dumps(doc))
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    _one_source(args)
    rule = _threshold_rule(args)
    # The strip bounds are for threshold 3, which strict majority and
    # constant 3 put on every vertex of a (4-regular) torus.
    strip = rule in (None, ("constant", 3), ("strict-majority", None))
    if strip and args.family in ("mesh", "cordalis", "serpentinus"):
        report = bounds_mod.torus_bounds(*_family_sizes(args), args.family)
    else:
        g, doc_th = _load_graph(args)
        theta = _thresholds(rule, g, doc_th)
        if len(set(theta)) != 1 or theta[0] < 1:
            raise TssError("the degree-counting lower bound needs a constant threshold k >= 1")
        upper = g.vertex_count
        if theta[0] == 2 and args.family in ("gpg", "cp"):
            # the verified seed construction on 2m (2n) vertices is the best known upper bound
            upper = bounds_mod.cubic_seed_size(g.vertex_count // 2)
        report = bounds_mod.BoundsReport(bounds_mod.lower_bound_lemma(g, theta[0]), upper,
                                         "lemma3", "construction")
    print(json.dumps(dataclasses.asdict(report)))
    return 0


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, default=SolveLimits.max_vertices)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--max-size", type=int)


def _solver_inputs(args) -> tuple[SolveLimits, Graph, Sequence[int]]:
    """Limits, graph and thresholds of `exact` or `check-optimal`, read in that order."""
    limits = SolveLimits(args.max_vertices, args.time_budget, args.max_size)
    g, doc_th = _load_graph(args, limits.max_vertices)
    return limits, g, _thresholds(_threshold_rule(args), g, doc_th)


def _print_result(result, fields: tuple[str, ...]) -> None:
    """A solver result's `fields` as one JSON line, its witness sorted."""
    doc = {name: getattr(result, name) for name in fields}
    if doc["witness"] is not None:
        doc["witness"] = sorted(doc["witness"])
    print(json.dumps(doc))


def cmd_exact(args) -> int:
    limits, g, theta = _solver_inputs(args)
    result = exact_min_seed(g, theta, limits)
    _print_result(result, ("optimum", "witness", "nodes_explored", "status"))
    return 0 if result.status == "optimal" else 1


def cmd_check_optimal(args) -> int:
    limits, g, theta = _solver_inputs(args)
    check = verify_optimality(g, theta, args.claimed, limits)
    _print_result(check, ("status", "witness", "reason", "nodes_explored"))
    return 0 if check.status == "confirmed" else 1


def _table_rows(args):
    cap = args.max_cells
    m_max = args.m_max
    if args.n_min >= 1:  # every m above cap // n_min has m * n_min > cap
        m_max = min(m_max, max(cap // args.n_min, 0))
    for m in range(args.m_min, m_max + 1):
        for n in range(args.n_min, args.n_max + 1):
            if m * n > cap:
                if m >= 0:  # m * n never falls as n grows
                    break
                continue
            try:
                report = seed_torus_cordalis(m, n)
            except TssError as exc:
                yield {
                    "m": m, "n": n, "case": "", "phi": "", "size": "",
                    "lower": "", "status": "FAILED", "error": str(exc),
                }
                continue
            case = report.theorem_case
            status = "fallback" if case == "fallback" else report.claimed_value_kind
            if status == GAP_ONE:
                status = "gap_one"
            yield {
                "m": m, "n": n, "case": case, "phi": formula_value(case, m, n),
                "size": report.size, "lower": report.lower_bound, "status": status,
            }


def cmd_table(args) -> int:
    rows = list(_table_rows(args))
    failed = any(r["status"] == "FAILED" for r in rows)
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print(",".join(TABLE_COLUMNS))
        for r in rows:
            print(",".join(str(r[c]) for c in TABLE_COLUMNS))
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    g, _ = _load_graph(args)
    sys.stdout.write(graph_to_dot(g))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `tss` parser, built once per process and shared by every `main`
    call; callers must not change it. Reuse shows in no output: a parse keeps
    no state in the parser, and help and usage text get a new formatter, which
    reads COLUMNS, on each call."""
    parser = argparse.ArgumentParser(
        prog="tss",
        description="Target set selection toolkit: graph generators, theorem seed "
        "constructions, activation simulation, bounds, and an exact solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph as JSON or DOT")
    _add_family_flags(p, required=True)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("seed", help="build and verify a theorem seed set")
    _add_family_flags(p, ("cordalis", "gpg", "cp"), required=True)
    p.add_argument("--include-sequence", action="store_true")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("simulate", help="run the parallel activation process")
    _add_graph_source(p)
    _add_threshold_flags(p)
    p.add_argument("--seed", help="comma/space separated vertex ids, or 'all'")
    p.add_argument("--seed-file")
    p.add_argument("--dot-dir", help="write one DOT file per round here")
    p.add_argument("--rng-seed", type=int, help="also cross-check a random sequential run")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check a seed (and optional sequence) for full influence")
    _add_graph_source(p)
    _add_threshold_flags(p)
    p.add_argument("--seed", help="comma/space separated vertex ids, or 'all'")
    p.add_argument("--seed-file")
    p.add_argument("--sequence", help="claimed convinced sequence, comma separated")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="closed-form lower/upper bounds")
    _add_graph_source(p)
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "exact", help="exact minimum seed on a small instance",
        description="Status optimal (exit 0), or exit 1 with above_max_size (no seed of "
        "size <= --max-size exists) or budget_exceeded (--time-budget ran out).")
    _add_graph_source(p)
    _add_threshold_flags(p)
    _add_limit_flags(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("check-optimal", help="confirm or refute a claimed optimum")
    _add_graph_source(p)
    _add_threshold_flags(p)
    p.add_argument("--claimed", type=int, required=True)
    _add_limit_flags(p)
    p.set_defaults(func=cmd_check_optimal)

    p = sub.add_parser("table", help="torus cordalis constructions over a parameter range")
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--max-cells", type=int, default=900, help="skip pairs with m*n above this")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export-dot", help="DOT for a graph document or family")
    _add_graph_source(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    except (TssError, OSError, ValueError) as exc:
        return _fail(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

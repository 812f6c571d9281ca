"""Command-line front end.

Subcommands: gen, seed, simulate, verify, bounds, exact, check-optimal,
table, export-dot.  JSON goes to stdout, diagnostics to stderr; the exit
code is the only process-level signal: 0 on success/verified/confirmed,
1 on refuted/not-influencing/failed rows, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
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
from .constructions import formula_value, seed_torus_cordalis
from .errors import BadParam, TssError
from .families import identity_permutation, permutation_from_one_based
from .graph import Graph, check_vertex_count, graph_from_json, graph_to_dot, graph_to_json, int_list
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
    if not text:
        check_vertex_count(2 * n, "2n")
        return identity_permutation(n)
    images = [int(x) for x in text.replace(",", " ").split()]
    if len(images) != n:
        raise TssError(f"permutation needs {n} entries, got {len(images)}")
    return permutation_from_one_based(images)


def _family_sizes(args) -> list:
    """The values of the --family's size flags, in FAMILY_TABLE order."""
    sizes = []
    for flag in FAMILY_TABLE[args.family][0]:
        value = getattr(args, flag)
        if flag == "pi":
            value = _permutation(value, sizes[0])
        elif value is None:
            raise TssError(f"--family {args.family} needs --{flag}")
        sizes.append(value)
    return sizes


def _build_family(args) -> Graph:
    return getattr(families, FAMILY_TABLE[args.family][1])(*_family_sizes(args))


def _one_source(args) -> None:
    if getattr(args, "graph", None) and getattr(args, "family", None):
        raise BadParam("give either --graph or --family, not both")


def _load_graph(args) -> tuple[Graph, list[int] | None]:
    """Graph from --graph (path or '-') or from family flags."""
    _one_source(args)
    if getattr(args, "graph", None):
        text = sys.stdin.read() if args.graph == "-" else Path(args.graph).read_text()
        return graph_from_json(text)
    if getattr(args, "family", None):
        return _build_family(args), None
    raise TssError("need either --graph or --family")


def _thresholds(args, g: Graph, doc_thresholds: list[int] | None):
    spec = getattr(args, "threshold", None)
    if spec is None and getattr(args, "k", None) is not None:
        spec = f"constant:{args.k}"
    if spec is None:
        if doc_thresholds is not None:
            return doc_thresholds
        raise TssError("need --threshold (or --k, or thresholds in the graph document)")
    if spec == "majority":
        return majority_threshold(g)
    if spec == "strict-majority":
        return strict_majority_threshold(g)
    if spec.startswith("constant:"):
        return constant_threshold(g, int(spec.split(":", 1)[1]))
    raise TssError(f"bad threshold spec {spec!r}; use constant:<k>|majority|strict-majority")


def _seed_ids(args, g: Graph) -> list[int]:
    if getattr(args, "seed_file", None):
        text = Path(args.seed_file).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return _parse_ids(text)
        if not isinstance(doc, list):
            raise BadParam("a JSON seed file must hold a list of vertex ids")
        return int_list(doc, "seed id")
    if getattr(args, "seed", None) is not None:
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
    if args.dot:
        sys.stdout.write(graph_to_dot(g))
        return 0
    thresholds = None
    if args.threshold or args.k is not None:
        thresholds = _thresholds(args, g, None)
    print(graph_to_json(g, thresholds))
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
    theta = _thresholds(args, g, doc_th)
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
    theta = _thresholds(args, g, doc_th)
    seed = _seed_ids(args, g)
    doc: dict = {"seed_size": len(set(seed))}
    if args.sequence is not None:
        order = _parse_ids(args.sequence)
        check = validate_convinced_sequence(g, theta, seed, order)
        doc.update(
            {
                "sequence_ok": check.ok,
                "full_influence": check.full_influence,
                "failing_position": check.failing_position,
                "active_neighbors": check.active_neighbors,
                "required": check.required,
            }
        )
        ok = check.ok and check.full_influence
    else:
        ok = is_influencing(g, theta, seed)
        doc["influences_all"] = ok
    print(json.dumps(doc))
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    _one_source(args)
    if args.family in ("cordalis", "mesh", "serpentinus"):
        m, n = _family_sizes(args)
        report = bounds_mod.torus_bounds(m, n, args.family)
        doc = {
            "lower": report.lower,
            "upper": report.upper,
            "lower_source": report.lower_source,
            "upper_source": report.upper_source,
        }
    else:
        g, doc_th = _load_graph(args)
        theta = _thresholds(args, g, doc_th)
        if len(set(theta)) != 1 or theta[0] < 1:
            raise TssError("the degree-counting lower bound needs a constant threshold k >= 1")
        upper = g.vertex_count
        if theta[0] == 2 and args.family in ("gpg", "cp"):
            # the verified seed construction on 2m (2n) vertices is the best known upper bound
            upper = bounds_mod.cubic_seed_size(g.vertex_count // 2)
        doc = {
            "lower": bounds_mod.lower_bound_lemma(g, theta[0]),
            "upper": upper,
            "lower_source": "lemma3",
            "upper_source": "construction",
        }
    print(json.dumps(doc))
    return 0


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, default=24)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--max-size", type=int)


def _limits(args) -> SolveLimits:
    return SolveLimits(
        max_vertices=args.max_vertices,
        time_budget_s=args.time_budget,
        max_size=args.max_size,
    )


def cmd_exact(args) -> int:
    g, doc_th = _load_graph(args)
    theta = _thresholds(args, g, doc_th)
    result = exact_min_seed(g, theta, _limits(args))
    print(
        json.dumps(
            {
                "optimum": result.optimum,
                "witness": sorted(result.witness) if result.witness is not None else None,
                "nodes_explored": result.nodes_explored,
                "status": result.status,
            }
        )
    )
    return 0 if result.status == "optimal" else 1


def cmd_check_optimal(args) -> int:
    g, doc_th = _load_graph(args)
    theta = _thresholds(args, g, doc_th)
    check = verify_optimality(g, theta, args.claimed, _limits(args))
    print(
        json.dumps(
            {
                "status": check.status,
                "witness": sorted(check.witness) if check.witness is not None else None,
                "reason": check.reason,
                "nodes_explored": check.nodes_explored,
            }
        )
    )
    return 0 if check.status == "confirmed" else 1


def _table_rows(args):
    cap = args.max_cells
    for m in range(args.m_min, args.m_max + 1):
        for n in range(args.n_min, args.n_max + 1):
            if m * n > cap:
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
            phi = formula_value(case, m, n)
            if phi is None:
                phi = bounds_mod.flocchini_upper(m, n, "cordalis")
            status = {
                "exact": "exact",
                "upper_bound": "upper_bound",
                "upper_bound_gap_one": "gap_one",
            }[report.claimed_value_kind]
            if case == "fallback":
                status = "fallback"
            yield {
                "m": m, "n": n, "case": case, "phi": phi,
                "size": report.size, "lower": report.lower_bound, "status": status,
            }


def cmd_table(args) -> int:
    rows = list(_table_rows(args))
    failed = any(r["status"] == "FAILED" for r in rows)
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print("m,n,case,phi,size,lower,status")
        for r in rows:
            print(f"{r['m']},{r['n']},{r['case']},{r['phi']},{r['size']},{r['lower']},{r['status']}")
    return 1 if failed else 0


def cmd_export_dot(args) -> int:
    g, _ = _load_graph(args)
    sys.stdout.write(graph_to_dot(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
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

"""The four benchmark workloads.

Each builder takes a `random.Random` made from the workload seed, generates
the inputs, and returns a `Workload`: one cycle of operations that the runner
repeats in a closed loop, a short warm-up, and an oracle check per operation.
Operations look the library up through its modules at call time, so the
traced run's wrappers see every call.  What only the oracle needs (reference
adjacency, thresholds, expected answers) is made on first use by a check,
after the timed loop, so it is not counted as set-up.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracle as ref
import tss.activation as act
import tss.cli as cli
import tss.constructions as con
import tss.families as fam
import tss.solver as sol
import tss.thresholds as thr


@dataclass
class Op:
    key: str  # names the input; equal keys must give equal outputs
    run: Callable[[], object]
    check: Callable[[object], str | None]  # error message, or None when correct


@dataclass
class Workload:
    cycle: list[Op]
    warmup: list[Callable[[], object]]
    digest: Callable[[object], object]  # cheap hashable fingerprint of an output
    # Whole cycles run until --seconds have passed and at least this many
    # are done; see each workload for why its floor is what it is.
    min_cycles: int = 1
    notes: list[str] = field(default_factory=list)


def _report_digest(rep):
    return rep.theorem_case, rep.seed, rep.convinced_sequence


# ---------------------------------------------------------------------------
# table_sweep: every torus cordalis with mn <= 400, the `tss table` traffic
# ---------------------------------------------------------------------------

SWEEP_MAX_CELLS = 400


def _check_cordalis_report(m, n):
    return lambda rep: ref.cordalis_seed_error(m, n, rep.theorem_case, rep.seed, rep.convinced_sequence)


def table_sweep(rng) -> Workload:
    pairs = [(m, n) for m in range(3, SWEEP_MAX_CELLS // 2 + 1)
             for n in range(2, SWEEP_MAX_CELLS // 3 + 1) if m * n <= SWEEP_MAX_CELLS]
    rng.shuffle(pairs)
    cycle = [Op(f"{m}x{n}", lambda m=m, n=n: con.seed_torus_cordalis(m, n), _check_cordalis_report(m, n))
             for m, n in pairs]
    warmup = [lambda p=p: con.seed_torus_cordalis(*p) for p in ((3, 3), (10, 10), (13, 14))]
    return Workload(cycle, warmup, _report_digest, min_cycles=6,  # six windows for the tail
                    notes=[f"{len(pairs)} pairs with mn <= {SWEEP_MAX_CELLS}"])


# ---------------------------------------------------------------------------
# large_torus: one big torus per case family, built, seeded and re-checked
# ---------------------------------------------------------------------------

LARGE_CELLS = 15_000


def _n_near(m: int, residue: int) -> int:
    """n = residue (mod 3) with mn closest to LARGE_CELLS."""
    return 3 * round((LARGE_CELLS / m - residue) / 3) + residue


def large_pairs(rng) -> list[tuple[str, int, int]]:
    """Concrete pairs inside fixed bands: m in 100..117, mn within 1% of
    LARGE_CELLS, and a long thin (7, ~2150) torus for the fallback."""
    not_div3 = [m for m in range(100, 118) if m % 3]
    div3 = [m for m in range(100, 118) if m % 3 == 0]
    out = []
    for family, residue in (("T6", 0), ("T7", 1), ("T8", 2)):
        m = rng.choice(not_div3)
        out.append((family, m, _n_near(m, residue)))
    m = rng.choice(div3)
    out.append(("T9", m, round(LARGE_CELLS / m)))
    out.append(("fallback", 7, _n_near(7, 2) + 3 * rng.randrange(-3, 4)))
    return out


def _seed_and_recheck(m: int, n: int):
    g = fam.torus_cordalis(m, n)
    rep = con.seed_torus_cordalis(m, n)
    final = act.closure(g, thr.strict_majority_threshold(g), rep.seed)
    return rep, len(final)


def _check_large(family, m, n):
    def check(out):
        rep, final = out
        if not rep.theorem_case.startswith(family):
            return f"({m},{n}): expected a {family} case, got {rep.theorem_case}"
        if final != m * n:
            return f"({m},{n}): closure reached {final} of {m * n} vertices"
        return ref.cordalis_seed_error(m, n, rep.theorem_case, rep.seed, rep.convinced_sequence)
    return check


def large_torus(rng) -> Workload:
    pairs = large_pairs(rng)
    cycle = [Op(f"{family}:{m}x{n}", lambda m=m, n=n: _seed_and_recheck(m, n), _check_large(family, m, n))
             for family, m, n in pairs]
    rng.shuffle(cycle)
    return Workload(
        cycle,
        [lambda: _seed_and_recheck(20, 20)],
        lambda out: (*_report_digest(out[0]), out[1]),
        # the tail window is the whole run; 11 cycles put the ten samples
        # beyond the tail all on the slowest torus, whatever the cycle count
        min_cycles=11,
        notes=["pairs " + " ".join(f"{f}({m},{n})" for f, m, n in pairs)],
    )


# ---------------------------------------------------------------------------
# exact_small: the exact solver on instances of at most 25 vertices
# ---------------------------------------------------------------------------

def _witness_error(reference, witness, size) -> str | None:
    adj, theta = reference()
    if witness is None or len(witness) != size:
        return f"witness {sorted(witness) if witness else witness} is not of size {size}"
    if ref.final_size(adj, theta, witness) != len(adj):
        return f"witness {sorted(witness)} does not activate every vertex"
    return None


def _reference(build_ref, k):
    """(adjacency, thresholds) of the oracle's own graph, made on first use;
    k is a constant threshold, or None for strict majority."""
    def make():
        adj = build_ref().adjacency()
        return adj, ref.strict_majority(adj) if k is None else [k] * len(adj)
    return functools.cache(make)


def _exact_op(key, g, theta, reference, optimum, max_vertices=24):
    limits = sol.SolveLimits(max_vertices=max_vertices)

    def check(res):
        if res.status != "optimal" or res.optimum != optimum:
            return f"{key}: {res.status} optimum {res.optimum}, expected {optimum}"
        return _witness_error(reference, res.witness, optimum)
    return Op(key, lambda: sol.exact_min_seed(g, theta, limits), check)


def _verify_op(key, g, theta, reference, optimum, max_vertices=24):
    limits = sol.SolveLimits(max_vertices=max_vertices)

    def check(res):
        if res.status != "confirmed":
            return f"{key}: claimed optimum {optimum} was {res.status} ({res.reason})"
        return _witness_error(reference, res.witness, optimum)
    return Op(key, lambda: sol.verify_optimality(g, theta, optimum, limits), check)


# Runs per cycle of the fixed instances (default 1).  The quick ones, of at
# most about 11k search nodes and each well under 0.1 s, run QUICK_REPEATS
# times, so that the instances around the median operation are sampled ten
# times a run rather than twice; the four of about 80k nodes, on which the
# tail falls, run twice.
QUICK_REPEATS = 5
REPEATS = {("cordalis", 3, 3): QUICK_REPEATS, ("cordalis", 3, 7): QUICK_REPEATS,
           ("cordalis", 7, 3): QUICK_REPEATS, ("serpentinus", 4, 5): QUICK_REPEATS,
           ("petersen", 11, 3): QUICK_REPEATS, ("petersen", 12, 5): QUICK_REPEATS,
           ("cordalis", 4, 5): 2, ("cordalis", 5, 4): 2, ("cordalis", 6, 4): 2, ("mesh", 4, 5): 2}


def exact_small(rng) -> Workload:
    cycle = []
    builders = {"cordalis": (fam.torus_cordalis, ref.cordalis), "mesh": (fam.toroidal_mesh, ref.mesh),
                "serpentinus": (fam.torus_serpentinus, ref.serpentinus)}
    for (family, m, n), optimum in ref.KNOWN_OPTIMA.items():
        if family == "petersen":
            g = fam.generalized_petersen(m, n)
            theta = thr.constant_threshold(g, 2)
            reference = _reference(lambda m=m, n=n: ref.petersen(m, n), 2)
        else:
            build, build_ref = builders[family]
            g = build(m, n)
            theta = thr.strict_majority_threshold(g)
            reference = _reference(lambda b=build_ref, m=m, n=n: b(m, n), None)
        key = f"{family}{m}x{n}"
        if (m, n) == (5, 5):  # refutes 8 (about 1.08M subsets), then confirms 9
            cycle.append(_verify_op(key, g, theta, reference, optimum, max_vertices=25))
        else:
            cycle += [_exact_op(key, g, theta, reference, optimum)] * REPEATS.get((family, m, n), 1)
    # Seed-drawn cycle permutation graphs: two solved on 20 vertices (a few
    # ms, quick) and two checked at the optimum on 24 vertices (a full pass
    # over the size-6 subsets, above all but the 5x5 check), so the
    # permutation never moves which instance the median or the tail falls on.
    for i, (n, solve, repeats) in enumerate(((10, _exact_op, QUICK_REPEATS), (10, _exact_op, QUICK_REPEATS),
                                             (12, _verify_op, 1), (12, _verify_op, 1))):
        pi = list(range(n))
        rng.shuffle(pi)
        g = fam.cycle_permutation(n, pi)
        cycle += [solve(f"cp{n}_{i}:{','.join(map(str, pi))}", g, thr.constant_threshold(g, 2),
                        _reference(lambda pi=pi: ref.cycle_permutation(pi), 2),
                        ref.cycle_permutation_optimum(n))] * repeats
    instances = len({op.key for op in cycle})
    rng.shuffle(cycle)
    g = fam.torus_cordalis(3, 3)
    warm = thr.strict_majority_threshold(g)
    return Workload(
        cycle,
        [lambda: sol.exact_min_seed(g, warm)],
        lambda res: (res.status, getattr(res, "optimum", None), res.witness, res.nodes_explored),
        min_cycles=2,  # a cycle takes about 16 s; two give 102 samples
        notes=[f"{instances} instances, {len(cycle)} operations a cycle"],
    )


# ---------------------------------------------------------------------------
# simulate_cli: `tss simulate / verify / gen` in-process on ~6k-vertex documents
# ---------------------------------------------------------------------------

SIM_DENSITIES = (0.02, 0.06, 0.10, 0.15, 0.20, 0.25)


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """`tss <argv>` in this process with `stdin_text` as standard input;
    returns the exit code and the captured standard output."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _ids(vs) -> str:
    return ",".join(map(str, vs))


def _check_simulate(reference, seed):
    def check(out):
        code, text = out
        doc = json.loads(text)
        adj, theta = reference()
        rounds = ref.closure_rounds(adj, theta, seed)
        final = len(set(seed)) + sum(map(len, rounds))
        if doc["seed"] != sorted(set(seed)) or doc["rounds"] != rounds:
            return "simulate: rounds differ from the reference closure"
        if code != (0 if final == len(adj) else 1) or doc["final_size"] != final:
            return f"simulate: exit {code}, final_size {doc['final_size']}, reference {final}"
        if doc.get("sequential_matches") is not True:
            return "simulate: the random sequential run did not match the parallel closure"
        return None
    return check


def _check_gen(r: ref.RefGraph, reference):
    def check(out):
        code, text = out
        doc = json.loads(text)
        if code != 0 or doc["n"] != r.n or doc.get("thresholds") != reference()[1]:
            return f"gen: exit {code}, n {doc.get('n')}"
        if {(u, v) for u, v in doc["edges"]} != r.edges:
            return "gen: edge set differs from the reference family"
        if doc.get("labels") != {str(v): lab for v, lab in r.labels.items()}:
            return "gen: labels differ from the reference family"
        return None
    return check


def simulate_cli(rng) -> Workload:
    pi = list(range(3000))
    rng.shuffle(pi)
    cm = rng.randrange(70, 86)
    cn = round(6000 / cm)
    graphs = {  # name: (reference graph, threshold embedded in the document or None, gen argv)
        "mesh": (ref.mesh(75, 80), None,
                 ["--family", "mesh", "--m", "75", "--n", "80", "--threshold", "strict-majority"]),
        "serpentinus": (ref.serpentinus(75, 80), 3,
                        ["--family", "serpentinus", "--m", "75", "--n", "80", "--k", "3"]),
        "gpg": (ref.petersen(3001, 7), 2, ["--family", "gpg", "--m", "3001", "--s", "7", "--k", "2"]),
        "cp": (ref.cycle_permutation(pi), 2,
               ["--family", "cp", "--n", "3000", "--pi", _ids(p + 1 for p in pi), "--k", "2"]),
        "cordalis": (ref.cordalis(cm, cn), 3,
                     ["--family", "cordalis", "--m", str(cm), "--n", str(cn), "--k", "3"]),
    }
    cycle = []
    prepared = {}
    for name, (r, k, gen_argv) in graphs.items():
        reference = _reference(lambda r=r: r, k)
        doc = json.dumps(ref.graph_doc(r, None if k is None else [k] * r.n))
        extra = ["--threshold", "strict-majority"] if k is None else []
        for density in SIM_DENSITIES:
            seed = rng.sample(range(r.n), round(density * r.n))
            argv = ["simulate", "--graph", "-", *extra, "--seed", _ids(seed), "--rng-seed", str(rng.randrange(1 << 30))]
            cycle.append(Op(f"simulate:{name}:{density}", lambda a=argv, d=doc: run_cli(a, d),
                            _check_simulate(reference, seed)))
        cycle.append(Op(f"gen:{name}", lambda a=["gen", *gen_argv]: run_cli(a), _check_gen(r, reference)))
        prepared[name] = (reference, doc)

    reference, doc = prepared["cordalis"]
    _, text = run_cli(["seed", "--family", "cordalis", "--m", str(cm), "--n", str(cn), "--include-sequence"])
    report = json.loads(text)
    seed, sequence = report["seed"], report["sequence"]
    # Move a vertex from the last tenth of the sequence to a slot in its first
    # half, ahead of the neighbours that activate it, so the copy fails there;
    # the reference validator gives the expected position in the check.
    j = rng.randrange(len(sequence) - len(sequence) // 10, len(sequence))
    i = rng.randrange(len(sequence) // 2)
    bad = sequence[:i] + [sequence[j]] + sequence[i:j] + sequence[j + 1:]
    failure = functools.cache(lambda: ref.first_bad_step(*reference(), seed, bad))

    def check_valid(out):
        code, text = out
        res = json.loads(text)
        adj, theta = reference()
        err = ref.certificate_error(adj, theta, seed, sequence)
        if err:
            return f"tss seed ({cm},{cn}) gave a bad certificate: {err}"
        if code != 0 or not (res["sequence_ok"] and res["full_influence"]):
            return f"verify rejected a valid sequence: exit {code} {res}"
        return None

    def check_bad(out):
        code, text = out
        res = json.loads(text)
        want = failure()
        if want is None:  # the moved vertex still had enough active neighbours
            if code != 0 or not res["sequence_ok"]:
                return f"verify rejected a perturbed sequence the reference accepts: exit {code} {res}"
            return None
        got = (res["failing_position"], res["active_neighbors"], res["required"])
        if code != 1 or res["sequence_ok"] or got != want:
            return f"verify of the perturbed sequence: exit {code}, {got}, expected {want}"
        return None

    def check_seed_only(out):
        code, text = out
        adj, theta = reference()
        ok = ref.final_size(adj, theta, seed) == len(adj)
        if code != (0 if ok else 1) or json.loads(text)["influences_all"] is not ok:
            return f"verify --seed: exit {code}, reference says influences={ok}"
        return None

    base = ["--graph", "-", "--seed", _ids(seed)]
    cycle += [
        Op("verify:sequence", lambda: run_cli(["verify", *base, "--sequence", _ids(sequence)], doc), check_valid),
        Op("verify:perturbed", lambda: run_cli(["verify", *base, "--sequence", _ids(bad)], doc), check_bad),
        Op("verify:seed", lambda: run_cli(["verify", *base], doc), check_seed_only),
        Op("simulate:cordalis:construction", lambda: run_cli(["simulate", *base, "--rng-seed", "1"], doc),
           _check_simulate(reference, seed)),
    ]
    rng.shuffle(cycle)
    small = json.dumps(ref.graph_doc(ref.mesh(10, 10), None))
    warmup = [lambda: run_cli(["simulate", "--graph", "-", "--threshold", "strict-majority",
                               "--seed", "0,11,22,33", "--rng-seed", "1"], small),
              lambda: run_cli(["gen", "--family", "gpg", "--m", "50", "--s", "7", "--k", "2"])]
    return Workload(cycle, warmup, lambda out: out, min_cycles=6,  # two tail windows of three cycles
                    notes=[f"cordalis ({cm},{cn}), perturbed sequence moves step {j + 1} to step {i + 1}"])


WORKLOADS = {
    "table_sweep": table_sweep,
    "large_torus": large_torus,
    "exact_small": exact_small,
    "simulate_cli": simulate_cli,
}

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from tss import (
    build_graph,
    closure,
    constant_threshold,
    cycle_permutation,
    exact_min_seed,
    generalized_petersen,
    is_influencing,
    lower_bound_lemma,
    seed_cordalis_m0mod3,
    seed_cordalis_n1mod3,
    seed_cordalis_n2mod3,
    seed_cordalis_n3,
    seed_cordalis_n3s,
    seed_torus_cordalis,
    sequential_closure,
    torus_cordalis,
    tss_lower_bound_torus,
    validate_convinced_sequence,
    verify_optimality,
)
from tss.constructions import formula_value
from helpers import naive_min_seed, random_connected_graph, random_thresholds

# the four pairwise non-isomorphic cycle permutation graphs over a 5-cycle
CP5_CLASSES = [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 1, 3, 4, 2), (0, 2, 4, 1, 3)]

GOLDEN_VALUES = [
    (seed_cordalis_n3, (11,), (11, 3), 12, "exact"),
    (seed_cordalis_n3, (12,), (12, 3), 13, "exact"),
    (seed_cordalis_n3s, (9, 3), (9, 9), 28, "exact"),
    (seed_cordalis_n3s, (12, 8), (12, 24), 97, "exact"),
    (seed_cordalis_n3s, (12, 7), (12, 21), 86, "upper_bound_gap_one"),
    (seed_cordalis_n1mod3, (9, 13), (9, 13), 41, "upper_bound"),
    (seed_cordalis_n1mod3, (12, 22), (12, 22), 90, "upper_bound"),
    (seed_cordalis_n1mod3, (12, 25), (12, 25), 103, "upper_bound"),
    (seed_cordalis_n2mod3, (16, 26), (16, 26), 140, "upper_bound"),
    (seed_cordalis_n2mod3, (16, 23), (16, 23), 125, "upper_bound"),
    (seed_cordalis_n2mod3, (13, 20), (13, 20), 88, "upper_bound"),
    (seed_cordalis_n2mod3, (18, 26), (18, 26), 158, "upper_bound"),
    (seed_cordalis_n2mod3, (18, 23), (18, 23), 141, "upper_bound"),
    (seed_cordalis_n2mod3, (15, 20), (15, 20), 102, "upper_bound"),
    (seed_cordalis_m0mod3, (12, 14), (12, 14), 57, "exact"),
    (seed_cordalis_m0mod3, (12, 15), (12, 15), 61, "exact"),
]


def test_criterion_1_golden_values():
    start = time.monotonic()
    for builder, args, (m, n), size, kind in GOLDEN_VALUES:
        report = builder(*args)
        assert report.size == size, (m, n, report.size, size)
        assert report.claimed_value_kind == kind
        assert report.verified
        g = torus_cordalis(m, n)
        theta = constant_threshold(g, 3)
        assert is_influencing(g, theta, report.seed)
        check = validate_convinced_sequence(g, theta, report.seed, report.convinced_sequence)
        assert check.ok and check.full_influence
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"golden values took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 16 golden seed constructions verified in {elapsed:.2f}s")


def _confirm(g, k, claimed, limit_s):
    start = time.monotonic()
    check = verify_optimality(g, constant_threshold(g, k), claimed)
    elapsed = time.monotonic() - start
    assert check.status == "confirmed", (claimed, check.status, check.reason)
    assert elapsed < limit_s, f"confirmation took {elapsed:.1f}s"
    return elapsed


def test_criterion_2_cubic_exactness():
    nx = pytest.importorskip("networkx")
    graphs = [cycle_permutation(5, p) for p in CP5_CLASSES]
    as_nx = [nx.Graph(list(g.edges)) for g in graphs]
    for i in range(len(as_nx)):
        for j in range(i + 1, len(as_nx)):
            assert not nx.is_isomorphic(as_nx[i], as_nx[j])
    total = 0.0
    for g in graphs:
        total += _confirm(g, 2, 3, 30.0)
    for m, s, value in [(5, 2, 3), (6, 2, 4), (7, 2, 4), (10, 4, 6)]:
        total += _confirm(generalized_petersen(m, s), 2, value, 30.0)
    print(
        "criterion 2 PASS: min-seed confirmed on 4 cycle permutation classes "
        f"and P(5,2), P(6,2), P(7,2), P(10,4) in {total:.2f}s total"
    )


def test_criterion_3_torus_exactness():
    total = 0.0
    for m, n, value in [(3, 3, 4), (4, 3, 5), (3, 4, 5)]:
        total += _confirm(torus_cordalis(m, n), 3, value, 60.0)
    print(f"criterion 3 PASS: torus optima 4, 5, 5 confirmed in {total:.2f}s total")


def _theorem_instances(cap=900):
    """Every (builder, m, n) whose preconditions hold with mn <= cap."""
    for m in range(3, cap // 3 + 1):
        yield seed_cordalis_n3, (m,), m, 3
    for s in range(2, cap // 15 + 1):
        n = 3 * s
        for m in range(3, cap // n + 1):
            if (m % 2 == 1 and m >= 5) or (m % 2 == 0 and m >= 8):
                yield seed_cordalis_n3s, (m, s), m, n
    for n in range(4, cap // 3 + 1, 3):
        for m in range(3, cap // n + 1):
            if (m % 2 == 1 and m >= 5) or (m % 2 == 0 and m >= 8):
                yield seed_cordalis_n1mod3, (m, n), m, n
    for n in range(5, cap // 3 + 1, 3):
        for m in range(10, cap // n + 1):
            yield seed_cordalis_n2mod3, (m, n), m, n
    for m in range(3, cap // 2 + 1, 3):
        for n in range(2, cap // m + 1):
            yield seed_cordalis_m0mod3, (m, n), m, n


def test_criterion_4_formula_sweep():
    start = time.monotonic()
    count = 0
    for builder, args, m, n in _theorem_instances():
        report = builder(*args)
        assert report.verified, (m, n)
        assert report.size == formula_value(report.theorem_case, m, n), (m, n)
        assert report.size >= tss_lower_bound_torus(m, n), (m, n)
        count += 1
    routed = 0
    for m in range(3, 451):
        for n in range(2, 901):
            if m * n > 900:
                break
            report = seed_torus_cordalis(m, n)
            assert report.verified, (m, n)
            assert report.size >= tss_lower_bound_torus(m, n), (m, n)
            if report.theorem_case != "fallback":
                assert report.size == formula_value(report.theorem_case, m, n), (m, n)
                routed += 1
    elapsed = time.monotonic() - start
    print(
        f"criterion 4 PASS: {count} theorem instances and {routed} dispatched pairs "
        f"match their formulas (mn <= 900, zero failures, {elapsed:.1f}s)"
    )


def test_criterion_5_property_suite():
    rng = random.Random(1009)
    trials = 1000
    for trial in range(trials):
        g = random_connected_graph(rng, 20)
        theta = random_thresholds(rng, g)
        small = set(rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)))
        big = small | set(rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)))
        cl_small = closure(g, theta, small)
        cl_big = closure(g, theta, big)
        assert cl_small <= cl_big, "monotonicity violated"
        assert closure(g, theta, cl_small) == cl_small, "idempotence violated"
        assert (
            sequential_closure(g, theta, small, trial) == cl_small
        ), "sequential run diverged from parallel closure"
    print(f"criterion 5 PASS: {trials} randomized instances, zero property violations")


def test_criterion_6_oracle_consistency():
    rng = random.Random(1013)
    trials = 200
    for trial in range(trials):
        g = random_connected_graph(rng, 12)
        k = rng.choice((2, 3))
        theta = constant_threshold(g, k)
        result = exact_min_seed(g, theta)
        assert result.status == "optimal"
        # brute force, which (unlike the solver) does not start at the lemma
        optimum = naive_min_seed(g, theta)
        assert result.optimum == optimum
        assert lower_bound_lemma(g, k) <= optimum
        assert is_influencing(g, theta, result.witness)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
        assert exact_min_seed(relabeled, theta).optimum == result.optimum
    print(f"criterion 6 PASS: {trials} random instances, oracle checks all hold")

import random

import pytest

from tss import (
    BadParam,
    BoundsReport,
    NonSimpleResult,
    build_graph,
    constant_threshold,
    cycle,
    flocchini_upper,
    generalized_petersen,
    lower_bound_lemma,
    torus_bounds,
    torus_cordalis,
    tss_lower_bound_torus,
)
from helpers import naive_min_seed, random_connected_graph


def test_lemma_on_petersen():
    assert lower_bound_lemma(generalized_petersen(5, 2), 2) == 3


def test_lemma_on_12x14_torus():
    # (336 - 168 + 1) / 3 rounded up, which matches the exact value there
    assert lower_bound_lemma(torus_cordalis(12, 14), 3) == 57


def test_lemma_on_regular_graph_with_k_equal_delta():
    # no +1 when a Delta-regular graph has k >= Delta: the bound is ceil(|E|/k)
    for g in (cycle(7), generalized_petersen(6, 2)):
        k = g.degree(0)
        assert lower_bound_lemma(g, k) == -(-len(g.edges) // k)
    assert lower_bound_lemma(generalized_petersen(6, 2), 3) == 6
    # the +1 stays when k < Delta, or when the graph is irregular
    assert lower_bound_lemma(generalized_petersen(6, 2), 2) == 4
    assert lower_bound_lemma(build_graph(3, [(0, 1), (1, 2)]), 2) == 2


def test_lemma_below_brute_force_on_regular_graphs_with_k_at_degree():
    graphs = [build_graph(1, []), build_graph(2, [(0, 1)])]
    graphs += [cycle(n) for n in range(3, 11)]
    graphs += [generalized_petersen(6, 2), generalized_petersen(8, 3), torus_cordalis(3, 4)]
    for g in graphs:
        d = g.degree(0)
        for k in {max(d, 1), max(d - 1, 1)}:  # K1 (d = 0) at k = 1
            assert lower_bound_lemma(g, k) <= naive_min_seed(g, constant_threshold(g, k))
    g = generalized_petersen(8, 3)
    assert lower_bound_lemma(g, 3) == naive_min_seed(g, constant_threshold(g, 3)) == 8


def test_lemma_preconditions():
    with pytest.raises(BadParam):
        lower_bound_lemma(cycle(4), 0)
    with pytest.raises(BadParam):
        lower_bound_lemma(build_graph(4, [(0, 1), (2, 3)]), 2)


def test_lemma_never_negative():
    # star graph with k=1: the formula's numerator goes negative, but the
    # empty seed activates nothing, so the bound is 1
    g = build_graph(5, [(0, i) for i in range(1, 5)])
    assert lower_bound_lemma(g, 1) == 1


def test_torus_lower_bound_values():
    assert tss_lower_bound_torus(11, 3) == 12
    assert tss_lower_bound_torus(9, 9) == 28
    assert tss_lower_bound_torus(3, 3) == 4
    with pytest.raises(BadParam):
        tss_lower_bound_torus(2, 3)
    # the domain error names the family, as the constructor's does
    for bound in (lambda: tss_lower_bound_torus(2, 5), lambda: flocchini_upper(2, 5, "cordalis"),
                  lambda: torus_cordalis(2, 5)):
        with pytest.raises(BadParam, match=r"^torus cordalis needs m >= 3 and n >= 2$"):
            bound()


def test_flocchini_values():
    assert flocchini_upper(9, 9, "cordalis") == 30
    assert flocchini_upper(4, 3, "mesh") == 5
    assert flocchini_upper(3, 3, "cordalis") == 4
    with pytest.raises(BadParam):
        flocchini_upper(3, 2, "mesh")
    with pytest.raises(BadParam):
        flocchini_upper(3, 3, "hexagonal")
    with pytest.raises(BadParam, match="torus cordalis needs"):
        flocchini_upper(3, 1, "cordalis")
    with pytest.raises(BadParam, match="torus serpentinus needs"):
        flocchini_upper(2, 4, "serpentinus")
    # the serpentinus at n = 2 is not simple, so it has no strip bound either
    with pytest.raises(NonSimpleResult):
        flocchini_upper(5, 2, "serpentinus")
    with pytest.raises(NonSimpleResult):
        torus_bounds(5, 2, "serpentinus")


def test_lower_never_exceeds_upper():
    for m in range(3, 25):
        for n in range(2, 25):
            assert tss_lower_bound_torus(m, n) <= flocchini_upper(m, n, "cordalis")


def test_bounds_report_orders_bounds():
    report = torus_bounds(4, 3, "cordalis")
    assert report.lower == 5 and report.upper == 8
    assert report.lower_source == report.upper_source == "flocchini_a"
    with pytest.raises(BadParam):
        BoundsReport(lower=5, upper=4, lower_source="lemma3", upper_source="construction")


def test_lemma_below_exact_on_random_graphs():
    # brute force, not the solver: the solver starts its search at the lemma
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, 10)
        for k in (1, 2, 3):
            assert lower_bound_lemma(g, k) <= naive_min_seed(g, constant_threshold(g, k))

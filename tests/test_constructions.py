import hashlib
import json
import random
import re
import tracemalloc

import pytest

from tss import (
    BadParam,
    ConstructionFailedVerification,
    TssError,
    closure,
    constant_threshold,
    cycle_permutation,
    exact_min_seed,
    flocchini_upper,
    generalized_petersen,
    identity_permutation,
    is_influencing,
    lower_bound_lemma,
    parallel_trace,
    path,
    path_seed_k2,
    seed_cordalis_m0mod3,
    seed_cordalis_n1mod3,
    seed_cordalis_n2mod3,
    seed_cordalis_n3,
    seed_cordalis_n3s,
    seed_cycle_permutation,
    seed_generalized_petersen,
    seed_torus_cordalis,
    torus_cordalis,
    tss_lower_bound_torus,
    validate_convinced_sequence,
)
from tss.constructions import _verified_report, formula_value
from helpers import naive_closure, naive_min_seed


def _check_report(report, g, k):
    theta = constant_threshold(g, k)
    assert report.verified
    assert report.size == len(report.seed)
    assert is_influencing(g, theta, report.seed)
    check = validate_convinced_sequence(g, theta, report.seed, report.convinced_sequence)
    assert check.ok and check.full_influence
    if report.claimed_value_kind == "exact":
        assert report.size == report.lower_bound


# -- path seeds ---------------------------------------------------------------

def test_path_seed_examples():
    assert path_seed_k2(2) == frozenset({0, 1})
    assert path_seed_k2(5) == frozenset({0, 2, 4})
    assert path_seed_k2(6) == frozenset({0, 2, 4, 5})
    with pytest.raises(BadParam):
        path_seed_k2(1)


@pytest.mark.parametrize("p", range(2, 11))
def test_path_seed_is_minimum_with_both_endpoints(p):
    g = path(p)
    theta = constant_threshold(g, 2)
    seed = path_seed_k2(p)
    assert {0, p - 1} <= seed
    assert len(naive_closure(g, theta, seed)) == p
    assert len(seed) == (p + 2) // 2
    assert naive_min_seed(g, theta, must_contain=frozenset({0, p - 1})) == len(seed)


# -- cycle permutation graphs -------------------------------------------------

def test_cp_c5_all_classes_size_three():
    for p in [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 1, 3, 4, 2), (0, 2, 4, 1, 3)]:
        report = seed_cycle_permutation(5, p)
        assert report.size == 3
        _check_report(report, cycle_permutation(5, p), 2)


def test_cp_small_examples():
    assert seed_cycle_permutation(4, identity_permutation(4)).size == 3
    report = seed_cycle_permutation(6, identity_permutation(6))
    assert report.size == 4
    g = cycle_permutation(6, identity_permutation(6))
    assert exact_min_seed(g, constant_threshold(g, 2)).optimum == 4


def test_cp_rejects_small_n():
    with pytest.raises(BadParam):
        seed_cycle_permutation(3, identity_permutation(3))
    with pytest.raises(BadParam, match=_exactly("permutation length 4 != 5")):
        seed_cycle_permutation(5, (0, 1, 2, 3))


def test_cp_random_permutations_match_formula():
    rng = random.Random(51)
    for n in range(4, 26):
        for _ in range(4):
            p = list(range(n))
            rng.shuffle(p)
            report = seed_cycle_permutation(n, p)
            assert report.size == (n + 2) // 2
            assert report.theorem_case == "T3"
            _check_report(report, cycle_permutation(n, p), 2)
            assert report.lower_bound == lower_bound_lemma(cycle_permutation(n, p), 2)


# -- generalized Petersen graphs ----------------------------------------------

def test_gpg_examples():
    assert seed_generalized_petersen(5, 2).size == 3
    assert seed_generalized_petersen(10, 4).size == 6
    assert seed_generalized_petersen(10, 2).size == 6


def test_gpg_all_params_up_to_24():
    for m in range(3, 25):
        for s in range(1, (m - 1) // 2 + 1):
            report = seed_generalized_petersen(m, s)
            assert report.size == (m + 2) // 2
            assert report.theorem_case == "T4"
            g = generalized_petersen(m, s)
            _check_report(report, g, 2)
            assert report.lower_bound == lower_bound_lemma(g, 2)


# -- torus cordalis builders ---------------------------------------------------

def test_n3_golden_values_and_small_optimum():
    assert seed_cordalis_n3(11).size == 12
    assert seed_cordalis_n3(12).size == 13
    report = seed_cordalis_n3(3)
    assert report.size == 4
    g = torus_cordalis(3, 3)
    assert naive_min_seed(g, constant_threshold(g, 3)) == 4
    _check_report(report, g, 3)


def test_n3_sweep():
    for m in range(3, 40):
        report = seed_cordalis_n3(m)
        assert report.size == m + 1
        assert report.theorem_case == "T5"
        assert report.claimed_value_kind == "exact"
    with pytest.raises(BadParam, match=_exactly("need m >= 3")):
        seed_cordalis_n3(2)


def test_n3s_golden_values():
    assert seed_cordalis_n3s(9, 3).size == 28
    assert seed_cordalis_n3s(12, 8).size == 97
    report = seed_cordalis_n3s(12, 7)
    assert report.size == 86
    assert report.claimed_value_kind == "upper_bound_gap_one"
    assert report.lower_bound == 85


def _exactly(message):
    return f"^{re.escape(message)}$"


def test_n3s_case_dispatch_and_rejects():
    assert seed_cordalis_n3s(5, 2).theorem_case == "T6a"
    assert seed_cordalis_n3s(8, 2).theorem_case == "T6b"
    assert seed_cordalis_n3s(8, 3).theorem_case == "T6c"
    for args, message in (((9, 1), "need s >= 2 (use the n=3 builder for s=1)"),
                          ((3, 1), "need s >= 2 (use the n=3 builder for s=1)"),
                          ((3, 2), "odd case needs m >= 5"),
                          ((6, 2), "even case needs m >= 8")):
        with pytest.raises(BadParam, match=_exactly(message)):
            seed_cordalis_n3s(*args)


def test_n1mod3_golden_values():
    assert seed_cordalis_n1mod3(9, 13).size == 41
    assert seed_cordalis_n1mod3(12, 22).size == 90
    assert seed_cordalis_n1mod3(12, 25).size == 103


def test_n1mod3_rejects():
    for args, message in (((9, 12), "need n >= 4 with n = 3s+1"),
                          ((3, 12), "need n >= 4 with n = 3s+1"),
                          ((3, 13), "odd case needs m >= 5"),
                          ((6, 13), "even case needs m >= 8")):
        with pytest.raises(BadParam, match=_exactly(message)):
            seed_cordalis_n1mod3(*args)


def test_n2mod3_golden_values():
    expectations = {
        (16, 26): ("T8c1", 140),
        (16, 23): ("T8c2", 125),
        (13, 20): ("T8c3", 88),
        (18, 26): ("T8c4", 158),
        (18, 23): ("T8c5", 141),
        (15, 20): ("T8c6", 102),
    }
    for (m, n), (case, size) in expectations.items():
        report = seed_cordalis_n2mod3(m, n)
        assert (report.theorem_case, report.size) == (case, size)


def test_n2mod3_rejects():
    with pytest.raises(BadParam):
        seed_cordalis_n2mod3(9, 20)
    with pytest.raises(BadParam):
        seed_cordalis_n2mod3(12, 21)
    with pytest.raises(BadParam):
        seed_cordalis_n2mod3(12, 2)


def test_m0mod3_golden_values_and_delegation():
    assert seed_cordalis_m0mod3(12, 14).size == 57
    assert seed_cordalis_m0mod3(12, 15).size == 61
    report = seed_cordalis_m0mod3(3, 4)
    assert report.size == 5
    g = torus_cordalis(3, 4)
    assert naive_min_seed(g, constant_threshold(g, 3)) == 5
    # odd n below 5 reduces to the three-column builder
    assert seed_cordalis_m0mod3(12, 3).theorem_case == "T5"
    with pytest.raises(BadParam):
        seed_cordalis_m0mod3(7, 4)
    with pytest.raises(BadParam, match=_exactly("need n >= 2")):
        seed_cordalis_m0mod3(3, 1)


def test_every_builder_report_is_internally_consistent():
    cases = [
        seed_cordalis_n3(7),
        seed_cordalis_n3s(7, 3),
        seed_cordalis_n1mod3(8, 7),
        seed_cordalis_n2mod3(11, 8),
        seed_cordalis_m0mod3(9, 6),
    ]
    for report in cases:
        g = torus_cordalis(report.params["m"], report.params["n"])
        _check_report(report, g, 3)
        assert report.lower_bound == tss_lower_bound_torus(
            report.params["m"], report.params["n"]
        )


# -- dispatcher -----------------------------------------------------------------

def test_dispatcher_prefers_exact_cases():
    report = seed_torus_cordalis(12, 24)
    assert report.theorem_case == "T9even" and report.size == 97
    report = seed_torus_cordalis(11, 3)
    assert report.theorem_case == "T5" and report.size == 12
    report = seed_torus_cordalis(16, 23)
    assert report.theorem_case == "T8c2" and report.size == 125
    # where both the exact and the gap-one case apply, the exact one wins
    report = seed_torus_cordalis(12, 21)
    assert report.theorem_case == "T9odd" and report.size == 85


def test_dispatcher_routes_by_residue():
    assert seed_torus_cordalis(7, 9).theorem_case == "T6a"
    # divisible-by-3 m goes to the exact family even when the n=3s cases apply
    assert seed_torus_cordalis(9, 9).theorem_case == "T9odd"
    assert seed_torus_cordalis(9, 9).size == 28
    assert seed_torus_cordalis(10, 9).theorem_case == "T6c"
    assert seed_torus_cordalis(7, 13).theorem_case == "T7c1"
    assert seed_torus_cordalis(10, 13).theorem_case == "T7c3"
    assert seed_torus_cordalis(10, 8).theorem_case == "T8c4"


def test_dispatcher_fallback_pairs():
    for m, n in [(4, 2), (4, 4), (4, 6), (4, 7), (5, 5), (5, 2), (7, 8), (8, 5), (10, 2), (13, 2)]:
        report = seed_torus_cordalis(m, n)
        assert report.theorem_case == "fallback"
        assert report.claimed_value_kind == "upper_bound"
        assert report.size <= flocchini_upper(m, n, "cordalis")
        g = torus_cordalis(m, n)
        _check_report(report, g, 3)


def test_dispatcher_rejects_bad_params():
    with pytest.raises(BadParam):
        seed_torus_cordalis(2, 5)
    with pytest.raises(BadParam):
        seed_torus_cordalis(5, 1)


def test_dispatcher_fallback_sweep():
    # every pair a theorem misses, up to a few hundred vertices
    for m in range(4, 60):
        for n in range(2, 60):
            if m * n > 320:
                continue
            report = seed_torus_cordalis(m, n)
            if report.theorem_case != "fallback":
                continue
            assert report.verified
            assert report.size <= flocchini_upper(m, n, "cordalis")
            assert report.size >= tss_lower_bound_torus(m, n)


def test_formula_value_matches_builders():
    for report in [
        seed_cordalis_n3(9),
        seed_cordalis_n3s(11, 4),
        seed_cordalis_n1mod3(11, 10),
        seed_cordalis_n2mod3(14, 11),
        seed_cordalis_m0mod3(6, 7),
    ]:
        m, n = report.params["m"], report.params["n"]
        assert formula_value(report.theorem_case, m, n) == report.size
    assert formula_value("fallback", 5, 5) == flocchini_upper(5, 5, "cordalis")


def test_construction_never_beats_the_solver():
    # upper-bound constructions must sit at or above the true optimum
    from tss import SolveLimits

    for m, n in [(3, 3), (4, 3), (3, 4), (4, 4)]:
        report = seed_torus_cordalis(m, n)
        g = torus_cordalis(m, n)
        result = exact_min_seed(g, constant_threshold(g, 3), SolveLimits(max_vertices=16))
        assert result.optimum <= report.size
        if report.claimed_value_kind == "exact":
            assert result.optimum == report.size


def test_report_to_dict_shape():
    doc = seed_torus_cordalis(12, 24).to_dict()
    assert doc["case"] == "T9even"
    assert doc["size"] == 97
    assert doc["kind"] == "exact"
    assert doc["lower_bound"] == 97
    assert doc["verified"] is True
    assert len(doc["seed"]) == 97


# -- pinned seed sets and the verification gate ---------------------------------

# sha256 over every report below: it pins the seed ids, case tags, sizes,
# kinds and lower bounds of the builders; change it only together with a
# construction that is meant to change
SEED_DIGEST = "5d4a3e5405976df2d55d0464ab75173f1dbe2cec9ebeecb27fad42111c5540c2"
# the same over each per-case torus builder on every pair with mn <= 400,
# refusals included, since the dispatcher reaches only some of those pairs
CASE_DIGEST = "47807b0b1a448ffa46614ea589ffd97b4be2fcabdc2efa81cae18bcc9a61ecc7"


def test_seed_sets_match_pinned_digest():
    digest = hashlib.sha256()
    reports = [
        seed_torus_cordalis(m, n) for m in range(3, 201) for n in range(2, 400 // m + 1)
    ]
    reports += [
        seed_generalized_petersen(m, s) for m in range(5, 31) for s in range(1, (m - 1) // 2 + 1)
    ]
    reports += [seed_cycle_permutation(n, identity_permutation(n)) for n in range(4, 31)]
    for report in reports:
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == SEED_DIGEST

    digest = hashlib.sha256()
    for m in range(3, 201):
        for n in range(2, 400 // m + 1):
            calls = [(seed_cordalis_n1mod3, (m, n)), (seed_cordalis_n2mod3, (m, n)),
                     (seed_cordalis_m0mod3, (m, n))]
            if n % 3 == 0:
                calls.append((seed_cordalis_n3s, (m, n // 3)))
            if n == 3:
                calls.append((seed_cordalis_n3, (m,)))
            for build, args in calls:
                try:
                    doc = build(*args).to_dict()
                except TssError as exc:
                    doc = [type(exc).__name__, str(exc)]
                digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == CASE_DIGEST


def _gate(report, seed, expected_size):
    m, n = report.params["m"], report.params["n"]
    return _verified_report(
        torus_cordalis(m, n),
        3,
        seed,
        family=report.family,
        params=report.params,
        case=report.theorem_case,
        kind=report.claimed_value_kind,
        expected_size=expected_size,
        lower_bound=report.lower_bound,
    )


def test_gate_rejects_wrong_size_and_non_influencing_seeds():
    report = seed_cordalis_n3s(7, 3)  # T6a, exact
    assert _gate(report, report.seed, report.size).convinced_sequence == report.convinced_sequence
    with pytest.raises(ConstructionFailedVerification, match="formula says"):
        _gate(report, report.seed, report.size + 1)
    # an exact seed minus any vertex cannot influence
    smaller = report.seed - {min(report.seed)}
    with pytest.raises(ConstructionFailedVerification, match="does not influence"):
        _gate(report, smaller, report.size - 1)


def test_gate_holds_the_fallback_to_its_budget():
    report = seed_torus_cordalis(5, 5)
    assert report.theorem_case == "fallback"
    assert _gate(report, report.seed, report.size).verified  # the budget is an upper limit
    with pytest.raises(ConstructionFailedVerification, match="budget says"):
        _gate(report, report.seed, report.size - 1)
    # below the budget, a non-influencing seed still fails the simulation
    with pytest.raises(ConstructionFailedVerification, match="does not influence"):
        _gate(report, report.seed - {min(report.seed)}, report.size)


def test_convinced_sequence_is_round_by_round():
    report = seed_cordalis_n3(7)
    g = torus_cordalis(7, 3)
    trace = parallel_trace(g, constant_threshold(g, 3), report.seed)
    assert report.convinced_sequence == tuple(v for r in trace.rounds for v in sorted(r))


def test_per_case_builders_capped_before_allocating():
    big = 10**12
    tracemalloc.start()
    try:
        for build, args in ((seed_cordalis_n3, (big,)), (seed_cordalis_n3s, (big + 1, 2)),
                            (seed_cordalis_n1mod3, (big + 1, 4)), (seed_cordalis_n2mod3, (big, 5)),
                            (seed_cordalis_m0mod3, (3 * big, 2)), (path_seed_k2, (big,)),
                            (seed_torus_cordalis, (4, big + 1))):  # the fallback
            with pytest.raises(BadParam, match="above the limit"):
                build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

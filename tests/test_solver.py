import math
import random
from itertools import combinations

import pytest

from tss import (
    BadParam,
    SolveLimits,
    TooLarge,
    build_graph,
    closure,
    constant_threshold,
    cycle,
    cycle_permutation,
    exact_min_seed,
    generalized_petersen,
    is_influencing,
    path,
    strict_majority_threshold,
    toroidal_mesh,
    torus_cordalis,
    torus_serpentinus,
    tss_lower_bound_torus,
    verify_optimality,
)
from helpers import naive_closure, naive_min_seed, random_connected_graph, random_thresholds


def test_path5_optimum_and_witness():
    g = path(5)
    result = exact_min_seed(g, constant_threshold(g, 2))
    assert result.optimum == 3
    assert result.witness == frozenset({0, 2, 4})
    assert result.status == "optimal"


def test_every_cp_c5_class_needs_three():
    for p in [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 1, 3, 4, 2), (0, 2, 4, 1, 3)]:
        g = cycle_permutation(5, p)
        assert exact_min_seed(g, constant_threshold(g, 2)).optimum == 3


def test_3x3_cordalis_optimum_four():
    g = torus_cordalis(3, 3)
    result = exact_min_seed(g, constant_threshold(g, 3))
    assert result.optimum == 4
    assert is_influencing(g, constant_threshold(g, 3), result.witness)


def test_matches_naive_enumeration_on_small_graphs():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, 8)
        theta = random_thresholds(rng, g)
        assert exact_min_seed(g, theta).optimum == naive_min_seed(g, theta)


def test_witness_is_lexicographically_least():
    rng = random.Random(42)
    for _ in range(15):
        g = random_connected_graph(rng, 8)
        theta = constant_threshold(g, 2)
        result = exact_min_seed(g, theta)
        best = next(
            frozenset(c)
            for c in combinations(range(g.vertex_count), result.optimum)
            if len(naive_closure(g, theta, c)) == g.vertex_count
        )
        assert result.witness == best


def test_forced_vertices_always_in_witness():
    # center of the star has theta > degree for the leaves
    g = build_graph(5, [(0, i) for i in range(1, 5)])
    theta = (1, 2, 2, 2, 2)  # leaves need 2 active neighbors but have degree 1
    result = exact_min_seed(g, theta)
    assert frozenset({1, 2, 3, 4}) <= result.witness


def test_relabeling_invariance():
    rng = random.Random(43)
    for _ in range(15):
        g = random_connected_graph(rng, 9)
        theta = random_thresholds(rng, g)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        relabeled = build_graph(
            g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges]
        )
        new_theta = [0] * g.vertex_count
        for v in g.vertices():
            new_theta[perm[v]] = theta[v]
        assert (
            exact_min_seed(g, theta).optimum
            == exact_min_seed(relabeled, new_theta).optimum
        )


def test_failed_seed_has_no_influencing_subset():
    # closure monotonicity justifies the size-ascending search
    rng = random.Random(44)
    for _ in range(20):
        g = random_connected_graph(rng, 9)
        theta = random_thresholds(rng, g)
        seed = set(rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count)))
        if is_influencing(g, theta, seed):
            continue
        for v in list(seed):
            assert not is_influencing(g, theta, seed - {v})


def test_too_large_raises():
    g = torus_cordalis(6, 5)
    with pytest.raises(TooLarge):
        exact_min_seed(g, constant_threshold(g, 3))
    # the cap is caller-adjustable in both directions
    g = path(6)
    with pytest.raises(TooLarge):
        exact_min_seed(g, constant_threshold(g, 2), SolveLimits(max_vertices=5))
    assert exact_min_seed(
        g, constant_threshold(g, 2), SolveLimits(max_vertices=6)
    ).optimum == 4


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(BadParam):
        exact_min_seed(g, constant_threshold(g, 1))


def test_time_budget_returns_partial_status():
    g = torus_cordalis(4, 5)
    result = exact_min_seed(
        g, constant_threshold(g, 3), SolveLimits(time_budget_s=0.0)
    )
    assert result.status == "budget_exceeded"
    assert result.optimum is None


def test_max_size_limits_search():
    g = generalized_petersen(5, 2)
    result = exact_min_seed(g, constant_threshold(g, 2), SolveLimits(max_size=2))
    assert result.status == "above_max_size"


def test_max_size_below_optimum_is_not_a_timeout():
    # 3x3 cordalis at k=3: the floor 4 rules out every size <= 3 without a node
    g = torus_cordalis(3, 3)
    result = exact_min_seed(g, constant_threshold(g, 3), SolveLimits(max_size=3))
    assert (result.status, result.optimum, result.nodes_explored) == ("above_max_size", None, 0)
    # 4x5 cordalis at k=3: the optimum is 8, so a finished search of sizes up to 7 fails
    g = torus_cordalis(4, 5)
    result = exact_min_seed(g, constant_threshold(g, 3), SolveLimits(max_size=7))
    assert result.status == "above_max_size" and result.nodes_explored > 0
    assert exact_min_seed(g, constant_threshold(g, 3), SolveLimits(max_size=8)).optimum == 8


def test_verify_optimality_triangle():
    g = cycle(3)
    theta = constant_threshold(g, 2)
    assert verify_optimality(g, theta, 2).status == "confirmed"
    refuted = verify_optimality(g, theta, 3)
    assert refuted.status == "refuted"
    assert len(refuted.witness) == 2
    too_low = verify_optimality(g, theta, 1)
    assert too_low.status == "inconclusive"
    assert "larger" in too_low.reason
    with pytest.raises(BadParam, match="non-negative"):
        verify_optimality(g, theta, -1)


def test_verify_optimality_examples():
    g = path(3)
    assert verify_optimality(g, constant_threshold(g, 1), 1).status == "confirmed"
    g = generalized_petersen(10, 4)
    assert verify_optimality(g, constant_threshold(g, 2), 6).status == "confirmed"


def test_verify_optimality_budget_inconclusive():
    # the refutation of 7 (the lemma floor) visits 1,648 tree nodes, past the
    # first 1,024, where the deadline is first read
    g = torus_cordalis(4, 5)
    check = verify_optimality(g, constant_threshold(g, 3), 8, SolveLimits(time_budget_s=0.0))
    assert check.status == "inconclusive"
    assert "budget" in check.reason


def test_verify_optimality_starts_at_the_floor():
    g = generalized_petersen(8, 3)
    theta = constant_threshold(g, 3)
    check = verify_optimality(g, theta, 8)
    assert check.status == "confirmed" and len(check.witness) == 8
    assert check.reason == "size 7 is below the lemma3 lower bound 8"
    below = verify_optimality(g, theta, 7)
    assert (below.status, below.nodes_explored, below.witness) == ("inconclusive", 0, None)
    assert below.reason == "size 7 is below the lemma3 lower bound 8; true optimum is larger"
    # forced vertices give the floor when the thresholds are not constant
    g = path(3)
    below = verify_optimality(g, (2, 1, 2), 1)
    assert (below.status, below.nodes_explored) == ("inconclusive", 0)
    assert below.reason.startswith("size 1 is below the forced-vertex lower bound 2")
    assert verify_optimality(g, (2, 1, 2), 2).status == "confirmed"
    # above the floor the size below is refuted by search, and no reason is given
    g = torus_cordalis(3, 4)
    check = verify_optimality(g, constant_threshold(g, 3), 6)
    assert check.status == "refuted" and len(check.witness) == 5
    # at the floor (7 on the 4x5 cordalis, whose optimum is 8) search finds no seed
    check = verify_optimality(torus_cordalis(4, 5), (3,) * 20, 7)
    assert (check.status, check.witness) == ("inconclusive", None)
    assert check.reason == "no influencing seed of size 7 exists; true optimum is larger"


def test_regular_graphs_with_k_at_degree_reach_the_optimum():
    # the lemma without its +1 on these instances
    for g, k, optimum in ((generalized_petersen(8, 3), 3, 8), (cycle(4), 2, 2),
                          (build_graph(1, []), 1, 1), (build_graph(2, [(0, 1)]), 1, 1)):
        result = exact_min_seed(g, constant_threshold(g, k))
        assert (result.status, result.optimum) == ("optimal", optimum)
    assert exact_min_seed(cycle(4), constant_threshold(cycle(4), 2)).witness == {0, 2}


def test_zero_threshold_optimum_is_zero():
    g = cycle(4)
    result = exact_min_seed(g, constant_threshold(g, 0))
    assert result.optimum == 0 and result.witness == frozenset()
    assert verify_optimality(g, constant_threshold(g, 0), 0).status == "confirmed"


def test_claims_above_the_optimum_are_refuted_one_size_smaller():
    # A seed one below such a claim may need a pick the prefix already
    # activates, or more picks than inactive vertices are left, so neither
    # may be skipped on that ground alone. On this path {0} is optimal, and
    # {0, 1} holds the redundant pick 1.
    g = path(3)
    check = verify_optimality(g, (2, 0, 0), 3)
    assert (check.status, check.witness) == ("refuted", {0, 1})
    rng = random.Random(47)
    checks = 0
    for trial in range(200):
        g = random_connected_graph(rng, 10)
        theta = random_thresholds(rng, g) if trial % 2 else constant_threshold(g, rng.randint(1, 3))
        optimum = exact_min_seed(g, theta).optimum
        for claimed in range(optimum + 1, min(optimum + 3, g.vertex_count + 1) + 1):
            check = verify_optimality(g, theta, claimed)
            assert check.status == "refuted" and len(check.witness) == claimed - 1
            assert len(naive_closure(g, theta, check.witness)) == g.vertex_count
            checks += 1
    assert checks >= 500


def _mask(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def test_closure_engines_agree():
    # the solver's cascade engine vs the public counter engine, both from
    # scratch and grown one vertex at a time from a closed set
    rng = random.Random(45)
    from tss.solver import _cascade

    seen_zero = seen_above_degree = False
    for _ in range(120):
        g = random_connected_graph(rng, 12)
        theta = random_thresholds(rng, g)
        seen_zero |= 0 in theta
        seen_above_degree |= any(theta[v] > g.degree(v) for v in g.vertices())
        masks, full = g.neighbor_masks, g.full_mask
        seed = set(rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)))
        closed = _cascade(masks, theta, _mask(seed), full & ~_mask(seed))
        assert closed == _mask(closure(g, theta, seed))
        for v in g.vertices():
            grown = closed | 1 << v
            assert _cascade(masks, theta, grown, masks[v] & ~grown) == _mask(
                closure(g, theta, seed | {v})
            )
    assert seen_zero and seen_above_degree


@pytest.mark.parametrize(
    "family, m, n, nodes, witness",
    [
        (torus_cordalis, 3, 7, 198, {0, 1, 3, 5, 7, 9, 11, 13}),
        (torus_cordalis, 7, 3, 150, {0, 1, 3, 5, 9, 11, 15, 17}),
        (torus_serpentinus, 4, 5, 86, {0, 2, 4, 8, 11, 14, 17}),
    ],
)
def test_search_order_pinned_on_tori(family, m, n, nodes, witness):
    g = family(m, n)
    result = exact_min_seed(g, strict_majority_threshold(g))
    assert (result.nodes_explored, result.witness) == (nodes, frozenset(witness))


@pytest.mark.parametrize(
    "m, s, nodes, witness",
    [(11, 3, 499, {0, 2, 4, 6, 8, 20}), (12, 5, 522, {0, 1, 3, 5, 7, 9, 22})],
)
def test_search_order_pinned_on_petersen(m, s, nodes, witness):
    g = generalized_petersen(m, s)
    result = exact_min_seed(g, constant_threshold(g, 2))
    assert (result.nodes_explored, result.witness) == (nodes, frozenset(witness))


@pytest.mark.parametrize("m, n, bound, optimum", [(4, 7, 10, 11), (5, 6, 11, 11), (4, 8, 11, 12)])
def test_search_settles_tori_above_24_vertices(m, n, bound, optimum):
    # on 4x7 and 4x8 the search, not the floor, proves the optimum one above the bound
    g = torus_cordalis(m, n)
    theta = constant_threshold(g, 3)
    result = exact_min_seed(g, theta, SolveLimits(max_vertices=m * n))
    assert tss_lower_bound_torus(m, n) == bound
    assert (result.status, result.optimum) == ("optimal", optimum)
    assert is_influencing(g, theta, result.witness)


def _rotates(g, theta):
    """Constant thresholds, and for some divisor d >= 2 of N both the step
    within each block of d ids, v -> v - v%d + (v+1)%d, and v -> v+d (mod N)
    map the edge set onto itself (d = 1 repeats d = N)."""
    n = g.vertex_count
    edges = {frozenset(e) for e in g.edges}

    def keeps(f):
        return {frozenset((f(u), f(v))) for u, v in edges} == edges

    return len(set(theta)) == 1 and any(
        keeps(lambda v: v - v % d + (v + 1) % d) and keeps(lambda v: (v + d) % n)
        for d in range(2, n + 1)
        if n % d == 0
    )


def _floor(g, theta):
    """The forced-vertex count, raised under a constant threshold k >= 1 to
    the degree-counting bound ceil((|E| - (Delta-k)|V| + 1)/k), whose +1 is
    dropped on a Delta-regular graph with k >= Delta, and to at least 1."""
    degrees = [g.degree(v) for v in g.vertices()]
    floor = sum(t > d for t, d in zip(theta, degrees))
    k, delta = theta[0], max(degrees)
    if len(set(theta)) == 1 and k >= 1:
        plus = 0 if len(set(degrees)) == 1 and k >= delta else 1
        lemma = -(-(len(g.edges) - (delta - k) * g.vertex_count + plus) // k)
        floor = max(floor, lemma, 1)
    return floor


def _hopeless(g, theta, prefix, eligible, todo):
    """The degree-counting test on the closure A of `prefix` with `todo` picks
    left from `eligible`: with U = V - A and r(w) = theta(w) - |N(w) & A|,
    sum_U theta - (|E| - |E(G[A])|) exceeds the sum of the `todo` largest
    r(w) over the eligible vertices of U."""
    active = naive_closure(g, theta, prefix)
    inactive = set(g.vertices()) - active
    inside = sum(u in active and v in active for u, v in g.edges)
    need = {w: theta[w] - sum(u == w and v in active or v == w and u in active for u, v in g.edges)
            for w in inactive}
    top = sum(sorted((need[w] for w in inactive & set(eligible)), reverse=True)[:todo])
    return sum(theta[w] for w in inactive) - (len(g.edges) - inside) > top


def _reached(g, theta, fixed, free, picks):
    """Whether the walk reaches the candidate `fixed` + `picks` (p_1 < ... <
    p_t). At level j the prefix is the fixed vertices with p_1..p_j, and
    `banned` is the union of the closures of prefix + u over every sibling u
    tried before, at this level and at every level above. p_(j+1) is cut by
    the suffix stop when `_hopeless` holds on the prefix with t - j picks
    left from the vertices from p_(j+1) on that are not banned when the
    level starts, and it is skipped when it is banned when its turn comes;
    a sibling u < p_(j+1) after p_j is tried unless it is banned then."""
    banned = set()
    for j, p in enumerate(picks):
        prefix = fixed | set(picks[:j])
        after = [v for v in free if j == 0 or v > picks[j - 1]]
        if _hopeless(g, theta, prefix, [v for v in after if v >= p and v not in banned], len(picks) - j):
            return False
        for u in after[:after.index(p)]:
            if u not in banned:
                banned |= naive_closure(g, theta, prefix | {u})
        if p in banned:
            return False
    return True


def _naive_search(g, theta, sizes):
    """(witness, candidates visited) of a plain lexicographic enumeration over
    `sizes`; the witness is the first influencing candidate, and every
    candidate is tested, reached or not. A candidate is the fixed vertices
    (the forced ones, plus vertex 0 on a translation-invariant instance when
    k >= 1) and other picks. Up to and including the witness, it is counted
    when `_reached` holds. A candidate that influences but is not reached
    fails the test."""
    forced = {v for v in g.vertices() if theta[v] > g.degree(v)}
    anchored = _rotates(g, theta)
    visited = 0
    for k in sizes:
        fixed = forced | {0} if anchored and k else forced
        free = [v for v in g.vertices() if v not in fixed]
        for combo in combinations(range(g.vertex_count), k):
            if not fixed <= set(combo):
                continue
            reached = _reached(g, theta, fixed, free, [v for v in combo if v not in fixed])
            visited += reached
            if len(naive_closure(g, theta, combo)) == g.vertex_count:
                assert reached, f"the walk skipped the influencing candidate {combo}"
                return frozenset(combo), visited
    return None, visited


def test_nodes_explored_matches_naive_enumeration():
    rng = random.Random(46)
    instances = []
    for trial in range(60):
        g = random_connected_graph(rng, 9)
        theta = random_thresholds(rng, g) if trial % 2 else constant_threshold(g, rng.randint(1, 3))
        instances.append((g, theta))
    # translation-invariant labellings, where vertex 0 is anchored (the mesh
    # 3x4 only by the row step, d = 4), and one that is not
    small = [cycle(n) for n in range(3, 10)]
    small += [torus_cordalis(3, 3), torus_cordalis(3, 4), torus_cordalis(4, 3)]
    small += [generalized_petersen(5, 2), toroidal_mesh(3, 3), toroidal_mesh(3, 4)]
    instances += [(g, constant_threshold(g, k)) for g in small for k in (1, 2, 3)]
    assert sum(_rotates(g, theta) for g, theta in instances) >= 30
    for g, theta in instances:
        floor = _floor(g, theta)
        result = exact_min_seed(g, theta)
        witness, visited = _naive_search(g, theta, range(floor, g.vertex_count + 1))
        assert (result.witness, result.nodes_explored) == (witness, visited)
        check = verify_optimality(g, theta, result.optimum)
        sizes = range(max(result.optimum - 1, floor), result.optimum + 1)
        witness, visited = _naive_search(g, theta, sizes)
        assert (check.witness, check.nodes_explored) == (witness, visited)


def _circulants(max_n):
    """Every connected circulant C_n(S) on at most max_n vertices: vertex v is
    joined to v +- j (mod n) for each jump j in S."""
    for n in range(1, max_n + 1):
        jumps = range(1, n // 2 + 1)
        for r in range(len(jumps) + 1):
            for s in combinations(jumps, r):
                if math.gcd(n, *s) == 1:
                    yield build_graph(n, {(v, (v + j) % n) for v in range(n) for j in s})


def _lex_first(g, k, sizes):
    """First influencing set over `sizes` in `itertools.combinations` order."""
    pairs = [(mask, 1 << v) for v, mask in enumerate(g.neighbor_masks)]
    full = (1 << g.vertex_count) - 1
    for size in sizes:
        for combo in combinations([bit for _, bit in pairs], size):
            active, before = sum(combo), -1
            while active != before:
                before = active
                for mask, bit in pairs:
                    if (mask & before).bit_count() >= k:
                        active |= bit
            if active == full:
                return frozenset(bit.bit_length() - 1 for bit in combo)
    return None


def test_circulant_anchor_keeps_the_lex_first_witness():
    # No influencing set of size optimum-1 means none smaller either (a
    # superset of an influencing set influences), so searching that size and
    # the optimum gives the plain lexicographic search's answer.
    count = 0
    for g in _circulants(12):
        for k in range(1, g.degree(0) + 2):
            result = exact_min_seed(g, constant_threshold(g, k))
            sizes = range(max(result.optimum - 1, 0), result.optimum + 1)
            assert result.witness == _lex_first(g, k, sizes), (g.edges, k)
            count += 1
    assert count == 949

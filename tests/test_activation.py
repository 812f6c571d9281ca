import random

import pytest

from tss import (
    BadParam,
    DuplicateVertex,
    SeedOverlap,
    SizeMismatch,
    VertexOutOfRange,
    build_graph,
    closure,
    constant_threshold,
    extract_convinced_sequence,
    generalized_petersen,
    is_connected,
    is_influencing,
    parallel_trace,
    path,
    seed_cordalis_n3,
    sequential_closure,
    torus_cordalis,
    validate_convinced_sequence,
)
from helpers import naive_closure, naive_rounds, random_connected_graph, random_thresholds


def test_closure_of_full_seed_is_identity():
    g = generalized_petersen(5, 2)
    theta = constant_threshold(g, 2)
    assert closure(g, theta, g.vertices()) == frozenset(g.vertices())


def test_empty_seed_goes_nowhere_at_threshold_two():
    g = generalized_petersen(5, 2)
    assert closure(g, constant_threshold(g, 2), []) == frozenset()
    assert not is_influencing(g, constant_threshold(g, 2), [])


def test_theorem_seed_closes_the_4x3_torus():
    g = torus_cordalis(4, 3)
    report = seed_cordalis_n3(4)
    assert report.size == 5
    assert closure(g, constant_threshold(g, 3), report.seed) == frozenset(g.vertices())


def test_trace_on_small_path():
    g = path(3)
    trace = parallel_trace(g, constant_threshold(g, 1), [1])
    assert trace.rounds == (frozenset({0, 2}),)
    assert trace.final == frozenset({0, 1, 2})


def test_trace_with_full_seed_has_no_rounds():
    g = path(4)
    trace = parallel_trace(g, constant_threshold(g, 1), g.vertices())
    assert trace.rounds == ()


def test_trace_final_size_on_11x3_torus():
    g = torus_cordalis(11, 3)
    trace = parallel_trace(g, constant_threshold(g, 3), seed_cordalis_n3(11).seed)
    assert len(trace.final) == 33


def test_trace_invariants_and_replay():
    rng = random.Random(20)
    for _ in range(60):
        g = random_connected_graph(rng, 14)
        theta = random_thresholds(rng, g)
        seed = rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count))
        trace = parallel_trace(g, theta, seed)
        pieces = [trace.seed, *trace.rounds]
        assert sum(len(p) for p in pieces) == len(set().union(*pieces))
        assert frozenset().union(*pieces) == trace.final
        if trace.rounds:
            assert trace.rounds[-1]
        # replaying the rounds re-derives each recorded round exactly
        active = set(trace.seed)
        for r in trace.rounds:
            eligible = {
                v
                for v in g.vertices()
                if v not in active
                and sum(1 for w in g.adjacency[v] if w in active) >= theta[v]
            }
            assert eligible == set(r)
            active |= eligible


def test_closure_matches_naive_oracle():
    rng = random.Random(21)
    for _ in range(120):
        g = random_connected_graph(rng, 12)
        theta = random_thresholds(rng, g)
        seed = rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count))
        assert closure(g, theta, seed) == naive_closure(g, theta, seed)


def test_sequential_policies_match_parallel():
    g = path(3)
    theta = constant_threshold(g, 1)
    assert sequential_closure(g, theta, [1], 0) == frozenset({0, 1, 2})
    assert sequential_closure(g, theta, [], 5) == frozenset()
    rng = random.Random(22)
    for trial in range(80):
        g = random_connected_graph(rng, 14)
        theta = random_thresholds(rng, g)
        seed = rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count))
        expected = closure(g, theta, seed)
        assert sequential_closure(g, theta, seed, trial) == expected


def test_sequential_random_policy_on_9x9_torus_seed():
    from tss import seed_cordalis_n3s

    g = torus_cordalis(9, 9)
    theta = constant_threshold(g, 3)
    seed = seed_cordalis_n3s(9, 3).seed
    final = sequential_closure(g, theta, seed, 99)
    assert len(final) == 81


def test_monotonicity_and_idempotence():
    rng = random.Random(23)
    for _ in range(100):
        g = random_connected_graph(rng, 14)
        theta = random_thresholds(rng, g)
        small = set(rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)))
        extra = set(rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)))
        big = small | extra
        cl_small = closure(g, theta, small)
        cl_big = closure(g, theta, big)
        assert cl_small <= cl_big
        assert closure(g, theta, cl_small) == cl_small


def test_validate_empty_sequence_with_full_seed():
    g = path(4)
    check = validate_convinced_sequence(g, constant_threshold(g, 1), g.vertices(), [])
    assert check.ok and check.full_influence


def test_validate_theorem_sequence_and_its_reverse():
    report = seed_cordalis_n3(5)
    g = torus_cordalis(5, 3)
    theta = constant_threshold(g, 3)
    check = validate_convinced_sequence(g, theta, report.seed, report.convinced_sequence)
    assert check.ok and check.full_influence
    reverse = list(reversed(report.convinced_sequence))
    check = validate_convinced_sequence(g, theta, report.seed, reverse)
    assert not check.ok
    assert check.failing_position == 1
    assert check.active_neighbors < check.required == 3


def test_validate_partial_sequence_is_legal():
    g = path(3)
    check = validate_convinced_sequence(g, constant_threshold(g, 1), [1], [0])
    assert check.ok and not check.full_influence
    assert bool(check) is True
    # a vertex with too few active neighbours makes the check false
    check = validate_convinced_sequence(g, constant_threshold(g, 2), [1], [0])
    assert not check.ok and bool(check) is False and check.failing_position == 1


def test_validate_rejects_duplicates_and_overlap():
    g = path(3)
    theta = constant_threshold(g, 1)
    with pytest.raises(SeedOverlap):
        validate_convinced_sequence(g, theta, [1], [1])
    with pytest.raises(DuplicateVertex):
        validate_convinced_sequence(g, theta, [1], [0, 0])
    for v in (3, -1):
        with pytest.raises(VertexOutOfRange):
            validate_convinced_sequence(g, theta, [1], [0, v])


def test_extracted_sequence_validates_iff_influencing():
    rng = random.Random(24)
    for _ in range(60):
        g = random_connected_graph(rng, 12)
        theta = random_thresholds(rng, g)
        seed = set(rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count)))
        alpha = extract_convinced_sequence(g, theta, seed)
        check = validate_convinced_sequence(g, theta, seed, alpha)
        assert check.ok
        assert check.full_influence == is_influencing(g, theta, seed)


def test_engine_rounds_match_from_scratch_recount():
    rng = random.Random(31)
    zero_seeded = zero_fired = never_fires = failures = 0
    for _ in range(300):
        g = random_connected_graph(rng, 16)
        theta = random_thresholds(rng, g)
        n = g.vertex_count
        zeros = [v for v in range(n) if theta[v] == 0]
        seed = set(rng.sample(range(n), rng.randint(0, n // 2)))
        if zeros and rng.random() < 0.5:
            seed.add(rng.choice(zeros))
        want_rounds, want_final = naive_rounds(g, theta, seed)
        trace = parallel_trace(g, theta, seed)
        assert [set(r) for r in trace.rounds] == want_rounds
        assert trace.final == want_final == closure(g, theta, seed)
        assert sequential_closure(g, theta, seed, rng.randrange(1 << 30)) == want_final
        order = [v for r in want_rounds for v in sorted(r)]
        assert extract_convinced_sequence(g, theta, seed) == order
        # a shuffled order fails first where a from-scratch count says it does
        rng.shuffle(order)
        check = validate_convinced_sequence(g, theta, seed, order)
        active = set(seed)
        for pos, v in enumerate(order, start=1):
            have = sum(1 for w in g.adjacency[v] if w in active)
            if have < theta[v]:
                assert (check.ok, check.failing_position) == (False, pos)
                assert (check.active_neighbors, check.required) == (have, theta[v])
                break
            active.add(v)
        else:
            assert check.ok and check.full_influence == (len(active) == n)
        failures += not check.ok
        zero_seeded += any(theta[v] == 0 for v in seed)
        zero_fired += bool(want_rounds) and any(theta[v] == 0 for v in want_rounds[0])
        never_fires += any(theta[v] > g.degree(v) for v in range(n))
    assert zero_seeded and zero_fired and never_fires and failures


def test_trace_rounds_are_frozensets_and_final_is_the_closure():
    g = torus_cordalis(11, 3)
    theta = constant_threshold(g, 3)
    for seed in (seed_cordalis_n3(11).seed, [0, 1, 2], []):
        trace = parallel_trace(g, theta, seed)
        assert type(trace.rounds) is tuple
        assert all(type(r) is frozenset for r in trace.rounds)
        assert trace.final == closure(g, theta, seed)
        assert type(trace.final) is frozenset and trace.seed == frozenset(seed)


def test_out_of_range_seed_names_the_first_bad_vertex():
    g = path(5)
    theta = constant_threshold(g, 1)
    for seed in ([7, 1, -3, 9], [-1, 5], [0, 4, 5], [100, -100, 2]):
        want = next(v for v in frozenset(seed) if not 0 <= v < 5)
        for run in (closure, parallel_trace, extract_convinced_sequence):
            with pytest.raises(VertexOutOfRange, match=rf"^seed vertex {want} not in 0\.\.4$"):
                run(g, theta, seed)


def test_inputs_are_checked_thresholds_then_seed_then_sequence():
    g = path(4)
    runs = (closure, parallel_trace, extract_convinced_sequence,
            lambda g, theta, seed: sequential_closure(g, theta, seed, 0),
            lambda g, theta, seed: validate_convinced_sequence(g, theta, seed, [7, 7]))
    for run in runs:
        with pytest.raises(SizeMismatch, match=r"^3 thresholds for a graph on 4 vertices$"):
            run(g, (1, 1, 1), [9])
        with pytest.raises(BadParam, match=r"^thresholds must be non-negative$"):
            run(g, (1, -1, 1, 1), [9])
        with pytest.raises(VertexOutOfRange, match=r"^seed vertex 9 not in 0\.\.3$"):
            run(g, (1, 1, 1, 1), [9])


def _component_count(g):
    """Components of `g` by union-find over its edge list."""
    parent = list(g.vertices())

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in g.vertices()})


def test_is_connected_matches_union_find():
    rng = random.Random(24)
    outcomes = set()
    for _ in range(400):
        shape = rng.choice(("connected", "two pieces", "isolated", "sparse"))
        if shape == "sparse":
            n = rng.randint(0, 12)
            p = rng.choice((0.1, 0.2, 0.4))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        else:
            a = random_connected_graph(rng, 6)
            b = random_connected_graph(rng, 6) if shape == "two pieces" else build_graph(0, [])
            loose = rng.randint(1, 3) if shape == "isolated" else 0
            n = a.vertex_count + b.vertex_count + loose
            off = a.vertex_count
            edges = list(a.edges) + [(u + off, v + off) for u, v in b.edges]
        # relabel so that vertex 0 may lie in any piece, or be isolated
        ids = rng.sample(range(n), n)
        g = build_graph(n, [(ids[u], ids[v]) for u, v in edges])
        want = _component_count(g) <= 1
        assert is_connected(g) is want, (shape, n, edges)
        outcomes.add((shape, want))
    assert outcomes >= {("connected", True), ("two pieces", False), ("isolated", False),
                        ("sparse", True), ("sparse", False)}


def test_trace_json_shape():
    g = path(3)
    doc = parallel_trace(g, constant_threshold(g, 1), [1]).to_dict()
    assert doc == {"seed": [1], "rounds": [[0, 2]], "final_size": 3}

import math

import pytest

from tss import (
    BadParam,
    BadPermutation,
    NonSimpleResult,
    cycle,
    cycle_permutation,
    generalized_petersen,
    identity_permutation,
    path,
    permutation_from_one_based,
    toroidal_mesh,
    torus_cordalis,
    torus_serpentinus,
    torus_vertex_id,
)
from helpers import reference_torus, two_colorable


def test_path_examples():
    assert path(1).vertex_count == 1 and path(1).edges == ()
    assert path(2).edges == ((0, 1),)
    g = path(5)
    assert len(g.edges) == 4
    assert g.degree(0) == g.degree(4) == 1
    with pytest.raises(BadParam):
        path(0)


def test_cycle_examples():
    assert len(cycle(3).edges) == 3
    assert len(cycle(4).edges) == 4
    assert all(cycle(5).degree(v) == 2 for v in range(5))
    with pytest.raises(BadParam):
        cycle(2)


def test_cycle_permutation_identity_n4_is_cube():
    g = cycle_permutation(4, identity_permutation(4))
    assert g.vertex_count == 8 and len(g.edges) == 12
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert two_colorable(g)


def test_cycle_permutation_n5():
    g = cycle_permutation(5, identity_permutation(5))
    assert g.vertex_count == 10 and len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in g.vertices())


def test_cycle_permutation_rejects_bad_input():
    with pytest.raises(BadPermutation):
        cycle_permutation(5, (0, 0, 1, 2, 3))
    with pytest.raises(BadPermutation):
        cycle_permutation(5, (0, 1, 2))
    with pytest.raises(BadParam):
        cycle_permutation(3, identity_permutation(3))


def test_permutation_from_one_based():
    assert permutation_from_one_based([2, 3, 1]) == (1, 2, 0)


def test_gpg_examples():
    g = generalized_petersen(10, 2)  # dodecahedral graph
    assert g.vertex_count == 20 and len(g.edges) == 30
    assert all(g.degree(v) == 3 for v in g.vertices())
    with pytest.raises(BadParam):
        generalized_petersen(4, 2)
    with pytest.raises(BadParam):
        generalized_petersen(2, 1)


def _inner_cycle_count(m, s):
    g = generalized_petersen(m, s)
    inner = {v for v in range(m, 2 * m)}
    seen = set()
    cycles = 0
    for start in sorted(inner):
        if start in seen:
            continue
        cycles += 1
        v = start
        while v not in seen:
            seen.add(v)
            v = m + ((v - m + s) % m)
    return cycles


@pytest.mark.parametrize("m,s", [(5, 2), (10, 3), (10, 4), (12, 5), (9, 3)])
def test_gpg_inner_cycles_match_gcd(m, s):
    assert _inner_cycle_count(m, s) == math.gcd(m, s)


def test_mesh_examples():
    g = toroidal_mesh(4, 3)
    assert g.vertex_count == 12 and len(g.edges) == 24
    assert all(g.degree(v) == 4 for v in g.vertices())
    assert all(toroidal_mesh(3, 3).degree(v) == 4 for v in range(9))
    with pytest.raises(BadParam):
        toroidal_mesh(2, 3)


def test_cordalis_counts_and_labels():
    g = torus_cordalis(4, 3)
    assert g.vertex_count == 12 and len(g.edges) == 24
    assert all(g.degree(v) == 4 for v in g.vertices())
    assert g.labels[torus_vertex_id(4, 3, 2, 3)] == "(2,3)"


def test_cordalis_3x2_matches_hand_enumeration():
    # small enough to list every edge of the definition by hand
    g = torus_cordalis(3, 2)
    vid = lambda i, j: torus_vertex_id(3, 2, i, j)
    expected = set()
    for i in (1, 2, 3):
        expected.add(tuple(sorted((vid(i, 1), vid(i + 1, 1)))))
        expected.add(tuple(sorted((vid(i, 2), vid(i + 1, 2)))))
        expected.add(tuple(sorted((vid(i, 1), vid(i, 2)))))
        expected.add(tuple(sorted((vid(i, 2), vid(i + 1, 1)))))
    assert set(g.edges) == expected
    assert len(g.edges) == 12


def test_cordalis_rejects_small_params():
    with pytest.raises(BadParam):
        torus_cordalis(2, 5)
    with pytest.raises(BadParam):
        torus_cordalis(3, 1)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (5, 4), (7, 5)])
def test_cordalis_column_walk_is_hamiltonian(m, n):
    g = torus_cordalis(m, n)
    edges = set(g.edges)
    i, j = 1, 1
    for step in range(m * n):
        ni, nj = (i, j + 1) if j < n else (i % m + 1, 1)
        a = torus_vertex_id(m, n, i, j)
        b = torus_vertex_id(m, n, ni, nj)
        assert tuple(sorted((a, b))) in edges
        i, j = ni, nj
    assert (i, j) == (1, 1)


def test_serpentinus_examples():
    g = torus_serpentinus(4, 3)
    assert g.vertex_count == 12 and len(g.edges) == 24
    assert all(g.degree(v) == 4 for v in g.vertices())
    g = torus_serpentinus(5, 4)
    assert len(g.edges) == 40
    with pytest.raises(BadParam):
        torus_serpentinus(2, 2)


def test_serpentinus_duplicate_edge_detected():
    # at n=2 the shifted row wrap re-creates an existing column wrap edge
    with pytest.raises(NonSimpleResult):
        torus_serpentinus(3, 2)


def test_family_labels_are_bijections():
    for g in (path(4), cycle(5), generalized_petersen(7, 2), torus_cordalis(5, 4)):
        assert len(g.labels) == g.vertex_count
        assert len(set(g.labels.values())) == g.vertex_count


@pytest.mark.parametrize(
    "variant,build,n_min",
    [
        ("cordalis", torus_cordalis, 2),
        ("mesh", toroidal_mesh, 3),
        ("serpentinus", torus_serpentinus, 2),
    ],
)
def test_torus_families_match_coordinate_reference(variant, build, n_min):
    non_simple = set()
    for m in range(3, 25):
        for n in range(n_min, 25):
            try:
                want = reference_torus(variant, m, n)
            except NonSimpleResult:
                with pytest.raises(NonSimpleResult):
                    build(m, n)
                non_simple.add((m, n))
                continue
            g = build(m, n)
            assert g.vertex_count == want.vertex_count
            assert g.edges == want.edges
            assert g.labels == want.labels
            assert g.adjacency == want.adjacency
            assert all(list(a) == sorted(a) for a in g.adjacency)
    # the serpentinus is not simple exactly at n = 2; the others always are
    assert non_simple == ({(m, 2) for m in range(3, 25)} if variant == "serpentinus" else set())


def test_cordalis_is_the_circulant_c_mn_1_n():
    for m in range(3, 25):
        for n in range(2, 25):
            size = m * n
            adjacency = torus_cordalis(m, n).adjacency
            for k in range(size):
                assert set(adjacency[k]) == {(k + d) % size for d in (1, -1, n, -n)}

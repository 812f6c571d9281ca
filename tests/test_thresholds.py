import pytest

from tss import (
    BadParam,
    SizeMismatch,
    closure,
    constant_threshold,
    cycle,
    generalized_petersen,
    majority_threshold,
    path,
    strict_majority_threshold,
    torus_cordalis,
)
from tss.thresholds import check_thresholds


def test_constant():
    g = cycle(3)
    assert constant_threshold(g, 2) == (2, 2, 2)
    assert constant_threshold(generalized_petersen(5, 2), 2) == (2,) * 10
    with pytest.raises(BadParam):
        constant_threshold(g, -1)


def test_constant_zero_makes_empty_seed_influence():
    g = cycle(4)
    assert closure(g, constant_threshold(g, 0), []) == frozenset(range(4))


def test_majority():
    assert majority_threshold(generalized_petersen(5, 2)) == (2,) * 10
    assert majority_threshold(torus_cordalis(3, 3)) == (2,) * 9
    assert majority_threshold(path(3)) == (1, 1, 1)


def test_strict_majority():
    assert strict_majority_threshold(generalized_petersen(7, 3)) == (2,) * 14
    assert strict_majority_threshold(torus_cordalis(4, 3)) == (3,) * 12
    assert strict_majority_threshold(path(5)) == (1, 2, 2, 2, 1)


def test_strict_vs_majority_gap():
    for g in (path(6), cycle(5), generalized_petersen(6, 2), torus_cordalis(4, 4)):
        maj = majority_threshold(g)
        strict = strict_majority_threshold(g)
        for v in g.vertices():
            gap = strict[v] - maj[v]
            assert gap in (0, 1)
            assert (gap == 1) == (g.degree(v) % 2 == 0)


def test_pairing_enforced_by_length():
    g = cycle(4)
    theta = constant_threshold(cycle(5), 2)
    with pytest.raises(SizeMismatch):
        closure(g, theta, [0])


def test_negative_thresholds_rejected_raw_or_wrapped():
    g = cycle(4)
    with pytest.raises(BadParam):
        closure(g, [-1, 2, 2, 2], [0])
    with pytest.raises(BadParam):
        closure(g, (2, 2, 2, -3), [0])
    # the length is checked before the sign
    with pytest.raises(SizeMismatch):
        closure(g, [-1, 2], [0])
    assert check_thresholds(g, [0, 1, 2, 3]) == (0, 1, 2, 3)

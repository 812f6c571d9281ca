"""Seed-set builders, one per theorem case.

Each builder assembles the prescribed seed in the 1-based torus coordinates
(or cycle labels) of the source construction and maps it to vertex ids. The
torus layouts are small tiles of cells repeated down the rows and across the
columns by `_repeat`. One gate verifies every seed by simulation before a
report is returned: the seed size must match the closed form (the fallback
must stay within the strip-seeding budget), and the parallel process from
the seed must activate every vertex. The report's convinced sequence is that
process flattened round by round, ascending ids within a round, so it is
legal by construction.

Case tags: T3 (cycle permutation), T4 (generalized Petersen), T5 (n=3 torus),
T6a/T6b/T6c (n=3s), T7c1..T7c3 (n=3s+1), T8c1..T8c6 (n=3s+2), T9even/T9odd
(m=3t), fallback. T7 is the T6 layout, one column right, plus column 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .activation import extract_convinced_sequence
from .bounds import cubic_seed_size, flocchini_upper, tss_lower_bound_torus
from .errors import BadParam, ConstructionFailedVerification
from .families import (
    check_permutation,
    check_torus,
    cycle_permutation,
    generalized_petersen,
    torus_cordalis,
    torus_vertex_id,
)
from .graph import Graph, check_vertex_count
from .thresholds import constant_threshold

Coord = tuple[int, int]

EXACT = "exact"
UPPER = "upper_bound"
GAP_ONE = "upper_bound_gap_one"


@dataclass(frozen=True)
class SeedReport:
    family: str
    params: dict = field(compare=False)
    seed: frozenset[int] = frozenset()
    size: int = 0
    theorem_case: str = ""
    claimed_value_kind: str = EXACT
    lower_bound: int = 0
    convinced_sequence: tuple[int, ...] = ()
    verified: bool = False

    def to_dict(self) -> dict:
        out = {"family": self.family}
        out.update(self.params)
        out.update(
            {
                "case": self.theorem_case,
                "size": self.size,
                "kind": self.claimed_value_kind,
                "lower_bound": self.lower_bound,
                "seed": sorted(self.seed),
                "verified": self.verified,
            }
        )
        return out


def _repeat(cells: list[Coord], count: int, step: Coord) -> list[Coord]:
    """`cells` and count - 1 copies of it, copy c moved by c * step; empty
    when count < 1."""
    di, dj = step
    return [(i + c * di, j + c * dj) for c in range(count) for i, j in cells]


def formula_value(case: str, m: int, n: int) -> int:
    """Closed-form size for a torus case tag; for the fallback, the
    strip-seeding budget ceil(m/3)(n+1) that its seed must stay within.

    For the gap-one case this is the construction size ms+2 (the matching
    lower bound is ms+1).
    """
    if case == "T5":
        return m + 1
    if case in ("T6a", "T6b", "T6c"):
        s = n // 3
        return m * s + (2 if case == "T6c" else 1)
    if case in ("T7c1", "T7c2", "T7c3"):
        s = (n - 1) // 3
        extra = {"T7c1": (m + 1) // 2, "T7c2": m // 2, "T7c3": m // 2 + 1}[case]
        return m * s + extra
    if case.startswith("T8"):
        s = (n - 2) // 3
        t = m // 4
        return {
            "T8c1": 4 * t * s + 3 * t,
            "T8c2": 4 * t * s + 3 * t + 1,
            "T8c3": (4 * t + 1) * s + 3 * t + 1,
            "T8c4": (4 * t + 2) * s + 3 * t + 2,
            "T8c5": (4 * t + 2) * s + 3 * t + 3,
            "T8c6": (4 * t + 3) * s + 3 * t + 3,
        }[case]
    if case in ("T9even", "T9odd"):
        return m * n // 3 + 1
    return flocchini_upper(m, n, "cordalis")


def _verified_report(
    g: Graph,
    k: int,
    seed_ids: Iterable[int],
    *,
    family: str,
    params: dict,
    case: str,
    kind: str,
    expected_size: int,
    lower_bound: int,
) -> SeedReport:
    """The one verification gate: the seed size, then a single simulation.

    `expected_size` is the closed-form size, or for the fallback the budget
    the seed must not exceed. The seed influences the graph exactly when it
    and the convinced sequence read off its parallel process cover V(g).
    """
    seed = frozenset(seed_ids)
    if case == "fallback":
        size_ok, limit = len(seed) <= expected_size, "budget"
    else:
        size_ok, limit = len(seed) == expected_size, "formula"
    if not size_ok:
        raise ConstructionFailedVerification(
            f"{case}: seed has {len(seed)} vertices, {limit} says {expected_size}"
        )
    sequence = tuple(extract_convinced_sequence(g, constant_threshold(g, k), seed))
    if len(seed) + len(sequence) != g.vertex_count:
        raise ConstructionFailedVerification(f"{case}: seed does not influence the graph")
    return SeedReport(
        family=family,
        params=params,
        seed=seed,
        size=len(seed),
        theorem_case=case,
        claimed_value_kind=kind,
        lower_bound=lower_bound,
        convinced_sequence=sequence,
        verified=True,
    )


def _torus_report(
    m: int, n: int, case: str, kind: str, seed_coords: Iterable[Coord]
) -> SeedReport:
    return _verified_report(
        torus_cordalis(m, n),
        3,
        [torus_vertex_id(m, n, i, j) for i, j in seed_coords],
        family="torus_cordalis",
        params={"m": m, "n": n},
        case=case,
        kind=kind,
        expected_size=formula_value(case, m, n),
        lower_bound=tss_lower_bound_torus(m, n),
    )


# ---------------------------------------------------------------------------
# 2-threshold builders: paths, cycle permutation graphs, generalized Petersen
# ---------------------------------------------------------------------------

def _path_positions_k2(p: int) -> list[int]:
    """1-based seed positions for a p-path at threshold 2.

    Seeds every odd position plus the last one when p is even, so both
    endpoints are seeded and every gap vertex sits between two seeds.
    """
    seeds = list(range(1, p + 1, 2))
    if p % 2 == 0:
        seeds.append(p)
    return seeds


def path_seed_k2(p: int) -> frozenset[int]:
    """Minimum seed for the p-path at constant threshold 2 (both ends seeded)."""
    check_vertex_count(p, "p")
    if p < 2:
        raise BadParam("path seed needs p >= 2")
    return frozenset(t - 1 for t in _path_positions_k2(p))


def seed_cycle_permutation(n: int, permutation: Sequence[int]) -> SeedReport:
    """Size-ceil((n+1)/2) seed for a cycle permutation graph at threshold 2.

    Seeds an alternating set on the v-path v_3..v_n (relabeled so the matching
    edge u_1 v_1 exists) plus u_1.
    """
    if n < 4:
        raise BadParam("cycle permutation seed needs n >= 4")
    pi = check_permutation(permutation)
    if len(pi) != n:
        raise BadParam(f"permutation length {len(pi)} != {n}")
    g = cycle_permutation(n, pi)
    # rotate the v-cycle so that the ("v_1", "u_1") matching edge exists
    shift = pi.index(0)
    seed = [(t + 1 + shift) % n for t in _path_positions_k2(n - 2)] + [n]  # id n is u_1
    return _verified_report(
        g,
        2,
        seed,
        family="cycle_permutation",
        params={"n": n, "pi": [x + 1 for x in pi]},
        case="T3",
        kind=EXACT,
        expected_size=cubic_seed_size(n),
        lower_bound=cubic_seed_size(n),
    )


def seed_generalized_petersen(m: int, s: int) -> SeedReport:
    """Size-ceil((m+1)/2) seed for P(m,s) at threshold 2.

    Seeds an alternating set on the outer path v_{s+1}..v_{m-s} plus the inner
    vertices u_1..u_s.
    """
    g = generalized_petersen(m, s)  # validates m, s
    seed = [s + t - 1 for t in _path_positions_k2(m - 2 * s)] + [m + i for i in range(s)]
    return _verified_report(
        g,
        2,
        seed,
        family="generalized_petersen",
        params={"m": m, "s": s},
        case="T4",
        kind=EXACT,
        expected_size=cubic_seed_size(m),
        lower_bound=cubic_seed_size(m),
    )


# ---------------------------------------------------------------------------
# Torus cordalis builders (threshold 3 everywhere)
# ---------------------------------------------------------------------------

def seed_cordalis_n3(m: int) -> SeedReport:
    """Exact m+1 seed for the m x 3 torus cordalis."""
    check_vertex_count(3 * m, "mn")
    if m < 3:
        raise BadParam("need m >= 3")
    seed = _repeat([(1, 1)], (m + 1) // 2, (2, 0)) + _repeat([(2, 2)], m // 2, (2, 0))
    return _torus_report(m, 3, "T5", EXACT, seed + [(1, 3)])


_T6_MIN_M = (8, 5)  # the T6 layout's row rule, by m % 2: even m >= 8, odd m >= 5


def _t6_layout(m: int, s: int, shift: int) -> list[Coord]:
    """The T6 rows on s blocks of three columns, moved `shift` columns right.

    Each block holds five cells in rows 1-5, two in each pair of rows from 6
    on and, for even m, three in rows m-2..m. Refuses m outside the row rule.
    """
    if m < _T6_MIN_M[m % 2]:
        raise BadParam(f"{('even', 'odd')[m % 2]} case needs m >= {_T6_MIN_M[m % 2]}")
    bottom = [] if m % 2 else [(m - 2, 1), (m - 1, 3), (m, 2)]
    block = [(1, 1), (2, 2), (3, 1), (4, 3), (5, 2)] + bottom
    block += _repeat([(6, 3), (7, 2)], (m - 4 - len(bottom)) // 2, (2, 0))
    return _repeat([(i, j + shift) for i, j in block], s, (0, 3))


def seed_cordalis_n3s(m: int, s: int) -> SeedReport:
    """Seeds for the m x 3s torus cordalis, s >= 2: the T6 layout plus (4,1).

    Odd m, and even m with even s, give the exact value ms+1; even m with odd
    s adds (m-1,1) for ms+2, with a one-away lower bound.
    """
    check_vertex_count(3 * m * s, "mn")
    if s < 2:
        raise BadParam("need s >= 2 (use the n=3 builder for s=1)")
    seed = _t6_layout(m, s, 0) + [(4, 1)]
    if m % 2 == 1:
        return _torus_report(m, 3 * s, "T6a", EXACT, seed)
    if s % 2 == 0:
        return _torus_report(m, 3 * s, "T6b", EXACT, seed)
    return _torus_report(m, 3 * s, "T6c", GAP_ONE, seed + [(m - 1, 1)])


def seed_cordalis_n1mod3(m: int, n: int) -> SeedReport:
    """Seeds for the m x n torus cordalis with n = 3s+1 (upper bounds).

    The T6 layout moved one column right, plus column 1 in rows 1, 2 and 4,
    every even row from 6 below m-2, and row m-1 (row 4 again when m = 5).
    """
    check_vertex_count(m * n, "mn")
    if n < 4 or n % 3 != 1:
        raise BadParam("need n >= 4 with n = 3s+1")
    s = (n - 1) // 3
    seed = _t6_layout(m, s, 1) + [(1, 1), (2, 1), (4, 1), (m - 1, 1)]
    seed += _repeat([(6, 1)], (m - 7) // 2, (2, 0))
    if m % 2 == 1:
        return _torus_report(m, n, "T7c1", UPPER, seed)
    if s % 2 == 1:
        return _torus_report(m, n, "T7c2", UPPER, seed)
    return _torus_report(m, n, "T7c3", UPPER, seed + [(m - 2, 1)])


def seed_cordalis_n2mod3(m: int, n: int) -> SeedReport:
    """Seeds for the m x n torus cordalis with n = 3s+2, m >= 10, n >= 5.

    Dispatches on m mod 4 and the parity of s into six cases (upper bounds).
    The left margin is 3 rows for m = 4t, 4t+1 and 5 rows for m = 4t+2, 4t+3;
    the right margin is 5 rows for even m and 2 rows for odd m. Between them
    sit interior blocks of four rows.
    """
    check_vertex_count(m * n, "mn")
    if m < 10:
        raise BadParam("need m >= 10")
    if n < 5 or n % 3 != 2:
        raise BadParam("need n >= 5 with n = 3s+2")
    s = (n - 2) // 3
    t, r = divmod(m, 4)
    first = 4 if r < 2 else 6  # first row of the interior blocks
    wide = r % 2 == 0  # 5-row right margin
    blocks = t - 2 if wide else t - 1  # interior blocks
    left = [(1, 3), (2, 4), (3, 3)] + ([(4, 5), (5, 3)] if first == 6 else [])
    right = [(m - 1, 5), (m, 4)] + ([(m - 4, 5), (m - 3, 4), (m - 2, 3)] if wide else [])
    interior = [(first, 5), (first + 1, 3), (first + 2, 5), (first + 3, 3)]
    seed = _repeat(left + right + _repeat(interior, blocks, (4, 0)), s, (0, 3))
    seed += _repeat([(first, 1), (first + 2, 1), (first + 2, 2)], blocks, (4, 0))
    seed += [(2, 1), (3, 2), (m - 1, 1), (m, 2)]
    if first == 6:
        seed += [(4, 1), (5, 2)]
    if wide:
        seed += [(m - 4, 1), (m - 3, 2)] + ([(m - 2, 1)] if s % 2 == 1 else [])
    number = {0: 1, 1: 3, 2: 4, 3: 6}[r] + (s % 2 if wide else 0)
    return _torus_report(m, n, f"T8c{number}", UPPER, seed)


def seed_cordalis_m0mod3(m: int, n: int) -> SeedReport:
    """Exact mn/3+1 seed for the m x n torus cordalis when 3 divides m.

    Odd n below 5 reduces to the n=3 builder.
    """
    check_vertex_count(m * n, "mn")
    if m < 3 or m % 3 != 0:
        raise BadParam("need m >= 3 with m = 3t")
    if n < 2:
        raise BadParam("need n >= 2")
    t = m // 3
    if n % 2 == 0:
        pair = [(1, 3), (2, 4)] + _repeat([(4, 4), (5, 3)], t - 1, (3, 0))
        seed = _repeat(pair, (n - 2) // 2, (0, 2)) + _repeat([(4, 2), (6, 1)], t - 1, (3, 0))
        return _torus_report(m, n, "T9even", EXACT, seed + [(1, 1), (2, 2), (3, 1)])

    if n < 5:
        return seed_cordalis_n3(m)
    pair = [(1, 5), (2, 4)] + _repeat([(4, 4), (5, 5)], t - 1, (3, 0))
    seed = _repeat(pair, (n - 3) // 2, (0, 2)) + _repeat([(1, 1), (2, 2), (3, 3)], t, (3, 0))
    return _torus_report(m, n, "T9odd", EXACT, seed + [(1, 3)])


# ---------------------------------------------------------------------------
# Dispatcher and fallback
# ---------------------------------------------------------------------------

def _fallback_layout(m: int, n: int) -> list[Coord]:
    """Verified fallback layouts for the parameter pairs no case covers.

    `seed_torus_cordalis` sends here only m >= 4 not divisible by 3 with
    n = 3q+2, and m = 4 with any other n; the gate refuses a wrong layout.
    For n = 3q+2 the vertex ids trace the column-order Hamiltonian cycle, and
    a traveling wave works: first row seeded in two of three residue classes
    of the row-major id mod 3, middle rows every third id, second-to-last row
    in the other two classes, last row empty.  Row i's cells of class r are
    the columns j = 1 + (r - (i-1)n) mod 3, stepping by 3.  For m = 4 and
    any other n, rows 1 and 3 are seeded whole: rows 2 and 4 sit between two
    fully active rows and self-activate.
    """
    check_vertex_count(m * n, "mn")
    if n % 3 == 2:
        classes = [(0, 1)] + [(1,)] * (m - 3) + [(1, 2)]
        return [(i, j) for i, row in enumerate(classes, 1) for r in row
                for j in range(1 + (r - (i - 1) * n) % 3, n + 1, 3)]
    return _repeat([(1, 1), (3, 1)], n, (0, 1))


def seed_torus_cordalis(m: int, n: int) -> SeedReport:
    """Best applicable construction for the m x n torus cordalis.

    Exact cases are preferred (n=3; m divisible by 3; the n=3s exact cases),
    then the gap-one case, then the upper-bound families, then the verified
    fallback.
    """
    check_torus("cordalis", m, n)
    if n == 3:
        return seed_cordalis_n3(m)
    if m % 3 == 0:
        return seed_cordalis_m0mod3(m, n)
    if n % 3 < 2 and m >= _T6_MIN_M[m % 2]:
        return seed_cordalis_n1mod3(m, n) if n % 3 else seed_cordalis_n3s(m, n // 3)
    if n % 3 == 2 and n >= 5 and m >= 10:
        return seed_cordalis_n2mod3(m, n)
    return _torus_report(m, n, "fallback", UPPER, _fallback_layout(m, n))

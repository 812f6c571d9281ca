"""Seed-set builders, one per theorem case.

Each builder assembles the prescribed seed in the 1-based torus coordinates
(or cycle labels) of the source construction and maps it to vertex ids. One
gate verifies every seed by simulation before a report is returned: the seed
size must match the closed form (the fallback must stay within the
strip-seeding budget), and the parallel process from the seed must activate
every vertex. The report's convinced sequence is that process flattened
round by round, ascending ids within a round, so it is legal by construction.

Case tags: T3 (cycle permutation), T4 (generalized Petersen), T5 (n=3 torus),
T6a/T6b/T6c (n=3s), T7c1..T7c3 (n=3s+1), T8c1..T8c6 (n=3s+2), T9even/T9odd
(m=3t), fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .activation import extract_convinced_sequence
from .bounds import cubic_seed_size, flocchini_upper, tss_lower_bound_torus
from .errors import BadParam, ConstructionFailedVerification
from .families import (
    check_permutation,
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


def _irange(a: int, b: int) -> range:
    """Inclusive integer range; empty when b < a."""
    return range(a, b + 1)


def formula_value(case: str, m: int, n: int) -> int | None:
    """Closed-form size for a torus case tag, or None for the fallback.

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
    return None


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
    if m < 3:
        raise BadParam("need m >= 3")
    s1 = [(2 * i + 1, 1) for i in _irange(0, (m - 1) // 2)]
    s2 = [(2 * i, 2) for i in _irange(1, m // 2)]
    return _torus_report(m, 3, "T5", EXACT, s1 + s2 + [(1, 3)])


def _t6_shared_sets(s: int, inner_top: int) -> list[Coord]:
    s1 = [
        c
        for j in _irange(0, s - 1)
        for c in (
            (1, 1 + 3 * j),
            (2, 2 + 3 * j),
            (3, 1 + 3 * j),
            (4, 3 + 3 * j),
            (5, 2 + 3 * j),
        )
    ]
    s2 = [
        c
        for j in _irange(0, s - 1)
        for i in _irange(0, inner_top)
        for c in ((6 + 2 * i, 3 + 3 * j), (7 + 2 * i, 2 + 3 * j))
    ]
    return s1 + s2


def seed_cordalis_n3s(m: int, s: int) -> SeedReport:
    """Seeds for the m x 3s torus cordalis, s >= 2.

    Odd m >= 5 and even m >= 8 with even s give the exact value ms+1; even m
    with odd s gives ms+2 with a one-away lower bound.
    """
    if s < 2:
        raise BadParam("need s >= 2 (use the n=3 builder for s=1)")
    n = 3 * s
    if m % 2 == 1:
        if m < 5:
            raise BadParam("odd case needs m >= 5")
        return _torus_report(m, n, "T6a", EXACT, _t6_shared_sets(s, (m - 7) // 2) + [(4, 1)])

    if m < 8:
        raise BadParam("even case needs m >= 8")
    s3 = [
        c
        for j in _irange(0, s - 1)
        for c in ((m - 2, 1 + 3 * j), (m - 1, 3 + 3 * j), (m, 2 + 3 * j))
    ]
    seed = _t6_shared_sets(s, (m - 10) // 2) + s3 + [(4, 1)]
    if s % 2 == 0:
        return _torus_report(m, n, "T6b", EXACT, seed)
    return _torus_report(m, n, "T6c", GAP_ONE, seed + [(m - 1, 1)])


def seed_cordalis_n1mod3(m: int, n: int) -> SeedReport:
    """Seeds for the m x n torus cordalis with n = 3s+1 (upper bounds)."""
    if n < 4 or n % 3 != 1:
        raise BadParam("need n >= 4 with n = 3s+1")
    s = (n - 1) // 3
    if m % 2 == 1 and m < 5:
        raise BadParam("odd case needs m >= 5")
    if m % 2 == 0 and m < 8:
        raise BadParam("even case needs m >= 8")
    s1 = [
        c
        for j in _irange(0, s - 1)
        for c in (
            (1, 2 + 3 * j), (2, 3 + 3 * j), (3, 2 + 3 * j),
            (4, 4 + 3 * j), (5, 3 + 3 * j),
        )
    ]
    inner_top = (m - 7) // 2 if m % 2 == 1 else (m - 10) // 2
    s3 = [
        c
        for j in _irange(0, s - 1)
        for i in _irange(0, inner_top)
        for c in ((6 + 2 * i, 4 + 3 * j), (7 + 2 * i, 3 + 3 * j))
    ]
    corner = [(1, 1), (2, 1), (4, 1)]
    if m % 2 == 1:
        s2 = [(i, 1) for i in range(6, m, 2)]
        return _torus_report(m, n, "T7c1", UPPER, corner + s1 + s2 + s3)

    s2 = [(i, 1) for i in range(6, m - 3, 2)]
    s4 = [
        c
        for j in _irange(0, s - 1)
        for c in ((m - 2, 2 + 3 * j), (m - 1, 4 + 3 * j), (m, 3 + 3 * j))
    ]
    seed = s1 + s2 + s3 + s4 + corner + [(m - 1, 1)]
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
    if m < 10:
        raise BadParam("need m >= 10")
    if n < 5 or n % 3 != 2:
        raise BadParam("need n >= 5 with n = 3s+2")
    s = (n - 2) // 3
    t, r = divmod(m, 4)
    first = 4 if r < 2 else 6  # first row of the interior blocks
    wide = r % 2 == 0  # 5-row right margin
    top = t - 3 if wide else t - 2  # inclusive upper interior block index
    left = [(1, 3), (2, 4), (3, 3)] + ([(4, 5), (5, 3)] if first == 6 else [])
    right = [(m - 1, 5), (m, 4)] + ([(m - 4, 5), (m - 3, 4), (m - 2, 3)] if wide else [])
    seed = [(i, c + 3 * j) for j in _irange(0, s - 1) for i, c in left + right]
    seed += [
        c
        for b in _irange(0, top)
        for c in ((first + 4 * b, 1), (first + 2 + 4 * b, 1), (first + 2 + 4 * b, 2))
    ]
    seed += [
        c
        for j in _irange(0, s - 1)
        for b in _irange(0, top)
        for c in (
            (first + 4 * b, 5 + 3 * j),
            (first + 1 + 4 * b, 3 + 3 * j),
            (first + 2 + 4 * b, 5 + 3 * j),
            (first + 3 + 4 * b, 3 + 3 * j),
        )
    ]
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
    if m < 3 or m % 3 != 0:
        raise BadParam("need m >= 3 with m = 3t")
    if n < 2:
        raise BadParam("need n >= 2")
    t = m // 3
    if n % 2 == 0:
        s1 = [
            c for j in _irange(0, (n - 2) // 2) for c in ((1, 1 + 2 * j), (2, 2 + 2 * j))
        ]
        s2 = [
            c for i in _irange(0, t - 2) for c in ((4 + 3 * i, 2), (6 + 3 * i, 1))
        ]
        s3 = [
            c
            for j in _irange(0, (n - 4) // 2)
            for i in _irange(0, t - 2)
            for c in ((4 + 3 * i, 4 + 2 * j), (5 + 3 * i, 3 + 2 * j))
        ]
        return _torus_report(m, n, "T9even", EXACT, s1 + s2 + s3 + [(3, 1)])

    if n < 5:
        return seed_cordalis_n3(m)
    s1 = [
        c
        for i in _irange(0, t - 1)
        for c in ((1 + 3 * i, 1), (2 + 3 * i, 2), (3 + 3 * i, 3))
    ]
    s2 = [c for j in _irange(0, (n - 5) // 2) for c in ((1, 5 + 2 * j), (2, 4 + 2 * j))]
    s3 = [
        c
        for j in _irange(0, (n - 5) // 2)
        for i in _irange(0, t - 2)
        for c in ((4 + 3 * i, 4 + 2 * j), (5 + 3 * i, 5 + 2 * j))
    ]
    return _torus_report(m, n, "T9odd", EXACT, s1 + s2 + s3 + [(1, 3)])


# ---------------------------------------------------------------------------
# Dispatcher and fallback
# ---------------------------------------------------------------------------

def _fallback_seed_ids(m: int, n: int) -> set[int]:
    """Verified fallback layouts for the parameter pairs no case covers.

    For n = 3q+2 the vertex ids trace the column-order Hamiltonian cycle, and
    a traveling wave works: first row seeded in two of three residue classes,
    middle rows every third id, second-to-last row in the other two classes,
    last row empty.  For m = 4 (remaining n) rows 1 and 3 are seeded whole:
    rows 2 and 4 sit between two fully active rows and self-activate.
    """
    if n % 3 == 2 and m >= 4:
        ids = {k for k in range(n) if k % 3 != 2}
        ids.update(k for k in range(n, (m - 2) * n) if k % 3 == 1)
        ids.update(k for k in range((m - 2) * n, (m - 1) * n) if k % 3 != 0)
        ids.add((m - 1) * n - 1)  # hand the wave across the last-row boundary
        return ids
    if m == 4:
        return {torus_vertex_id(m, n, i, j) for i in (1, 3) for j in _irange(1, n)}
    raise BadParam(f"no fallback layout for ({m},{n})")


def _fallback_report(m: int, n: int) -> SeedReport:
    return _verified_report(
        torus_cordalis(m, n),
        3,
        _fallback_seed_ids(m, n),
        family="torus_cordalis",
        params={"m": m, "n": n},
        case="fallback",
        kind=UPPER,
        expected_size=flocchini_upper(m, n, "cordalis"),
        lower_bound=tss_lower_bound_torus(m, n),
    )


def seed_torus_cordalis(m: int, n: int) -> SeedReport:
    """Best applicable construction for the m x n torus cordalis.

    Exact cases are preferred (n=3; m divisible by 3; the n=3s exact cases),
    then the gap-one case, then the upper-bound families, then the verified
    fallback.
    """
    if m < 3 or n < 2:
        raise BadParam("torus cordalis needs m >= 3 and n >= 2")
    check_vertex_count(m * n, "mn")
    if n == 3:
        return seed_cordalis_n3(m)
    if m % 3 == 0:
        return seed_cordalis_m0mod3(m, n)
    if n % 3 == 0 and (m % 2 == 1 and m >= 5 or m % 2 == 0 and m >= 8):
        return seed_cordalis_n3s(m, n // 3)
    if n % 3 == 1 and (m % 2 == 1 and m >= 5 or m % 2 == 0 and m >= 8):
        return seed_cordalis_n1mod3(m, n)
    if n % 3 == 2 and n >= 5 and m >= 10:
        return seed_cordalis_n2mod3(m, n)
    return _fallback_report(m, n)

"""Reference answers that do not depend on the `tss` package.

Every graph here is built from its textbook definition, every closure is a
plain round-by-round count of active neighbours, and every optimum comes from
a theorem or from the recorded table below.  Nothing in this module imports
`tss`, so a defect in the library cannot hide in its own oracle.

Vertex ids follow the documented `tss-graph-v1` layout: torus vertex (i,j)
(1-based) has id (i-1)*n + (j-1); in the two-ring families v_i has id i-1 and
u_i has id m+i-1 (m = ring length).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RefGraph:
    n: int
    edges: frozenset[tuple[int, int]]  # (min, max) pairs
    labels: dict[int, str]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _graph(n: int, pairs, labels: dict[int, str]) -> RefGraph:
    return RefGraph(n, frozenset((min(u, v), max(u, v)) for u, v in pairs), labels)


def _torus(m: int, n: int, pairs) -> RefGraph:
    labels = {(i - 1) * n + (j - 1): f"({i},{j})" for i in range(1, m + 1) for j in range(1, n + 1)}
    return _graph(m * n, pairs, labels)


def _tid(m: int, n: int, i: int, j: int) -> int:
    return ((i - 1) % m) * n + (j - 1) % n


def mesh(m: int, n: int) -> RefGraph:
    """(i,j) ~ (i+1,j) and (i,j) ~ (i,j+1), both coordinates wrapping."""
    t = lambda i, j: _tid(m, n, i, j)
    pairs = [(t(i, j), t(i + 1, j)) for i in range(1, m + 1) for j in range(1, n + 1)]
    pairs += [(t(i, j), t(i, j + 1)) for i in range(1, m + 1) for j in range(1, n + 1)]
    return _torus(m, n, pairs)


def _cordalis_pairs(m: int, n: int) -> list[tuple[int, int]]:
    t = lambda i, j: _tid(m, n, i, j)
    pairs = [(t(i, j), t(i + 1, j)) for i in range(1, m + 1) for j in range(1, n + 1)]
    pairs += [(t(i, j), t(i, j + 1)) for i in range(1, m + 1) for j in range(1, n)]
    pairs += [(t(i, n), t(i + 1, 1)) for i in range(1, m + 1)]  # column wrap moves down a row
    return pairs


def cordalis(m: int, n: int) -> RefGraph:
    """Mesh whose column wrap (i,n)(i,1) is replaced by (i,n)(i+1,1)."""
    return _torus(m, n, _cordalis_pairs(m, n))


def serpentinus(m: int, n: int) -> RefGraph:
    """Cordalis whose row wrap (1,j)(m,j) is replaced by (1,j)(m,j+1)."""
    t = lambda i, j: _tid(m, n, i, j)
    row_wrap = {(t(1, j), t(m, j)) for j in range(1, n + 1)}
    pairs = [p for p in _cordalis_pairs(m, n) if p not in row_wrap and p[::-1] not in row_wrap]
    pairs += [(t(1, j), t(m, j + 1)) for j in range(1, n + 1)]
    return _torus(m, n, pairs)


def _two_rings(m: int, pairs) -> RefGraph:
    labels = {i: f"v{i + 1}" for i in range(m)}
    labels.update({m + i: f"u{i + 1}" for i in range(m)})
    return _graph(2 * m, pairs, labels)


def petersen(m: int, s: int) -> RefGraph:
    """P(m,s): outer cycle v, spokes u_i v_i, inner steps u_i u_{i+s}."""
    pairs = [(i, (i + 1) % m) for i in range(m)]
    pairs += [(i, m + i) for i in range(m)]
    pairs += [(m + i, m + (i + s) % m) for i in range(m)]
    return _two_rings(m, pairs)


def cycle_permutation(pi: list[int]) -> RefGraph:
    """Two n-cycles v and u joined by v_i u_{pi(i)}; `pi` is 0-based."""
    n = len(pi)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(n + i, n + (i + 1) % n) for i in range(n)]
    pairs += [(i, n + pi[i]) for i in range(n)]
    return _two_rings(n, pairs)


def graph_doc(g: RefGraph, thresholds: list[int] | None) -> dict:
    """The graph as a `tss-graph-v1` document (a dict ready for json.dumps)."""
    doc = {
        "format": "tss-graph-v1",
        "n": g.n,
        "edges": [list(e) for e in sorted(g.edges)],
        "labels": {str(v): g.labels[v] for v in range(g.n)},
    }
    if thresholds is not None:
        doc["thresholds"] = thresholds
    return doc


def strict_majority(adj: list[list[int]]) -> list[int]:
    return [len(a) // 2 + 1 for a in adj]


def closure_rounds(adj: list[list[int]], theta: list[int], seed) -> list[list[int]]:
    """Rounds of the parallel process: round t lists, sorted, the vertices that
    first have theta(v) active neighbours after round t-1.  A vertex is only
    re-examined when a neighbour has just become active."""
    active = bytearray(len(adj))
    for v in seed:
        active[v] = 1
    candidates = set(range(len(adj)))
    rounds = []
    while candidates:
        new = sorted(
            v for v in candidates
            if not active[v] and sum(active[w] for w in adj[v]) >= theta[v]
        )
        if not new:
            break
        for v in new:
            active[v] = 1
        rounds.append(new)
        candidates = {w for v in new for w in adj[v]}
    return rounds


def final_size(adj, theta, seed) -> int:
    return len(set(seed)) + sum(len(r) for r in closure_rounds(adj, theta, seed))


def first_bad_step(adj, theta, seed, order) -> tuple[int, int, int] | None:
    """(1-based position, active neighbours, threshold) of the first entry of
    `order` that is not yet supported, or None if every step is legal."""
    active = set(seed)
    for pos, v in enumerate(order, start=1):
        have = sum(1 for w in adj[v] if w in active)
        if have < theta[v]:
            return pos, have, theta[v]
        active.add(v)
    return None


def certificate_error(adj, theta, seed, order) -> str | None:
    """Why (seed, order) is not a full convinced sequence, or None if it is."""
    seed, order = set(seed), list(order)
    if len(seed) + len(order) != len(adj) or seed.union(order) != set(range(len(adj))):
        return "seed and sequence do not partition the vertex set"
    bad = first_bad_step(adj, theta, seed, order)
    if bad is not None:
        return f"sequence step {bad[0]} has {bad[1]} of {bad[2]} active neighbours"
    return None


# Seed sizes of the torus cordalis constructions, one closed form per case tag
# (Theorems 5 to 9 of the source paper; T6c is the gap-one case, ms+2).
def cordalis_case_size(case: str, m: int, n: int) -> int | None:
    if case == "T5":
        return m + 1
    if case in ("T6a", "T6b", "T6c"):
        return m * (n // 3) + (2 if case == "T6c" else 1)
    if case in ("T7c1", "T7c2", "T7c3"):
        return m * ((n - 1) // 3) + {"T7c1": (m + 1) // 2, "T7c2": m // 2, "T7c3": m // 2 + 1}[case]
    if case in ("T8c1", "T8c2", "T8c3", "T8c4", "T8c5", "T8c6"):
        s, t = (n - 2) // 3, m // 4
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


def cordalis_lower(m: int, n: int) -> int:
    """ceil((mn+1)/3): no smaller seed can activate a strict-majority torus."""
    return (m * n + 3) // 3


def cordalis_strip_upper(m: int, n: int) -> int:
    """ceil(m/3)(n+1): seeding every third row plus one vertex per strip."""
    return -(-m // 3) * (n + 1)


def cordalis_seed_error(m: int, n: int, case: str, seed, sequence) -> str | None:
    """Check a torus cordalis seed report against the closed forms and by
    simulation on an independently built graph."""
    size = len(set(seed))
    want = cordalis_case_size(case, m, n)
    if want is not None and size != want:
        return f"({m},{n}) {case}: size {size}, closed form {want}"
    if not cordalis_lower(m, n) <= size <= cordalis_strip_upper(m, n):
        return f"({m},{n}) {case}: size {size} outside [{cordalis_lower(m, n)}, {cordalis_strip_upper(m, n)}]"
    adj = cordalis(m, n).adjacency()
    theta = [3] * (m * n)
    if final_size(adj, theta, seed) != m * n:
        return f"({m},{n}) {case}: seed does not activate every vertex"
    err = certificate_error(adj, theta, seed, sequence)
    return f"({m},{n}) {case}: {err}" if err else None


# Minimum influencing seed sizes for the exact-solver instances.  Cordalis
# (7,3) is T5 (m+1), (3,7) and (6,4) are T9 (mn/3+1), P(m,s) at threshold 2
# is ceil((m+1)/2) (Theorem 4) and a cycle permutation graph on 2n vertices
# is ceil((n+1)/2) (Theorem 3).  The others were settled by exhaustive
# search: (3,3) 4, (4,5) 8, (5,4) 8, mesh 4x5 8, serpentinus 4x5 7 and
# (5,5) 9, which also matches the ILP optimum recorded in ROADMAP.md.
KNOWN_OPTIMA = {
    ("cordalis", 3, 3): 4,
    ("cordalis", 4, 5): 8,
    ("cordalis", 5, 4): 8,
    ("cordalis", 6, 4): 9,
    ("cordalis", 3, 7): 8,
    ("cordalis", 7, 3): 8,
    ("cordalis", 5, 5): 9,
    ("mesh", 4, 5): 8,
    ("serpentinus", 4, 5): 7,
    ("petersen", 11, 3): 6,
    ("petersen", 12, 5): 7,
}


def cycle_permutation_optimum(n: int) -> int:
    return (n + 2) // 2

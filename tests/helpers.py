"""Shared test utilities, including an intentionally naive activation oracle.

The naive closure below rescans every vertex each pass and works on plain
sets; it shares no code with the package's counter/bitmask engines, so it can
serve as an independent reference for small instances. Likewise the torus
reference lists each family's edges from its coordinate definition and builds
the graph through `build_graph`, independently of the closed-form neighbour
tuples in `tss.families`. `naive_canonical` canonicalises an edge list
through a set of pairs, as a reference for `build_graph`'s one-pass loader.
"""

from __future__ import annotations

import random
from itertools import combinations

from tss.errors import NonSimpleResult
from tss.graph import Graph, build_graph


def naive_closure(g: Graph, theta, seed) -> set[int]:
    active = set(seed)
    changed = True
    while changed:
        changed = False
        for v in range(g.vertex_count):
            if v in active:
                continue
            if sum(1 for w in g.adjacency[v] if w in active) >= theta[v]:
                active.add(v)
                changed = True
    return active


def naive_rounds(g: Graph, theta, seed) -> tuple[list[set[int]], set[int]]:
    """Parallel process round by round, recounting every vertex from scratch."""
    active = set(seed)
    rounds = []
    while True:
        new = {
            v
            for v in range(g.vertex_count)
            if v not in active and sum(1 for w in g.adjacency[v] if w in active) >= theta[v]
        }
        if not new:
            return rounds, active
        rounds.append(new)
        active |= new


def naive_min_seed(g: Graph, theta, must_contain=frozenset()) -> int:
    """Exhaustive minimum influencing-seed size, optionally forcing vertices."""
    n = g.vertex_count
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if not must_contain <= set(combo):
                continue
            if len(naive_closure(g, theta, combo)) == n:
                return k
    raise AssertionError("the full vertex set always influences")


def naive_canonical(n: int, edge_list) -> tuple[tuple, tuple]:
    """(sorted deduplicated (min, max) pairs, sorted neighbour tuples) of a
    loop-free edge list on 0..n-1, through a set of pairs."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edge_list})
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(pairs), tuple(tuple(sorted(a)) for a in nbrs)


def reference_torus(variant: str, m: int, n: int) -> Graph:
    """mesh, cordalis or serpentinus from its coordinate edge list.

    Coordinates are 0-based here, with id i*n + j for (i, j). Raises
    NonSimpleResult if the list names one pair twice.
    """
    vid = lambda i, j: (i % m) * n + j % n
    edges = []
    for i in range(m):
        for j in range(n):
            if variant == "mesh" or j < n - 1:
                edges.append((vid(i, j), vid(i, j + 1)))
            else:  # the column wrap shifts one row
                edges.append((vid(i, j), vid(i + 1, 0)))
            if variant == "serpentinus" and i == m - 1:  # the row wrap shifts one column
                edges.append((vid(i, j + 1), vid(0, j)))
            else:
                edges.append((vid(i, j), vid(i + 1, j)))
    if len({frozenset(e) for e in edges}) < len(edges):
        raise NonSimpleResult(f"{variant} ({m},{n}) names an edge twice")
    labels = {vid(i, j): f"({i + 1},{j + 1})" for i in range(m) for j in range(n)}
    return build_graph(m * n, edges, labels)


def random_connected_graph(rng: random.Random, max_vertices: int, min_vertices: int = 2) -> Graph:
    n = rng.randint(min_vertices, max_vertices)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return build_graph(n, edges)


def random_thresholds(rng: random.Random, g: Graph) -> tuple[int, ...]:
    return tuple(rng.randint(0, g.degree(v) + 1) for v in g.vertices())


def two_colorable(g: Graph) -> bool:
    color = {}
    for start in g.vertices():
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True

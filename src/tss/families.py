"""Constructors for the graph families used throughout the package.

Vertex ids are 0-based and contiguous; the 1-based coordinates used in the
display labels ("v3", "u1", "(2,5)") exist only in each graph's label map.

The three tori use row-major ids, (i,j) -> (i-1)n + (j-1), and are built
from closed-form neighbour tuples instead of through `build_graph`: the torus
cordalis is the circulant C_mn(1, n), and the mesh and the serpentinus differ
from it only at the row ends and in the first and last rows respectively.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadParam, BadPermutation, NonSimpleResult
from .graph import Graph, _graph_from_neighbours, build_graph


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def permutation_from_one_based(images: Sequence[int]) -> tuple[int, ...]:
    """Convert a 1-based image list (pi(1), pi(2), ...) to the 0-based form."""
    return tuple(x - 1 for x in images)


def check_permutation(mapping: Sequence[int]) -> tuple[int, ...]:
    n = len(mapping)
    if sorted(mapping) != list(range(n)):
        raise BadPermutation(f"not a bijection on 0..{n - 1}: {list(mapping)}")
    return tuple(mapping)


def path(n: int) -> Graph:
    """Path x_1..x_n."""
    if n < 1:
        raise BadParam("path needs n >= 1")
    labels = {i: f"x{i + 1}" for i in range(n)}
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], labels)


def cycle(n: int) -> Graph:
    """Cycle x_1..x_n."""
    if n < 3:
        raise BadParam("cycle needs n >= 3")
    labels = {i: f"x{i + 1}" for i in range(n)}
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges, labels)


def cycle_permutation(n: int, permutation: Sequence[int]) -> Graph:
    """Two disjoint n-cycles v_*, u_* joined by the matching v_i u_{pi(i)}.

    `permutation` is the 0-based mapping: entry i holds pi(i+1)-1.
    Ids 0..n-1 are v_1..v_n, ids n..2n-1 are u_1..u_n.
    """
    if n < 4:
        raise BadParam("cycle permutation graph needs n >= 4")
    if len(permutation) != n:
        raise BadPermutation(f"permutation length {len(permutation)} != {n}")
    pi = check_permutation(permutation)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + pi[i]) for i in range(n)]
    labels = {i: f"v{i + 1}" for i in range(n)}
    labels.update({n + i: f"u{i + 1}" for i in range(n)})
    return build_graph(2 * n, edges, labels)


def generalized_petersen(m: int, s: int) -> Graph:
    """Outer m-cycle v_*, inner step-s cycle(s) u_*, joined by spokes u_i v_i.

    Ids 0..m-1 are v_1..v_m, ids m..2m-1 are u_1..u_m; inner subscripts wrap
    modulo m.
    """
    if m < 3:
        raise BadParam("generalized Petersen graph needs m >= 3")
    if not 1 <= s <= (m - 1) // 2:
        raise BadParam(f"need 1 <= s <= floor((m-1)/2) = {(m - 1) // 2}, got s={s}")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, i) for i in range(m)]
    edges += [(m + i, m + (i + s) % m) for i in range(m)]
    labels = {i: f"v{i + 1}" for i in range(m)}
    labels.update({m + i: f"u{i + 1}" for i in range(m)})
    return build_graph(2 * m, edges, labels)


def torus_vertex_id(m: int, n: int, i: int, j: int) -> int:
    """Id of coordinate (i,j); both coordinates are 1-based and wrap."""
    return ((i - 1) % m) * n + ((j - 1) % n)


def _torus_labels(m: int, n: int) -> dict[int, str]:
    return dict(enumerate(f"({i},{j})" for i in range(1, m + 1) for j in range(1, n + 1)))


def _torus_graph(m: int, n: int, nbrs: list[tuple[int, ...]]) -> Graph:
    """Graph from row-major neighbour tuples whose ids may lie outside 0..mn-1.

    Tuples of the interior rows must already be sorted and in range; only
    the first and last rows (ids below n and from mn-n on) are reduced mod
    mn and sorted here.
    """
    N = m * n
    for k in (*range(n), *range(N - n, N)):
        nbrs[k] = tuple(sorted(v % N for v in nbrs[k]))
    return _graph_from_neighbours(nbrs, _torus_labels(m, n))


def toroidal_mesh(m: int, n: int) -> Graph:
    """m x n torus grid: (i,j) adjacent to (i±1,j) and (i,j±1), wrapping."""
    if m < 3 or n < 3:
        raise BadParam("toroidal mesh needs m >= 3 and n >= 3")
    nbrs = [(k - n, k - 1, k + 1, k + n) for k in range(m * n)]
    for r in range(0, m * n, n):  # the column wrap (i,n)(i,1) stays in its row
        nbrs[r] = (r - n, r + 1, r + n - 1, r + n)
        nbrs[r + n - 1] = (r - 1, r, r + n - 2, r + 2 * n - 1)
    return _torus_graph(m, n, nbrs)


def torus_cordalis(m: int, n: int) -> Graph:
    """Torus grid whose column wraparound shifts one row.

    The edge (i,n)(i,1) of the mesh is replaced by (i,n)(i+1,1), so the column
    direction forms a single cycle through all mn vertices. With row-major ids
    this is the circulant C_mn(1, n): k is adjacent to k±1 and k±n mod mn.
    """
    if m < 3 or n < 2:
        raise BadParam("torus cordalis needs m >= 3 and n >= 2")
    return _torus_graph(m, n, [(k - n, k - 1, k + 1, k + n) for k in range(m * n)])


def torus_serpentinus(m: int, n: int) -> Graph:
    """Torus cordalis with the row wraparound additionally shifted one column.

    The edge (1,j)(m,j) is replaced by (1,j)(m,j+1), second coordinate mod n.
    At n = 2 the replacement (1,1)(m,2) is the cordalis edge (m,2)(1,1).
    """
    if m < 3 or n < 2:
        raise BadParam("torus serpentinus needs m >= 3 and n >= 2")
    if n == 2:
        raise NonSimpleResult(
            f"torus serpentinus ({m},{n}): replacement edge {(0, m * n - 1)} already present"
        )
    N = m * n
    nbrs = [(k - n, k - 1, k + 1, k + n) for k in range(N)]
    for j in range(n):
        nbrs[j] = (N - n + (j + 1) % n, j - 1, j + 1, j + n)
        nbrs[N - n + j] = (N - 2 * n + j, N - n + j - 1, N - n + j + 1, (j - 1) % n)
    return _torus_graph(m, n, nbrs)

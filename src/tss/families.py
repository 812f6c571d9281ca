"""Constructors for the graph families used throughout the package.

Vertex ids are 0-based and contiguous; the 1-based coordinates used in the
display labels ("v3", "u1", "(2,5)") exist only in each graph's label map.

The three tori use row-major ids, (i,j) -> (i-1)n + (j-1), and pass
closed-form neighbour tuples straight to `Graph`, with no edge list. The
torus cordalis is the circulant C_mn(1, n), whose tuples are written already
sorted, one closed form each for vertex 0, row 1, the interior, row m and
vertex mn-1. The mesh and the serpentinus are the cordalis's tuples with one
wrap rewired: the mesh's column wrap (i,n)(i,1) replaces the two end tuples
of each row, and the serpentinus's row wrap (1,j)(m,j+1) replaces the tuples
of rows 1 and m.
Their label map is a `TorusLabels`, which formats "(i,j)" from the id on
lookup; the other families keep a plain dict.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .errors import BadParam, BadPermutation, NonSimpleResult
from .graph import Graph, build_graph, check_vertex_count


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
    check_vertex_count(n, "n")
    labels = {i: f"x{i + 1}" for i in range(n)}
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], labels)


def cycle(n: int) -> Graph:
    """Cycle x_1..x_n."""
    if n < 3:
        raise BadParam("cycle needs n >= 3")
    check_vertex_count(n, "n")
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
    check_vertex_count(2 * n, "2n")
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
    check_vertex_count(2 * m, "2m")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, i) for i in range(m)]
    edges += [(m + i, m + (i + s) % m) for i in range(m)]
    labels = {i: f"v{i + 1}" for i in range(m)}
    labels.update({m + i: f"u{i + 1}" for i in range(m)})
    return build_graph(2 * m, edges, labels)


def torus_vertex_id(m: int, n: int, i: int, j: int) -> int:
    """Id of coordinate (i,j); both coordinates are 1-based and wrap."""
    return ((i - 1) % m) * n + ((j - 1) % n)


class TorusLabels(Mapping[int, str]):
    """Read-only label map of an m x n torus: id v is "(i,j)" with
    i = v // n + 1 and j = v % n + 1. Each label is formatted on lookup, so
    building a torus formats none of its mn labels; ids outside 0..mn-1 raise
    KeyError.
    """

    __slots__ = ("_n", "_size")

    def __init__(self, m: int, n: int):
        self._n = n
        self._size = m * n

    def __getitem__(self, v: int) -> str:
        if isinstance(v, int) and 0 <= v < self._size:
            return f"({v // self._n + 1},{v % self._n + 1})"
        raise KeyError(v)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._size))

    def __len__(self) -> int:
        return self._size


# variant -> (name in messages, least n); every variant needs m >= 3.
_TORUS_DOMAIN = {"mesh": ("toroidal mesh", 3), "cordalis": ("torus cordalis", 2),
                 "serpentinus": ("torus serpentinus", 2)}


def check_torus(variant: str, m: int, n: int) -> None:
    """Refuse (m, n) outside the domain of a torus variant: BadParam when
    m < 3 or n is below the variant's least n, NonSimpleResult for the
    serpentinus at n = 2, whose shifted row wrap is a column wrap edge."""
    if variant not in _TORUS_DOMAIN:
        raise BadParam(f"unknown torus variant {variant!r}")
    name, least_n = _TORUS_DOMAIN[variant]
    if m < 3 or n < least_n:
        raise BadParam(f"{name} needs m >= 3 and n >= {least_n}")
    if variant == "serpentinus" and n == 2:
        raise NonSimpleResult(
            f"{name} ({m},{n}): replacement edge {(0, m * n - 1)} already present"
        )


def _circulant_tuples(variant: str, m: int, n: int) -> list[tuple[int, ...]]:
    """The sorted neighbour tuples of C_mn(1, n), the torus cordalis, after
    `check_torus(variant, m, n)` and the vertex cap.

    In closed form: vertex 0, the rest of row 1, the interior, row m but its
    last vertex, vertex mn - 1. m >= 3 and n >= 2 keep every tuple strictly
    increasing.
    """
    check_torus(variant, m, n)
    check_vertex_count(m * n, "mn")
    N = m * n
    low, high = range(n - 1), range(N - n + 1, N)
    nbrs = [(1, n, N - n, N - 1)]
    nbrs += zip(low, range(2, n + 1), range(n + 1, 2 * n), high)
    nbrs += zip(range(N - 2 * n), range(n - 1, N - n - 1), range(n + 1, N - n + 1), range(2 * n, N))
    nbrs += zip(low, range(N - 2 * n, N - n - 1), range(N - n - 1, N - 2), high)
    nbrs.append((0, n - 1, N - n - 1, N - 2))
    return nbrs


def toroidal_mesh(m: int, n: int) -> Graph:
    """m x n torus grid: (i,j) adjacent to (i±1,j) and (i,j±1), wrapping."""
    nbrs = _circulant_tuples("mesh", m, n)
    N = m * n
    for r in range(0, N, n):  # the column wrap (i,n)(i,1) stays in its row
        nbrs[r] = tuple(sorted(((r - n) % N, r + 1, r + n - 1, (r + n) % N)))
        nbrs[r + n - 1] = tuple(sorted(((r - 1) % N, r, r + n - 2, (r + 2 * n - 1) % N)))
    return Graph(tuple(nbrs), TorusLabels(m, n))


def torus_cordalis(m: int, n: int) -> Graph:
    """Torus grid whose column wraparound shifts one row.

    The edge (i,n)(i,1) of the mesh is replaced by (i,n)(i+1,1), so the column
    direction forms a single cycle through all mn vertices. With row-major ids
    this is the circulant C_mn(1, n): k is adjacent to k±1 and k±n mod mn.
    """
    return Graph(tuple(_circulant_tuples("cordalis", m, n)), TorusLabels(m, n))


def torus_serpentinus(m: int, n: int) -> Graph:
    """Torus cordalis with the row wraparound additionally shifted one column.

    The edge (1,j)(m,j) is replaced by (1,j)(m,j+1), second coordinate mod n.
    At n = 2 the replacement (1,1)(m,2) is the cordalis edge (m,2)(1,1).
    """
    nbrs = _circulant_tuples("serpentinus", m, n)
    N = m * n
    for j in range(n):  # rows 1 and m, joined by the shifted row wrap (1,j)(m,j+1)
        k = N - n + j
        nbrs[j] = tuple(sorted(((j - 1) % N, j + 1, j + n, N - n + (j + 1) % n)))
        nbrs[k] = tuple(sorted((k - n, k - 1, (k + 1) % N, (j - 1) % n)))
    return Graph(tuple(nbrs), TorusLabels(m, n))

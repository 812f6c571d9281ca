"""Constructors for the graph families used throughout the package.

Vertex ids are 0-based and contiguous; the 1-based coordinates used in the
display labels ("v3", "u1", "(2,5)") exist only in each graph's label map.

The three tori use row-major ids, (i,j) -> (i-1)n + (j-1), and pass
closed-form neighbour tuples straight to `Graph`, with no edge list. The
torus cordalis is the circulant C_mn(1, n), and it writes its tuples already
sorted, one closed form each for vertex 0, row 1, the interior, row m and
vertex mn-1. The mesh and the serpentinus differ from it only at the row
ends and in the first and last rows; `_torus_graph` serves only those two,
reducing and sorting their first and last rows.
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


def _torus_graph(m: int, n: int, nbrs: list[tuple[int, ...]]) -> Graph:
    """Graph from row-major neighbour tuples whose ids may lie outside 0..mn-1.

    Tuples of the interior rows must already be sorted and in range; only
    the first and last rows (ids below n and from mn-n on) are reduced mod
    mn and sorted here.
    """
    N = m * n
    for k in (*range(n), *range(N - n, N)):
        nbrs[k] = tuple(sorted(v % N for v in nbrs[k]))
    return Graph(tuple(nbrs), TorusLabels(m, n))


def toroidal_mesh(m: int, n: int) -> Graph:
    """m x n torus grid: (i,j) adjacent to (i±1,j) and (i,j±1), wrapping."""
    check_torus("mesh", m, n)
    check_vertex_count(m * n, "mn")
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
    check_torus("cordalis", m, n)
    check_vertex_count(m * n, "mn")
    N = m * n
    # The sorted tuples of C_N(1, n), N = mn, in closed form: vertex 0, the
    # rest of row 1, the interior, row m but its last vertex, vertex N - 1.
    # m >= 3 and n >= 2 keep every tuple strictly increasing.
    low, high = range(n - 1), range(N - n + 1, N)
    nbrs = [(1, n, N - n, N - 1)]
    nbrs += zip(low, range(2, n + 1), range(n + 1, 2 * n), high)
    nbrs += zip(range(N - 2 * n), range(n - 1, N - n - 1), range(n + 1, N - n + 1), range(2 * n, N))
    nbrs += zip(low, range(N - 2 * n, N - n - 1), range(N - n - 1, N - 2), high)
    nbrs.append((0, n - 1, N - n - 1, N - 2))
    return Graph(tuple(nbrs), TorusLabels(m, n))


def torus_serpentinus(m: int, n: int) -> Graph:
    """Torus cordalis with the row wraparound additionally shifted one column.

    The edge (1,j)(m,j) is replaced by (1,j)(m,j+1), second coordinate mod n.
    At n = 2 the replacement (1,1)(m,2) is the cordalis edge (m,2)(1,1).
    """
    check_torus("serpentinus", m, n)
    check_vertex_count(m * n, "mn")
    N = m * n
    nbrs = [(k - n, k - 1, k + 1, k + n) for k in range(N)]
    for j in range(n):
        nbrs[j] = (N - n + (j + 1) % n, j - 1, j + 1, j + n)
        nbrs[N - n + j] = (N - 2 * n + j, N - n + j - 1, N - n + j + 1, (j - 1) % n)
    return _torus_graph(m, n, nbrs)

"""Brute-force ground truth on the full graph.

Nothing in here knows about the quotient decomposition.  Every dense oracle
starts from one boolean adjacency matrix computed from element gcds
(``comax_graph.adjacency``): spectra come from a dense symmetric eigensolver
or from the exact characteristic polynomial of the full Laplacian, component
counts (of G2 and of its complement) come from a frontier traversal of that
matrix, and the minimum vertex cut counts vertex-disjoint paths by shortest
augmenting paths on a vertex-split residual matrix read off it, capped at a
few hundred vertices.

Both spectral oracles split the Laplacian by negation, x -> -x mod n.  It
maps every divisor class onto itself, so it is an automorphism, but that is
not assumed: ``negation_split`` checks it exactly on the adjacency of all n
vertices, one 256-row panel at a time, and raises if it fails.  The
orthogonal basis e_x + e_(n-x), e_x - e_(n-x) (x = 1..ceil(n/2) - 1) plus
the fixed points 0 and, for even n, n/2 (Cvetkovic, Rowlinson & Simic,
*An Introduction to the Theory of Graph Spectra*, 2010) turns the one
n x n Laplacian into an even block of size floor(n/2) + 1 and an odd block
of size ceil(n/2) - 1.  A dense symmetric eigensolve costs about n^3, so the
two half-size solves cost about a quarter of the one, and the split never
holds more than the adjacency and one block: about three eighths of one
float64 n x n Laplacian.  Only this one involution is used: the orbits of
the whole unit group are the divisor classes, which would rebuild the
quotient this module exists to check.

Disagreement with the quotient pipeline means a bug, so these paths share
no spectral shortcut with it; the pipeline never uses negation.  The one
exception is the dense exact charpoly kernel (``char_poly_matrix``), which
the pipeline reaches only as the fallback of its structured kernel, for a
residue row that kernel leaves incomplete.  The dense kernel skips the
Hessenberg columns that are already closed and multiplies the charpolys of
the diagonal blocks they leave.  That is generic Hessenberg deflation,
which any matrix gets and which reads nothing of the graph; on the
Laplacian blocks, with their few distinct eigenvalues, it skips most
columns.  It is not a spectral shortcut.  The tests check the dense
kernel independently, against sympy and against a fraction-free
determinant of their own at random points.
"""

from __future__ import annotations

import heapq
from typing import Callable, TypeVar

import numpy as np

from . import config
from .comax_graph import adjacency, g2_vertices
from .polynomial import IntPoly, char_poly_matrix
from .ring_divisors import Modulus


T = TypeVar("T")


class OracleLimitExceeded(Exception):
    """Raised when an input is beyond the configured brute-force size caps."""


def numeric_spectrum(laplacian: np.ndarray) -> tuple[float, ...]:
    """All eigenvalues of a dense symmetric integer-valued matrix, ascending,
    from a backward-stable symmetric eigensolver (orthogonal similarity).

    A float64 matrix, such as a block of ``negation_split``, is used as it
    is; any other is converted once.  The solver's working copy is then the only
    other n x n float array alive.
    """
    mat = np.asarray(laplacian, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.shape[0] > config.DENSE_LIMIT:
        raise OracleLimitExceeded(
            f"size {mat.shape[0]} exceeds dense limit {config.DENSE_LIMIT}"
        )
    # one 256-row panel at a time: each compares its rows right of the
    # diagonal with the matching columns, and no n x n temporary is made
    for i in range(0, mat.shape[0], 256):
        if not np.array_equal(mat[i : i + 256, i:], mat[i:, i : i + 256].T):
            raise ValueError("matrix must be symmetric")
    return tuple(float(v) for v in np.linalg.eigvalsh(mat))


def negation_split(
    m: Modulus, solve: Callable[[np.ndarray], T], symmetric: bool = True
) -> tuple[T, T]:
    """``solve`` of the even and of the odd block of the Laplacian of the
    comaximal graph under negation, x -> -x mod n, in that order.

    The boolean adjacency of all n vertices is built once, and negation is
    checked to map it onto itself exactly, one 256-row panel at a time, so
    no n x n temporary is made; a mismatch raises ValueError.  With
    k = ceil(n/2) - 1 pairs {x, n - x}, the even block acts on the fixed
    point 0, on e_x + e_(n-x) for x = 1..k and, for even n, on the fixed
    point n/2, in that order; the odd block acts on e_x - e_(n-x), x = 1..k.
    The odd block L[x, y] - L[x, n - y] is an integer matrix.  In the
    orthonormal basis (``symmetric``) the even block is L[x, y] + L[x, n - y]
    between pairs, L[f, g] between fixed points and sqrt(2) L[x, f] between
    the two.  The similar integer form (``symmetric=False``) sums each
    row over the columns of an orbit instead: the fixed-point rows are
    doubled and the pair rows of the fixed-point columns are not scaled.
    Both blocks are float64 with entries below n in magnitude.  The even
    block is dropped before the odd one is built, so the call holds the
    adjacency and one block at a time.  Refuses n above
    ``config.DENSE_LIMIT``.
    """
    n = m.n
    if n > config.DENSE_LIMIT:
        raise OracleLimitExceeded(f"n={n} exceeds dense limit {config.DENSE_LIMIT}")
    adj = adjacency(m, range(n))
    neg = -np.arange(n) % n
    for i in range(0, n, 256):
        if not np.array_equal(adj[neg[i : i + 256]][:, neg], adj[i : i + 256]):
            raise ValueError("negation is not an automorphism of the adjacency")
    degree = adj.sum(axis=1)
    half, k = n // 2, (n - 1) // 2
    mirror = adj[: half + 1, n - 1 : n - k - 1 : -1]  # column y - 1: adj[x, n - y]
    even = np.negative(adj[: half + 1, : half + 1], dtype=np.float64)
    even[:, 1 : k + 1] -= mirror
    even.flat[:: half + 2] += degree[: half + 1]
    if symmetric:
        fixed = [0, half] if n % 2 == 0 else [0]
        even[1 : k + 1, fixed] *= np.sqrt(2.0)
        even[fixed, 1 : k + 1] = even[1 : k + 1, fixed].T
    solved = solve(even)
    del even
    odd = np.negative(adj[1 : k + 1, 1 : k + 1], dtype=np.float64)
    odd += mirror[1 : k + 1]
    odd.flat[:: k + 1] += degree[1 : k + 1]
    return solved, solve(odd)


def dense_spectrum(m: Modulus) -> tuple[float, ...]:
    """All n eigenvalues of the Laplacian, ascending: ``numeric_spectrum`` of
    the two blocks of ``negation_split``, merged."""
    even, odd = negation_split(m, numeric_spectrum)
    return tuple(heapq.merge(even, odd))


def exact_char_poly_full(m: Modulus) -> IntPoly:
    """Exact characteristic polynomial of the full n x n Laplacian: the
    product of those of the integer forms of the two ``negation_split``
    blocks.

    The exact charpoly kernel runs on the dense blocks rather than on the
    quotient, capped at ``config.EXACT_CHARPOLY_LIMIT`` vertices.  Most
    Hessenberg columns of these blocks close early, so the elimination is
    cheap; the cap keeps the Hadamard bound, and with it the number of
    primes, small.  The float64 blocks' integer entries are converted to
    int64 first, as the kernel takes integers only.
    """
    limit = config.EXACT_CHARPOLY_LIMIT
    if m.n > limit:
        raise OracleLimitExceeded(f"n={m.n} exceeds exact char poly limit {limit}")
    even, odd = negation_split(
        m, lambda block: char_poly_matrix(block.astype(np.int64)), symmetric=False
    )
    return even * odd


def g2_adjacency(m: Modulus) -> np.ndarray:
    """Boolean adjacency of G2 (ascending nonzero non-units), capped at the
    dense limit on its n - phi(n) - 1 vertices."""
    size = m.n - m.phi - 1
    if size > config.DENSE_LIMIT:
        raise OracleLimitExceeded(
            f"|V(G2)|={size} exceeds dense limit {config.DENSE_LIMIT}"
        )
    return adjacency(m, g2_vertices(m))


def complement(adj: np.ndarray) -> np.ndarray:
    """Boolean adjacency of the complement graph (False diagonal)."""
    out = ~adj
    np.fill_diagonal(out, False)
    return out


def count_components(adj: np.ndarray) -> int:
    """Number of connected components of a boolean adjacency matrix, by
    frontier traversal: each step adds the unseen neighbours of the whole
    frontier at once."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    count = 0
    while not seen.all():
        frontier = np.zeros_like(seen)
        frontier[np.argmin(seen)] = True
        while frontier.any():
            seen |= frontier
            frontier = adj[frontier].any(axis=0) & ~seen
        count += 1
    return count


def _disjoint_paths(adj: np.ndarray, s: int, t: int, limit: int) -> int:
    """Max internally vertex-disjoint s-t paths, truncated at ``limit``.

    Vertex splitting (v_in = 2v, v_out = 2v + 1, one unit through each
    vertex) turns them into unit flow from s_out to t_in.  Each round finds
    one shortest augmenting path by frontier BFS on the residual capacity
    matrix and reverses it.
    """
    n = adj.shape[0]
    cap = np.zeros((2 * n, 2 * n), dtype=np.int8)
    cap[2 * np.arange(n), 2 * np.arange(n) + 1] = 1
    u, v = np.nonzero(adj)
    cap[2 * u + 1, 2 * v] = 1
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        parent = np.full(2 * n, -1)
        parent[source] = source
        frontier = np.array([source])
        while frontier.size and parent[sink] < 0:
            reach = (cap[frontier] > 0) & (parent < 0)
            new = np.flatnonzero(reach.any(axis=0))
            parent[new] = frontier[reach[:, new].argmax(axis=0)]
            frontier = new
        if parent[sink] < 0:
            break
        x = sink
        while x != source:
            cap[parent[x], x] -= 1
            cap[x, parent[x]] += 1
            x = parent[x]
        flow += 1
    return flow


def min_vertex_cut(adj: np.ndarray) -> int:
    """Vertex connectivity of the graph with boolean adjacency ``adj``, by
    Menger max-flow over non-adjacent pairs.

    Complete graphs return n - 1 by convention (no separating set exists);
    disconnected graphs return 0.  The pair search is reduced to a minimum
    degree vertex v: any minimum separator avoiding v is found on a pair
    (v, non-neighbor), and one containing v on a pair of non-adjacent
    neighbors of v.  Pairs whose common-neighborhood size (read off one
    integer product adj @ adj) already reaches the best cut found so far are
    skipped, since the flow between them cannot be smaller; this keeps the
    result exact while avoiding almost every flow computation on dense
    class-structured graphs.
    """
    n = adj.shape[0]
    if n > config.VERTEX_CUT_LIMIT:
        raise OracleLimitExceeded(
            f"{n} vertices exceeds vertex cut limit {config.VERTEX_CUT_LIMIT}"
        )
    if n <= 1 or count_components(adj) > 1:
        return 0
    degree = adj.sum(axis=1).tolist()
    best = min(degree)
    if best == n - 1:
        return n - 1
    v = degree.index(best)  # N(v) separates v from the (nonempty) rest
    counts = adj.astype(np.int64)
    common = (counts @ counts).tolist()
    for t in np.flatnonzero(~adj[v]).tolist():
        if t == v or common[v][t] >= best:
            continue
        best = min(best, _disjoint_paths(adj, v, t, best))
    nb = sorted(np.flatnonzero(adj[v]).tolist(), key=degree.__getitem__)
    for i, x in enumerate(nb):
        for y in nb[i + 1 :]:
            if adj[x, y] or common[x][y] >= best:
                continue
            best = min(best, _disjoint_paths(adj, x, y, best))
    return best

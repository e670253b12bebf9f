"""Brute-force ground truth on the full graph.

Nothing in here is taken from ``spectra``'s closed forms: the classes,
their sizes and degrees are counted from the rows and checked against every
row.  Every oracle reads the graph from one row source over element gcds
(``comax_graph.AdjacencyRows``), which builds boolean adjacency rows on
demand.  Spectra come from a dense symmetric eigensolver or from exact
power sums, along a split of the full Laplacian checked against every row
a panel at a time; component counts (of G2 and of its complement) come
from a frontier traversal that gathers the frontier's rows 256 at a time.
Only the minimum vertex cut, capped at ``config.VERTEX_CUT_LIMIT``
vertices, builds a matrix of every row (``comax_graph.adjacency``); it
counts vertex-disjoint paths by shortest augmenting paths on a
vertex-split residual matrix read off it.  Every oracle size cap is
checked here.

Both spectral oracles read one split of the Laplacian by the divisor
classes A_d = {x : gcd(x, n) = d}, taken from the gcds of 0..n-1
(``twin_split``).  That they are twin classes, each independent or a
clique and joined to each other class wholly or not at all, is checked
against every row, not assumed.  ``verify`` splits once and hands the split
to both; each splits for itself only when it is given none.  The vectors
that sum to 0 on a class give its |A_d| - 1 eigenvalues exactly, read off
its degree, and the class-constant vectors give the tau(n) x tau(n)
integer quotient Q.  The dense oracle, ``dense_spectrum``, merges the
read-off eigenvalues with those of Q's symmetric form; the exact oracle,
``block_power_sums``, gives them with the exact power sums trace(Q^j),
j = 1..tau(n), which by Newton's identities over Q fix charpoly(Q), so
``verify`` proves the identity by comparing them with the spectrum's power
sums, and computes no charpoly when it holds.  When they differ, it reads
the coefficients off them (``IntPoly.from_power_sums``) to name the first
that differs.

For squarefree n each class is one cell of the pipeline's quotient, so Q
restricted to G2 is the pipeline's B, with its sizes and degrees counted
here by brute force from the rows rather than taken from ``spectra``'s
closed forms; for other n the classes are finer than the cells.  The float
comparison thus checks the cells, the join and the eigensolver's
consistency; the exact identity is the strong check, deciding every
multiplicity and the residual exactly.  The one kernel shared with the
pipeline is ``polynomial``'s power-trace kernel (``_power_sums``), which
reads nothing of the graph and which the tests check on their own against
exact integer traces of random matrices; it is not a spectral shortcut.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from . import config
from .comax_graph import AdjacencyRows, adjacency, g2_vertices
from .polynomial import power_sums
from .ring_divisors import Modulus


class OracleLimitExceeded(Exception):
    """Raised when an input is beyond the configured brute-force size caps."""


def numeric_spectrum(laplacian: np.ndarray) -> tuple[float, ...]:
    """All eigenvalues of a dense symmetric matrix, such as a Laplacian,
    ascending, from a backward-stable symmetric eigensolver (orthogonal
    similarity).

    A float64 matrix is used as it is; any other is converted once.  The
    solver's working copy is then the only other n x n float array alive.
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
        if (mat[i : i + 256, i:] != mat[i:, i : i + 256].T).any():
            raise ValueError("matrix must be symmetric")
    return tuple(np.linalg.eigvalsh(mat).tolist())


def _refuse_above_dense_limit(n: int) -> None:
    if n > config.DENSE_LIMIT:
        raise OracleLimitExceeded(f"n exceeds dense limit {config.DENSE_LIMIT}")


class TwinSplit(NamedTuple):
    roots: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity), ascending
    quotient: np.ndarray  # Q, int64, tau(n) x tau(n), by ascending divisor
    sizes: np.ndarray  # |A_d|, by ascending divisor

    def symmetric(self) -> np.ndarray:
        """The float64 form of Q similar to it by diag(|A_d|)**(1/2):
        -A[r_d, r_e] sqrt(|A_d| |A_e|) off the diagonal and Q[d, d] on it,
        exactly symmetric, since the outer product of the sizes is."""
        sym = np.sign(self.quotient) * np.sqrt(np.multiply.outer(self.sizes, self.sizes))
        sym.flat[:: len(sym) + 1] = self.quotient.diagonal()
        return sym


def twin_split(m: Modulus) -> TwinSplit:
    """The Laplacian of the comaximal graph split by its divisor classes
    A_d = {x : gcd(x, n) = d}, d | n, with 0 in A_n: the eigenvalues read
    off the vectors that sum to 0 on each class, and the tau(n) x tau(n)
    quotient Q that L is on the class-constant vectors.

    The classes come from ``np.gcd`` over 0..n-1, each represented by its
    least element r_d.  The boolean adjacency A is read from its
    ``AdjacencyRows``, with no n x n array, and two things are checked
    exactly; a mismatch raises ValueError.  First, each representative's
    row is class-constant, with c[d, e] neighbours in A_e: 0 or |A_e| for
    e != d, and 0 or |A_d| - 1 in its own class, symmetrically in d and e.
    Second, in 256-row panels that are built, compared and dropped, every
    row x equals its representative's row with the positions x and r_d
    swapped, which changes nothing unless A_d is a clique.  The classes are
    then twin classes: each is independent or a clique, and joined to each
    other class wholly or not at all.

    On the class-constant vectors L acts as Q = diag(deg) - c, so
    Q[d, e] = -|A_e| A[r_d, r_e] off the diagonal and deg_d, less
    |A_d| - 1 on a clique, on it.  On a vector that sums to 0 on A_d and
    vanishes off it, L is rho_d = deg_d on an independent class and
    deg_d + 1 on a clique; each class adds rho_d with multiplicity
    |A_d| - 1 to ``roots`` (equitable partitions: Godsil & Royle,
    *Algebraic Graph Theory*, 2001, 9.3).  So
    det(xI - L) = charpoly(Q) prod_d (x - rho_d)**(|A_d| - 1).
    Refuses n above ``config.DENSE_LIMIT``.
    """
    n = m.n
    _refuse_above_dense_limit(n)
    rows = AdjacencyRows(m, range(n))
    _, reps, cls, sizes = np.unique(
        np.gcd(np.arange(n), n), return_index=True, return_inverse=True, return_counts=True
    )
    rep_rows = rows[reps]
    order = np.argsort(cls, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    counts = np.add.reduceat(rep_rows[:, order], starts, axis=1, dtype=np.int64)
    full = sizes - np.eye(len(sizes), dtype=np.int64)  # a wholly joined class
    link = counts == full
    if not ((counts == 0) | link).all() or (link != link.T).any():
        raise ValueError("a divisor class is not a twin class of the adjacency")
    for i in range(0, n, 256):
        panel = np.arange(i, min(i + 256, n))
        expected = rep_rows.take(cls[panel], axis=0)
        at, r = np.arange(len(panel)), reps[cls[panel]]
        expected[at, panel], expected[at, r] = expected[at, r], expected[at, panel]
        expected ^= rows[panel]  # in place: two panels alive, not three
        if expected.any():
            raise ValueError("a divisor class is not a twin class of the adjacency")
    degree = counts.sum(axis=1)
    quotient = np.diag(degree) - counts
    roots = Counter()
    for rho, mult in zip((degree + link.diagonal()).tolist(), (sizes - 1).tolist()):
        roots[rho] += mult
    return TwinSplit(tuple(sorted((r, c) for r, c in roots.items() if c)), quotient, sizes)


def dense_spectrum(m: Modulus, split: TwinSplit | None = None) -> tuple[float, ...]:
    """All n eigenvalues of the Laplacian, ascending: the ``roots`` of
    ``split``, which is ``twin_split(m)`` and is taken here when not given,
    merged with the ``numeric_spectrum`` of the ``symmetric`` form of its
    quotient.  Refuses n above ``config.DENSE_LIMIT`` before it splits."""
    _refuse_above_dense_limit(m.n)
    if split is None:
        split = twin_split(m)
    values = [float(r) for r, mult in split.roots for _ in range(mult)]
    return tuple(sorted(values + list(numeric_spectrum(split.symmetric()))))


class BlockPowerSums(NamedTuple):
    """det(xI - L) = prod (x - r)**mult over ``roots`` times the monic
    polynomial of degree len(sums) whose power sums p_1, p_2, ... are
    ``sums``, which fix it (Newton's identities)."""

    roots: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity), ascending
    sums: tuple[int, ...]


def block_power_sums(m: Modulus, split: TwinSplit | None = None) -> BlockPowerSums:
    """The characteristic polynomial of the full n x n Laplacian along
    ``split``, which is ``twin_split(m)`` and is taken here when not given,
    in power sums: its ``roots``, and the exact trace(Q^j), j = 1..tau(n),
    of its quotient (``power_sums``).  Refuses n above
    ``config.DENSE_LIMIT`` before it splits.
    """
    _refuse_above_dense_limit(m.n)
    roots, quotient, _ = twin_split(m) if split is None else split
    return BlockPowerSums(roots, tuple(power_sums(quotient)))


def g2_rows(m: Modulus) -> AdjacencyRows:
    """The ``AdjacencyRows`` of G2 (ascending nonzero non-units), capped at
    the dense limit on its n - phi(n) - 1 vertices; built in O(|V(G2)|), so
    n itself may reach the cap squared (at p^2)."""
    size = m.n - m.phi - 1
    if size > config.DENSE_LIMIT:
        raise OracleLimitExceeded(
            f"|V(G2)|={size} exceeds dense limit {config.DENSE_LIMIT}"
        )
    return AdjacencyRows(m, g2_vertices(m))


def count_components(rows, complement: bool = False) -> int:
    """Number of connected components of a graph, or with ``complement`` of
    its complement, by frontier traversal: each step adds the unseen
    neighbours of the whole frontier at once, from the frontier's rows
    gathered 256 at a time.  ``rows[pos]`` gives the boolean adjacency rows
    at the positions ``pos`` and ``len(rows)`` the vertex count: an
    ``AdjacencyRows`` or a boolean matrix."""
    seen = np.zeros(len(rows), dtype=bool)
    count = 0
    while not seen.all():
        frontier = np.array([np.argmin(seen)])
        while frontier.size:
            seen[frontier] = True
            reach = np.zeros_like(seen)
            for i in range(0, len(frontier), 256):
                panel = rows[frontier[i : i + 256]]
                # a row's own vertex is seen, so its diagonal entry is moot
                reach |= ~panel.all(axis=0) if complement else panel.any(axis=0)
                del panel  # one panel alive at a time
            frontier = np.flatnonzero(reach & ~seen)
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


def vertex_cut(m: Modulus, g2: bool = False) -> int:
    """``min_vertex_cut`` of the graph of Z_n, or with ``g2`` of G2; above
    ``config.VERTEX_CUT_LIMIT`` vertices, refused from n and phi(n) alone."""
    size, name = (m.n - m.phi - 1, "|V(G2)|") if g2 else (m.n, "n")
    if size > config.VERTEX_CUT_LIMIT:
        raise OracleLimitExceeded(
            f"{name}={size} exceeds vertex cut limit {config.VERTEX_CUT_LIMIT}"
        )
    return min_vertex_cut(adjacency(m, g2_vertices(m) if g2 else range(m.n)))


def min_vertex_cut(adj: np.ndarray) -> int:
    """Vertex connectivity of the graph with boolean adjacency ``adj``, by
    Menger max-flow over non-adjacent pairs.

    Complete graphs return n - 1 by convention (no separating set exists);
    disconnected graphs return 0.  The pair search is reduced to a minimum
    degree vertex v: any minimum separator avoiding v is found on a pair
    (v, non-neighbor), and one containing v on a pair of non-adjacent
    neighbors of v.  Pairs whose common-neighborhood size (read off one
    product adj @ adj) already reaches the best cut found so far are
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
    # a float64 product runs on BLAS, where int64 does not, and is exact:
    # every partial sum is an integer of at most VERTEX_CUT_LIMIT < 2**53
    counts = adj.astype(np.float64)
    common = (counts @ counts).astype(np.int64).tolist()
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

"""Brute-force ground truth on the full graph.

Nothing in here is taken from ``spectra``'s closed forms: the classes,
their sizes and degrees are counted from the rows and checked against every
row.  Every oracle reads the graph from one row source over element gcds
(``comax_graph.AdjacencyRows``), which builds boolean adjacency rows on
demand, through one check: ``twin_classes`` splits an ascending vertex list
by the divisor classes A_d = {x : gcd(x, n) = d} and checks every row
against its class, a panel at a time, with no square array.  What it
returns, ``TwinClasses``, is the graph from then on.  ``verify`` checks the
rows of 0..n-1 once (``twin_split``) and hands the result to every oracle;
each checks for itself only when it is given none.  Every oracle size cap
is checked here.

The spectral oracles read the split of the Laplacian along the classes.
The vectors that sum to 0 on a class give its |A_d| - 1 eigenvalues
exactly, read off its degree, and the class-constant vectors give the
tau(n) x tau(n) integer quotient Q.  The dense oracle, ``dense_spectrum``,
merges the read-off eigenvalues with those of Q's symmetric form; the exact
oracle, ``block_power_sums``, gives them with the exact power sums
trace(Q^j), j = 1..tau(n), which by Newton's identities over Q fix
charpoly(Q), so ``verify`` proves the identity by comparing them with the
spectrum's power sums, and computes no charpoly when it holds.  When they
differ, it reads the coefficients off them (``IntPoly.from_power_sums``) to
name the first that differs.

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

The component counts of G2 and of its complement, and the minimum vertex
cuts, run on the tau(n) classes (G2's are the split's less the units and
{0}), the cuts by a max-flow with the class sizes as vertex capacities.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from . import config
from .comax_graph import AdjacencyRows, g2_vertices
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


class TwinClasses(NamedTuple):
    """A graph given by its twin classes: class i holds ``sizes[i]``
    vertices, each with the same neighbours outside it; off the diagonal
    ``link[i, j]`` says whether classes i and j are wholly joined, and on it
    whether class i is a clique, which is moot for a single vertex.  With
    every size 1 it is any graph, ``link`` its adjacency."""

    sizes: np.ndarray  # int64
    link: np.ndarray  # bool, symmetric


class TwinSplit(NamedTuple):
    roots: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity), ascending
    quotient: np.ndarray  # Q, int64, tau(n) x tau(n), by ascending divisor
    classes: TwinClasses  # of the full graph, by ascending divisor

    def symmetric(self) -> np.ndarray:
        """The float64 form of Q similar to it by diag(|A_d|)**(1/2):
        -A[r_d, r_e] sqrt(|A_d| |A_e|) off the diagonal and Q[d, d] on it,
        exactly symmetric, since the outer product of the sizes is."""
        sizes = self.classes.sizes
        sym = np.sign(self.quotient) * np.sqrt(np.multiply.outer(sizes, sizes))
        sym.flat[:: len(sym) + 1] = self.quotient.diagonal()
        return sym


def twin_classes(m: Modulus, verts: Sequence[int]) -> TwinClasses:
    """The subgraph of the comaximal graph induced on the ascending
    ``verts``, split by its divisor classes A_d, ascending, with
    gcd(0, n) = n, each represented by its least element r_d.

    The boolean adjacency A is read from its ``AdjacencyRows``, and two
    things are checked exactly; a mismatch raises ValueError.  First, each
    representative's row is class-constant, with c[d, e] neighbours in A_e:
    0 or |A_e| for e != d, and 0 or |A_d| - 1 in its own class,
    symmetrically in d and e.  Second, in 256-row panels that are built,
    compared and dropped, every row x with the positions x and r_d swapped,
    which changes nothing unless A_d is a clique, equals its
    representative's row.  The classes are then twin classes: each is
    independent or a clique, and joined to each other class wholly or not
    at all.
    """
    rows = AdjacencyRows(m, verts)
    _, reps, cls, sizes = np.unique(
        np.gcd(np.asarray(verts, dtype=np.int64), m.n),
        return_index=True, return_inverse=True, return_counts=True,
    )
    rep_rows = rows[reps]
    order = np.argsort(cls, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    counts = np.add.reduceat(rep_rows[:, order], starts, axis=1, dtype=np.int64)
    full = sizes - np.eye(len(sizes), dtype=np.int64)  # a wholly joined class
    link = counts == full
    if not ((counts == 0) | link).all() or (link != link.T).any():
        raise ValueError("a divisor class is not a twin class of the adjacency")
    for i in range(0, len(rows), 256):
        panel = np.arange(i, min(i + 256, len(rows)))
        got = rows[panel]
        at, r = np.arange(len(panel)), reps[cls[panel]]
        got[at, panel], got[at, r] = got[at, r], got[at, panel]
        for j in range(0, len(panel), 32):  # one panel alive, and 32 rows
            got[j : j + 32] ^= rep_rows.take(cls[panel[j : j + 32]], axis=0)
        if got.any():
            raise ValueError("a divisor class is not a twin class of the adjacency")
        del got  # before the next panel is built
    return TwinClasses(sizes, link)


def twin_split(m: Modulus) -> TwinSplit:
    """The Laplacian of the comaximal graph split along the
    ``twin_classes`` of 0..n-1.  On the class-constant vectors it acts as
    the tau(n) x tau(n) quotient Q = diag(deg) - c, with c[d, e] the
    neighbours of r_d in A_e, so Q[d, e] = -|A_e| A[r_d, r_e] off the
    diagonal and deg_d, less |A_d| - 1 on a clique, on it.  On a vector
    that sums to 0 on A_d and vanishes off it, L is rho_d = deg_d on an
    independent class and deg_d + 1 on a clique; each class adds rho_d with
    multiplicity |A_d| - 1 to ``roots`` (equitable partitions: Godsil &
    Royle, *Algebraic Graph Theory*, 2001, 9.3).  So
    det(xI - L) = charpoly(Q) prod_d (x - rho_d)**(|A_d| - 1).  Refuses n
    above ``config.DENSE_LIMIT``."""
    _refuse_above_dense_limit(m.n)
    classes = twin_classes(m, range(m.n))
    sizes, link = classes
    counts = np.where(link, sizes - np.eye(len(sizes), dtype=np.int64), 0)
    degree = counts.sum(axis=1)
    quotient = np.diag(degree) - counts
    roots = Counter()
    for rho, mult in zip((degree + link.diagonal()).tolist(), (sizes - 1).tolist()):
        roots[rho] += mult
    return TwinSplit(tuple(sorted((r, c) for r, c in roots.items() if c)), quotient, classes)


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


def g2_classes(m: Modulus, split: TwinSplit | None = None) -> TwinClasses:
    """The twin classes of G2, the nonzero non-units: those of ``split``, a
    ``twin_split(m)``, less its first and last, the units and {0}.  With no
    split, G2's own rows are checked over ``g2_vertices``, which is built in
    O(|V(G2)|), so n may reach the cap squared; refused above
    ``config.DENSE_LIMIT`` vertices from n - phi(n) - 1 alone."""
    if split is not None:
        sizes, link = split.classes
        return TwinClasses(sizes[1:-1], link[1:-1, 1:-1])
    size = m.n - m.phi - 1
    if size > config.DENSE_LIMIT:
        raise OracleLimitExceeded(f"|V(G2)|={size} exceeds dense limit {config.DENSE_LIMIT}")
    return twin_classes(m, g2_vertices(m))


def count_components(classes: TwinClasses, complement: bool = False) -> int:
    """Connected components of the graph of ``classes``, or with
    ``complement`` of its complement: the same classes, every link negated.
    Classes joined by links, found by squaring the class graph's
    reachability until it is closed, make one component; a class joined to
    no other is |A_d| isolated vertices when it is independent."""
    sizes, link = classes
    if complement:
        link = ~link
    between = link & ~np.eye(len(sizes), dtype=bool)
    reach = between | np.eye(len(sizes), dtype=bool)
    while ((wider := reach @ reach) != reach).any():
        reach = wider
    least = ~np.tril(reach, -1).any(axis=1)  # the least class of each component
    spread = ~between.any(axis=1) & ~link.diagonal()
    return int(np.where(spread, sizes, 1)[least].sum())


def _class_flow(sizes: np.ndarray, between: np.ndarray, s: int, t: int, limit: int) -> int:
    """Max internally vertex-disjoint paths from a vertex of class s to one
    of class t, two classes not joined, truncated at ``limit``: flow from
    s_out to t_in with c_in = 2c, c_out = 2c + 1 and capacity |A_c| between
    them (``limit`` on a link, as good as unbounded).  Each round finds one
    shortest augmenting path by frontier BFS on the residual capacity
    matrix and pushes its bottleneck."""
    k = len(sizes)
    cap = np.zeros((2 * k, 2 * k), dtype=np.int64)
    cap[2 * np.arange(k), 2 * np.arange(k) + 1] = sizes
    u, v = np.nonzero(between)
    cap[2 * u + 1, 2 * v] = limit
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        parent = np.full(2 * k, -1)
        parent[source] = source
        frontier = np.array([source])
        while frontier.size and parent[sink] < 0:
            reach = (cap[frontier] > 0) & (parent < 0)
            new = np.flatnonzero(reach.any(axis=0))
            parent[new] = frontier[reach[:, new].argmax(axis=0)]
            frontier = new
        if parent[sink] < 0:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        tails, heads = path[1:], path[:-1]
        push = min(limit - flow, int(cap[tails, heads].min()))
        cap[tails, heads] -= push
        cap[heads, tails] += push
        flow += push
    return flow


def vertex_cut(classes: TwinClasses) -> int:
    """Vertex connectivity of the graph of ``classes`` by Menger max-flow
    over non-adjacent pairs; |V| - 1 for a complete graph by convention, 0
    for a disconnected one.  A minimal separator is a union of whole twin
    classes, so two classes not joined are cut by ``_class_flow``, and two
    twins of an independent class A_d only by N(A_d), of weight deg_d, no
    less than the least degree.  The pairs are reduced to a vertex v of
    least degree: a minimum separator avoiding v is found on a pair (v,
    non-neighbour), one containing v on two non-adjacent neighbours of v.
    Pairs whose common neighbours already reach the best cut are skipped,
    since the flow between them cannot be smaller."""
    sizes, link = classes
    between = link & ~np.eye(len(sizes), dtype=bool)
    total = int(sizes.sum())
    if total <= 1 or count_components(classes) > 1:
        return 0
    degree = between @ sizes + np.where(link.diagonal(), sizes - 1, 0)
    best = int(degree.min())
    if best == total - 1:
        return best
    d = int(degree.argmin())  # N(v) separates v from the (nonempty) rest
    common = ((between * sizes) @ between.T).tolist()
    for e in np.flatnonzero(~link[d]).tolist():
        if e != d and common[d][e] < best:
            best = min(best, _class_flow(sizes, between, d, e, best))
    near = sorted(np.flatnonzero(between[d]).tolist(), key=degree.__getitem__)
    for i, c in enumerate(near):
        for e in near[i + 1 :]:
            if not link[c, e] and common[c][e] < best:
                best = min(best, _class_flow(sizes, between, c, e, best))
    return best

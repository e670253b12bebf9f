"""Brute-force ground truth on the full graph.

Nothing in here knows about the quotient decomposition.  Every dense oracle
starts from one boolean adjacency matrix computed from element gcds
(``comax_graph.adjacency``): spectra come from a dense symmetric eigensolver
or from the exact characteristic polynomial of the full Laplacian, component
counts (of G2 and of its complement) come from a frontier traversal of that
matrix, and the minimum vertex cut counts vertex-disjoint paths by shortest
augmenting paths on a vertex-split residual matrix read off it, capped at
``config.VERTEX_CUT_LIMIT`` vertices.  Every oracle size cap is checked here.

Both spectral oracles split the Laplacian by the involutive units
E = {u : u*u = 1 mod n}, which keep every gcd(x, n) under x -> u x; that
they are automorphisms is checked, not assumed (``involution_split``).
The split has one symmetry block per character of E (Cvetkovic,
Rowlinson & Simic, *An Introduction to the Theory of Graph Spectra*,
2010), on the E-orbits, of at most |E| vertices each.  The whole unit
group is not used: its orbits are the divisor classes, up to 480 vertices
at 2310, and would rebuild the quotient this module exists to check.

Every non-trivial character's block is diagonal: E keeps gcd(x, n), so
off the diagonal the character sums cancel.  That is checked, not
assumed: one array test over the sums finds the diagonal blocks, whose
eigenvalues the split returns as exact integers with no block built.
Each other block is returned as its integer sums, and each oracle builds
the one form it solves: at 2310 one float64 block of 288 rows, and for
n <= 64 at most one int64 block per n.  The exact oracle returns its
charpoly factored (``FactoredCharPoly``), and ``verify`` compares it with
the spectrum factor by factor, never expanding a degree-n product.

Disagreement with the quotient pipeline means a bug, so these paths share
no spectral shortcut with it; the pipeline never uses E.  The one
exception is the dense exact charpoly kernel (``char_polys``), which
the pipeline reaches only as the fallback of its structured kernel, for a
residue row that kernel leaves incomplete.  The dense kernel skips the
Hessenberg columns that are already closed and multiplies the charpolys of
the diagonal blocks they leave.  That is generic Hessenberg deflation,
which any matrix gets and which reads nothing of the graph.  It is not a
spectral shortcut.  The tests check the dense kernel independently,
against sympy and against a fraction-free determinant of their own at
random points.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from . import config
from .comax_graph import adjacency, g2_vertices
from .polynomial import IntPoly, char_polys
from .ring_divisors import Modulus


class OracleLimitExceeded(Exception):
    """Raised when an input is beyond the configured brute-force size caps."""


def numeric_spectrum(laplacian: np.ndarray) -> tuple[float, ...]:
    """All eigenvalues of a dense symmetric matrix, such as a Laplacian,
    ascending, from a backward-stable symmetric eigensolver (orthogonal
    similarity).

    A float64 matrix, such as a block of ``involution_split``, is used as it
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
        if (mat[i : i + 256, i:] != mat[i:, i : i + 256].T).any():
            raise ValueError("matrix must be symmetric")
    return tuple(np.linalg.eigvalsh(mat).tolist())


def _walsh_hadamard(table: np.ndarray) -> np.ndarray:
    """sum_g (-1)**popcount(c & g) table[g] for every c, along the first
    axis, whose length is a power of 2: one butterfly pass per bit, in
    place on the contiguous ``table``, whose dtype must hold +-len(table)."""
    half = 1
    while half < len(table):
        pairs = table.reshape(-1, 2, half * table[0].size)
        low, high = pairs[:, 0], pairs[:, 1]
        low += high
        high *= -2
        high += low  # (low + high) - 2 high
        half *= 2
    return table


class SolvedBlock(NamedTuple):
    """A block of ``involution_split`` that is not diagonal, kept as its
    integer sums; each oracle builds from them the one form it solves."""

    sums: np.ndarray  # sums[O, O'] = sum_g chi(g) A[r_O, g r_O']
    degree: np.ndarray  # of each orbit's representative
    stab: np.ndarray  # |S_O| = |E| / |O|

    def exact(self) -> np.ndarray:
        """The int64 similarity form H[O, O'] |O'| / |E|."""
        block = np.negative(self.sums, dtype=np.int64)
        block //= self.stab
        block.flat[:: len(block) + 1] += self.degree
        return block

    def symmetric(self) -> np.ndarray:
        """The float64 orthonormal form H[O, O'] sqrt(|O| |O'|) / |E|, scaled
        by rows and then by columns: each factor is a power of 2, times
        sqrt(2) or not, so the block is exactly symmetric."""
        root = np.sqrt(1 / self.stab)
        block = np.negative(self.sums, dtype=np.float64)
        block *= root
        block *= root[:, None]
        block.flat[:: len(block) + 1] += self.degree
        return block


class InvolutionSplit(NamedTuple):
    roots: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity), ascending
    blocks: tuple[SolvedBlock, ...]  # in character order


def involution_split(m: Modulus) -> InvolutionSplit:
    """The Laplacian of the comaximal graph in one block per character of
    the involutive units E = {u : u*u = 1 mod n}: the eigenvalues of every
    diagonal block, read off, and the blocks that must be solved.

    E acts by x -> u x, which keeps every gcd(x, n).  The boolean adjacency
    A of all n vertices is built once and checked to be E-invariant
    exactly, in 256-row panels with no n x n temporary; a mismatch raises
    ValueError.  Each x is g_x r_x for the least element r_x of its orbit,
    and A is E-invariant exactly when A[x, y] = A[r_x, g_x y] for every x
    and each representative's row is fixed by its stabilizer, so the check
    reads each row about once.

    E is an elementary abelian 2-group, listed so that element b is the
    product of the generators at the set bits of b; character c is then
    chi_c(b) = (-1)**popcount(c & b).  The block of chi acts on the orbits
    O whose stabilizer S_O lies in its kernel, ascending by representative,
    in the basis sum_g chi(g) e_(g r_O), with the integer symmetric
    H[O, O'] = sum_g chi(g) L[r_O, g r_O'] over all of E.  Every block
    holds the orbit of 1, so there are |E| of them, and their sizes sum to
    n.  The sums of A over the k orbits come from one Walsh-Hadamard
    transform of an |E| x k x k table of the smallest integer type that
    holds +-|E|, built after the adjacency is dropped.

    One array test over that table finds the diagonal blocks: those where
    no sum between two distinct orbits is nonzero.  Their eigenvalues,
    H[O, O] / |S_O| = degree - sum_g chi(g) A[r_O, g r_O] / |S_O|, exact
    integers, are counted in ``roots`` with no block built; every other
    block is returned as a ``SolvedBlock`` holding a copy of its sums.
    Refuses n above ``config.DENSE_LIMIT``.
    """
    n = m.n
    if n > config.DENSE_LIMIT:
        raise OracleLimitExceeded(f"n exceeds dense limit {config.DENSE_LIMIT}")
    adj = adjacency(m, range(n))
    units = [1]
    for u in np.flatnonzero(np.arange(n) ** 2 % n == 1).tolist():
        if u not in units:
            units += [v * u % n for v in units]
    act = np.multiply.outer(units, np.arange(n)) % n  # act[g, x] = g x mod n
    rep = act.min(axis=0)
    to_rep = act.argmin(axis=0)  # g_x, an involution: g_x x = r_x
    # checks[g, x]: row x is compared under g, which is g_x, or for a
    # representative any element of its stabilizer
    checks = (to_rep == np.arange(len(units))[:, None]) | ((act == rep) & (to_rep == 0))
    for g in range(1, len(units)):
        rows = checks[g].nonzero()[0]
        for i in range(0, len(rows), 256):
            panel = rows[i : i + 256]
            if (adj[panel] != adj[rep[panel]][:, act[g]]).any():
                raise ValueError(
                    "an involutive unit is not an automorphism of the adjacency"
                )
    reps = (to_rep == 0).nonzero()[0]
    stab = checks[:, reps]  # stab[g, O]: g fixes r_O
    rep_rows = adj[reps]
    degree = rep_rows.sum(axis=1)
    del adj
    # sums[c, O', O] = sum_g chi_c(g) A[r_O, g r_O'], and row k sums the
    # stabilizer: |S_O| where chi_c is trivial on S_O, 0 elsewhere
    table = [rep_rows.T[act[:, reps]], stab[:, None]]
    sums = _walsh_hadamard(
        np.concatenate(table, axis=1, dtype=np.min_scalar_type(-len(units) - 1))
    )
    del rep_rows, table
    stab_size = stab.sum(axis=0)
    member = sums[:, -1] != 0  # member[c, O]: O is in the block of chi_c
    # diagonal: no sum links two orbits (E-invariance zeroes those off the block)
    solved = ((sums[:, :-1] != 0) & ~np.eye(len(reps), dtype=bool)).any(axis=(1, 2))
    values = degree - sums[:, :-1].diagonal(axis1=1, axis2=2) // stab_size
    roots = Counter(values[member & ~solved[:, None]].tolist())
    blocks = []
    for c in solved.nonzero()[0]:
        idx = member[c].nonzero()[0]
        blocks.append(SolvedBlock(sums[c, idx][:, idx].T, degree[idx], stab_size[idx]))
    return InvolutionSplit(tuple(sorted(roots.items())), tuple(blocks))


def dense_spectrum(m: Modulus) -> tuple[float, ...]:
    """All n eigenvalues of the Laplacian, ascending: the ``roots`` of
    ``involution_split`` and the ``numeric_spectrum`` of the ``symmetric``
    form of each of its blocks, merged; one float block is alive at a time."""
    split = involution_split(m)
    values = [float(r) for r, mult in split.roots for _ in range(mult)]
    for block in split.blocks:
        values += numeric_spectrum(block.symmetric())
    return tuple(sorted(values))


class FactoredCharPoly(NamedTuple):
    """det(xI - L) = prod (x - r)**mult over ``roots`` times prod ``factors``."""

    roots: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity), ascending
    factors: tuple[IntPoly, ...]  # monic, one per block solved


def exact_char_poly_full(m: Modulus) -> FactoredCharPoly:
    """Exact characteristic polynomial of the full n x n Laplacian, factored
    along ``involution_split``: its ``roots``, and the exact charpoly of
    the ``exact`` form of each of its blocks.

    The exact charpoly kernel runs on the dense blocks rather than on the
    quotient, capped at ``config.EXACT_CHARPOLY_LIMIT`` vertices; the cap
    keeps the Hadamard bound, and with it the number of primes, small.
    """
    limit = config.EXACT_CHARPOLY_LIMIT
    if m.n > limit:
        raise OracleLimitExceeded(f"n exceeds exact limit {limit}")
    roots, blocks = involution_split(m)
    return FactoredCharPoly(roots, tuple(char_polys([b.exact()])[0] for b in blocks))


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

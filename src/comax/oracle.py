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
Symmetry blocks (Cvetkovic, Rowlinson & Simic, *An Introduction to the
Theory of Graph Spectra*, 2010), one per character of E, replace the one
n x n Laplacian: at 2310, 16 blocks of at most 288 rows, where negation
alone gives two of about 1155.  The whole unit group is not used: its
orbits are the divisor classes, up to 480 vertices at 2310, and would
rebuild the quotient this module exists to check; an E-orbit holds at
most |E| vertices.

A block whose entries off the diagonal are all zero has its diagonal as
its eigenvalues, exactly, and both oracles take them as they are: the
dense one with no eigensolve, the exact one as integer roots with no
charpoly.  Every block of a non-trivial character is diagonal: E keeps
gcd(x, n), so off the diagonal A[r_O, g r_O'] is the same for every g and
the character sums cancel.  That is tested block by block, not assumed,
so a block that is not diagonal is still solved.  At 2310 one block of
288 rows reaches the eigensolver, and for n <= 64 at most one matrix
reaches the charpoly kernel: ``dense_spectrum(2310)`` takes 23-25 ms
in process on a 2-CPU Xeon VM, against 32-36 ms for 16 eigensolves.  The
exact oracle returns its charpoly factored (``FactoredCharPoly``), and
``verify`` compares it with the spectrum factor by factor, never
expanding a degree-n product.

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
from typing import Iterator, NamedTuple

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


def involution_split(m: Modulus, symmetric: bool = True) -> Iterator[np.ndarray]:
    """The blocks of the Laplacian of the comaximal graph under the
    involutive units E = {u : u*u = 1 mod n}, one per character of E and
    one at a time, the trivial character's first.

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
    in the basis sum_g chi(g) e_(g r_O).  With the integer symmetric
    H[O, O'] = sum_g chi(g) L[r_O, g r_O'] over all of E, the orthonormal
    form (``symmetric``) is H[O, O'] sqrt(|O| |O'|) / |E|, float64 and
    exactly symmetric, and the similar integer form (``symmetric=False``)
    H[O, O'] |O'| / |E|, int64.  Every block holds the orbit of 1, so there
    are |E| of them, and their sizes sum to n.  The character sums of A
    over the k orbits come from one Walsh-Hadamard transform of an
    |E| x k x k table of the smallest integer type that holds +-|E|, and
    the adjacency is dropped before the first block is built.  Refuses n
    above ``config.DENSE_LIMIT``.
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
    # sqrt(|O| |O'|) / |E| as a row and then a column scaling: each factor
    # is a power of 2, times sqrt(2) or not, so the block stays exactly
    # symmetric, and no second block-sized array is made
    root = np.sqrt(len(units) // stab_size / len(units))
    for c in range(len(units)):
        idx = sums[c, -1].nonzero()[0]
        block = np.negative(
            sums[c, idx][:, idx].T, dtype=np.float64 if symmetric else np.int64
        )
        if symmetric:
            block *= root[idx]
            block *= root[idx, None]
        else:
            block //= stab_size[idx]
        block.flat[:: len(idx) + 1] += degree[idx]
        yield block
        del block  # before the next one is built


def _read_off(block: np.ndarray) -> list | None:
    """The diagonal of ``block``, its eigenvalues, when every entry off the
    diagonal is zero; else None."""
    diagonal = block.diagonal()
    if np.count_nonzero(block) != np.count_nonzero(diagonal):
        return None
    return diagonal.tolist()


def dense_spectrum(m: Modulus) -> tuple[float, ...]:
    """All n eigenvalues of the Laplacian, ascending: each block of
    ``involution_split`` read off where it is diagonal, else its
    ``numeric_spectrum``, merged."""
    values: list[float] = []
    for block in involution_split(m):
        diagonal = _read_off(block)
        values += numeric_spectrum(block) if diagonal is None else diagonal
    return tuple(sorted(values))


class FactoredCharPoly(NamedTuple):
    """det(xI - L) = prod (x - r)**mult over ``roots`` times prod ``factors``."""

    roots: tuple[tuple[int, int], ...]  # (eigenvalue, multiplicity), ascending
    factors: tuple[IntPoly, ...]  # monic, one per block not read off


def exact_char_poly_full(m: Modulus) -> FactoredCharPoly:
    """Exact characteristic polynomial of the full n x n Laplacian, factored
    along the int64 forms of the ``involution_split`` blocks: the roots of
    those read off their diagonal, and the exact charpolys of the others,
    one ``char_polys`` call per block size.

    The exact charpoly kernel runs on the dense blocks rather than on the
    quotient, capped at ``config.EXACT_CHARPOLY_LIMIT`` vertices; the cap
    keeps the Hadamard bound, and with it the number of primes, small.
    """
    limit = config.EXACT_CHARPOLY_LIMIT
    if m.n > limit:
        raise OracleLimitExceeded(f"n exceeds exact limit {limit}")
    roots: Counter[int] = Counter()
    by_size: dict[int, list[np.ndarray]] = {}
    for block in involution_split(m, symmetric=False):
        diagonal = _read_off(block)
        if diagonal is None:
            by_size.setdefault(len(block), []).append(block)
        else:
            roots.update(diagonal)
    factors = (poly for blocks in by_size.values() for poly in char_polys(blocks))
    return FactoredCharPoly(tuple(sorted(roots.items())), tuple(factors))


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

"""The comaximal graph of Z_n: adjacency, edges, classes.

Vertices are the ring elements 0..n-1.  Two distinct vertices x, y are
adjacent exactly when the ideals they generate sum to the whole ring, which
for Z_n reduces to gcd(gcd(x, n), gcd(y, n)) = 1 (with gcd(0, n) = n).

The graph is never materialized for spectral work: the spectrum comes from
the prime-support quotient in ``spectra``.  The divisor classes
A_d = {x : gcd(x, n) = d} appear only in the ``graph n classes`` summary.
One edge rule serves every graph consumer: a coprimality table over the
distinct gcd(x, n).  ``AdjacencyRows`` builds boolean adjacency rows from it
on demand, so the brute-force oracles read the graph a panel of rows at a
time with no n x n array, and check its divisor classes against every row.
The edge exports read the table's upper triangle one row at a time, so they
stream in O(n) memory.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .ring_divisors import Modulus


def _gcd_table(m: Modulus, verts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The one edge rule: the coprimality table over the distinct g = gcd(x, n)
    of ``verts``, and each vertex's index into it."""
    g = np.gcd(np.asarray(verts, dtype=np.int64), m.n)
    labels, index = np.unique(g, return_inverse=True)
    return np.gcd.outer(labels, labels) == 1, index


class AdjacencyRows:
    """The boolean adjacency of the subgraph induced on ``verts``, row by
    row: ``rows[pos]`` builds the rows at positions ``pos`` (an int array
    or a slice) as one gather from the gcd table's columns, with a False
    diagonal, and ``len(rows)`` is the vertex count.  No n x n array is made
    unless every row is asked for."""

    def __init__(self, m: Modulus, verts: Sequence[int]):
        table, self._index = _gcd_table(m, verts)
        # [i, j]: the i-th distinct gcd is coprime to that of vertex j
        self._columns = table[:, self._index]

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, pos) -> np.ndarray:
        pos = np.arange(*pos.indices(len(self))) if isinstance(pos, slice) else pos
        # take: several times faster than fancy indexing for boolean rows
        rows = self._columns.take(self._index[pos], axis=0)
        rows[np.arange(len(pos)), pos] = False
        return rows


def _edges_among(m: Modulus, verts: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of the subgraph induced on ascending ``verts``,
    lexicographic order: the gcd table's upper triangle, one row at a time."""
    table, index = _gcd_table(m, verts)
    for i, u in enumerate(verts):
        for j in np.flatnonzero(table[index[i], index[i + 1 :]]).tolist():
            yield (u, verts[i + 1 + j])


def full_edges(m: Modulus) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of the comaximal graph, lexicographic order."""
    yield from _edges_among(m, range(m.n))


def g2_vertices(m: Modulus) -> list[int]:
    """Vertices of G2: the nonzero non-units of Z_n, ascending.  Built from
    the nonzero multiples of each prime of n, so it costs O(|V(G2)|), not
    O(n)."""
    multiples = [np.arange(p, m.n, p) for p, _ in m.factorization]
    return np.unique(np.concatenate(multiples)).tolist()


def g2_edges(m: Modulus) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of G2, lexicographic order."""
    yield from _edges_among(m, g2_vertices(m))


def class_summary(m: Modulus) -> list[dict]:
    """JSON-ready summary of the divisor classes A_d = {x : gcd(x, n) = d},
    one row per divisor d of n, ascending, with |A_d| = phi(n / d).

    ``neighbors`` lists the divisors e whose whole class is adjacent to the
    class of d (all-or-nothing between classes).  The unit class lists itself
    when it has at least two members, since units form a clique.
    """
    rows = [(1, 1)]  # (d, phi(n / d)), one prime power of n at a time
    for p, a in m.factorization:
        rows = [
            (d * p**k, size * (p ** (a - k - 1) * (p - 1) if k < a else 1))
            for d, size in rows
            for k in range(a + 1)
        ]
    rows.sort()
    out = []
    for d, size in rows:
        neighbors = [
            e for e, _ in rows if math.gcd(d, e) == 1 and (e != d or size >= 2)
        ]
        out.append({"divisor": d, "size": size, "neighbors": neighbors})
    return out

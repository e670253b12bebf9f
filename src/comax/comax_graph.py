"""The comaximal graph of Z_n: adjacency, divisor classes, degrees, dense export.

Vertices are the ring elements 0..n-1.  Two distinct vertices x, y are
adjacent exactly when the ideals they generate sum to the whole ring, which
for Z_n reduces to gcd(gcd(x, n), gcd(y, n)) = 1 (with gcd(0, n) = n).

The graph is never materialized for spectral work; adjacency comes from
gcds, and the divisor classes A_d = {x : gcd(x, n) = d} carry everything the
quotient method needs.  The dense Laplacian exists only to feed the
brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from . import config
from .ring_divisors import Modulus, divisors

ClassKind = Literal["unit", "proper", "zero"]


@dataclass(frozen=True)
class DivisorClass:
    """One cell A_d of the divisor-class partition of Z_n."""

    divisor: int
    size: int
    kind: ClassKind


def _divisor_class(m: Modulus, d: int) -> DivisorClass:
    kind: ClassKind = "unit" if d == 1 else "zero" if d == m.n else "proper"
    return DivisorClass(divisor=d, size=m.class_size(d), kind=kind)


def classes(m: Modulus) -> list[DivisorClass]:
    """All divisor classes of Z_n, one per divisor of n (unit d=1 ... zero d=n)."""
    return [_divisor_class(m, d) for d in divisors(m.n)]


@dataclass(frozen=True)
class ComaximalGraph:
    """The graph as a modulus plus its covering divisor-class partition.

    The class sizes always sum to n; the unit class induces a clique and
    every other class a null graph, so this object is the whole structural
    story without ever materializing edges.
    """

    modulus: Modulus
    classes: tuple[DivisorClass, ...]

    @classmethod
    def of(cls, n: int) -> "ComaximalGraph":
        m = Modulus.of(n)
        return cls(modulus=m, classes=tuple(classes(m)))

    @property
    def vertex_count(self) -> int:
        return self.modulus.n


def _check_label(m: Modulus, x: int) -> None:
    if not 0 <= x < m.n:
        raise ValueError(f"vertex label {x} out of range 0..{m.n - 1}")


def class_of(m: Modulus, x: int) -> DivisorClass:
    """The divisor class containing vertex x (the class of d = gcd(x, n))."""
    _check_label(m, x)
    return _divisor_class(m, math.gcd(x, m.n))


def adjacent(m: Modulus, x: int, y: int) -> bool:
    """Whether x and y are adjacent in the comaximal graph of Z_n.

    Single formula covering all cases: x != y and the divisor classes of x
    and y are coprime.  Units (class 1) are adjacent to everything; 0
    (class n) only to units.
    """
    _check_label(m, x)
    _check_label(m, y)
    if x == y:
        return False
    return math.gcd(math.gcd(x, m.n), math.gcd(y, m.n)) == 1


def degree(m: Modulus, x: int) -> int:
    """Degree of vertex x, computed from class data alone."""
    _check_label(m, x)
    d = math.gcd(x, m.n)
    if d == 1:
        return m.n - 1
    if d == m.n:
        return m.phi
    return m.phi + sum(
        m.class_size(e) for e in m.proper_divisors if math.gcd(d, e) == 1
    )


def dense_laplacian(m: Modulus, limit: int | None = None) -> np.ndarray:
    """Dense integer Laplacian L = D - A of the comaximal graph (oracle input).

    Refuses n above the dense limit (default 4096, COMAX_DENSE_LIMIT override).
    """
    cap = config.dense_limit() if limit is None else limit
    if m.n > cap:
        raise ValueError(f"n={m.n} exceeds dense limit {cap}")
    g = np.gcd(np.arange(m.n, dtype=np.int64), m.n)
    adj = (np.gcd.outer(g, g) == 1).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return np.diag(adj.sum(axis=1)) - adj


def _edges_among(m: Modulus, verts: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of the subgraph induced on ascending ``verts``,
    lexicographic order."""
    gcds = [math.gcd(x, m.n) for x in verts]
    for i, u in enumerate(verts):
        gu = gcds[i]
        for j in range(i + 1, len(verts)):
            if math.gcd(gu, gcds[j]) == 1:
                yield (u, verts[j])


def full_edges(m: Modulus) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of the comaximal graph, lexicographic order."""
    yield from _edges_among(m, range(m.n))


def g2_vertices(m: Modulus) -> list[int]:
    """Vertices of G2: the nonzero non-units of Z_n, ascending."""
    return [x for x in range(1, m.n) if math.gcd(x, m.n) != 1]


def g2_edges(m: Modulus) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v of G2, lexicographic order."""
    yield from _edges_among(m, g2_vertices(m))


def class_summary(m: Modulus) -> list[dict]:
    """JSON-ready summary of the divisor-class structure.

    ``neighbors`` lists the divisors e whose whole class is adjacent to the
    class of d (all-or-nothing between classes).  The unit class lists itself
    when it has at least two members, since units form a clique.
    """
    out = []
    all_divs = divisors(m.n)
    for cls in ComaximalGraph.of(m.n).classes:
        d = cls.divisor
        neighbors = []
        for e in all_divs:
            if e == d:
                if d == 1 and cls.size >= 2:
                    neighbors.append(e)
                continue
            if math.gcd(d, e) == 1:
                neighbors.append(e)
        out.append({"divisor": d, "size": cls.size, "neighbors": neighbors})
    return out

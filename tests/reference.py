"""Scalar references the tests compare the program against.

Each is written from the definition, one pair, vertex or matrix at a time,
and shares no code with the vectorised program paths it checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from comax.polynomial import IntPoly


def adjacent(n: int, x: int, y: int) -> bool:
    """Whether x and y are adjacent in the comaximal graph of Z_n: x != y and
    the divisor classes gcd(x, n) and gcd(y, n) are coprime.  Units (class 1)
    are adjacent to everything; 0 (class n) only to units."""
    return x != y and math.gcd(math.gcd(x, n), math.gcd(y, n)) == 1


def degree(n: int, x: int) -> int:
    """Degree of vertex x in closed form: the y in Z_n divisible by no prime
    of d = gcd(x, n), n * prod_{p | d} (1 - 1/p) of them, less x itself when
    x is a unit.  The primes of d come from trial division."""
    d = math.gcd(x, n)
    count, rest, p = n, d, 2
    while rest > 1:
        if rest % p == 0:
            count = count // p * (p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    return count - 1 if d == 1 else count


def laplacian_rows(n: int, rows: Sequence[int]) -> np.ndarray:
    """Rows ``rows`` of the unsplit Laplacian L = D - A of the comaximal
    graph of Z_n, float64, one row at a time: A[x, y] = 1 when x != y and
    gcd(x, n), gcd(y, n) are coprime, and D[x, x] the row count of A."""
    g = np.gcd(np.arange(n), n)
    lap = np.zeros((len(rows), n))
    for i, x in enumerate(rows):
        row = np.gcd(g[x], g) == 1
        row[x] = False
        lap[i] = np.negative(row, dtype=np.float64)
        lap[i, x] = row.sum()
    return lap


def dense_laplacian(n: int) -> np.ndarray:
    """The whole unsplit Laplacian, ``laplacian_rows`` of every vertex: the
    reference the involution-split oracles are checked against."""
    return laplacian_rows(n, range(n))


def g2_component_counts(n: int) -> tuple[int, int]:
    """Components of G2, the nonzero non-units of Z_n, and of its complement,
    from the two dense boolean adjacency matrices built from gcds."""
    g = np.array([math.gcd(x, n) for x in range(1, n) if math.gcd(x, n) != 1])
    adj = np.gcd.outer(g, g) == 1
    co = ~adj
    np.fill_diagonal(adj, False)
    np.fill_diagonal(co, False)
    return label_components(adj), label_components(co)


def label_components(adj: np.ndarray) -> int:
    """Connected components of a boolean adjacency matrix by least-label
    propagation: every vertex takes the least label among itself and its
    neighbours, 256 rows at a time, until no label moves; each component
    is then left with one label."""
    size = len(adj)
    labels = np.arange(size)
    while True:
        least = labels.copy()
        for i in range(0, size, 256):
            near = np.where(adj[i : i + 256], labels, size).min(axis=1, initial=size)
            np.minimum(least[i : i + 256], near, out=least[i : i + 256])
        if (least == labels).all():
            return len(np.unique(labels))
        labels = least


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Every division below is exact (Bareiss invariant), so the computation
    stays in the integers.  The empty matrix has determinant 1.
    """
    k = len(matrix)
    if k == 0:
        return 1
    a = [list(map(int, row)) for row in matrix]
    if any(len(row) != k for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[i][i]
        row_i = a[i]
        for r in range(i + 1, k):
            row_r = a[r]
            ari = row_r[i]
            for c in range(i + 1, k):
                row_r[c] = (piv * row_r[c] - ari * row_i[c]) // prev
            row_r[i] = 0
        prev = piv
    return sign * a[-1][-1]


def exact_traces(matrix: np.ndarray, count: int) -> list[int]:
    """trace(H^j), j = 1..count, of an integer-typed matrix, in Python ints:
    one exact product of object arrays per power."""
    h = np.asarray(matrix).astype(object)
    power, out = h, []
    for _ in range(count):
        out.append(int(power.trace()))
        power = power.dot(h)
    return out


def block_diagonal(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The int64 matrix with ``blocks`` on its diagonal, in order."""
    size = sum(len(b) for b in blocks)
    out = np.zeros((size, size), dtype=np.int64)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def expanded(factored) -> IntPoly:
    """A factored characteristic polynomial, (root, multiplicity) pairs
    ``roots`` times the polynomials ``factors``, multiplied out one linear
    factor and one polynomial at a time."""
    out = IntPoly.one()
    for r, mult in factored.roots:
        for _ in range(mult):
            out = out * IntPoly((-r, 1))
    for factor in factored.factors:
        out = out * factor
    return out


def involution_blocks(n: int, symmetric: bool = False) -> list[np.ndarray]:
    """The block of the Laplacian for each character chi of the involutive
    units E = {u : u*u = 1 mod n}, over the E-orbits O, ascending by least
    element r_O, whose stabilizer lies in the kernel of chi.  With
    H[O, O'] = sum_g chi(g) L[r_O, g r_O'], the block is the integer
    similarity form H[O, O'] |O'| / |E|, or with ``symmetric`` the float64
    orthonormal form H[O, O'] sqrt(|O| |O'|) / |E|.  H is gathered from the
    ``laplacian_rows`` of the representatives one unit g at a time, with no
    Walsh-Hadamard transform.

    E is listed as the program lists it: each involution u, ascending, that
    is not yet in the group generated so far doubles it, so that element b
    is the product of the generators at the set bits of b, and character c
    is chi_c(b) = (-1)**popcount(c & b)."""
    group = [1]
    for u in range(2, n):
        if u * u % n == 1 and u not in group:
            group += [v * u % n for v in group]
    reps = sorted({min(g * x % n for g in group) for x in range(n)})
    lap = dict(zip(reps, laplacian_rows(n, reps).astype(np.int64)))
    blocks = []
    for c in range(len(group)):
        chi = [(-1) ** bin(c & b).count("1") for b in range(len(group))]
        members = [
            r for r in reps
            if all(chi[b] == 1 for b, g in enumerate(group) if g * r % n == r)
        ]
        sizes = np.array([len({g * r % n for g in group}) for r in members])
        rows = np.array([lap[r] for r in members])
        h = sum(
            chi[b] * rows[:, [g * r % n for r in members]]
            for b, g in enumerate(group)
        )
        if symmetric:
            blocks.append(h * np.sqrt(np.outer(sizes, sizes)) / len(group))
        else:
            blocks.append(h * sizes // len(group))
    return blocks

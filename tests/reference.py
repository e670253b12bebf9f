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


def dense_laplacian(n: int) -> np.ndarray:
    """The unsplit Laplacian L = D - A of the comaximal graph of Z_n, float64,
    one row at a time: A[x, y] = 1 when x != y and gcd(x, n), gcd(y, n) are
    coprime, and D[x, x] the row count of A.  The reference the
    involution-split oracles are checked against."""
    g = np.gcd(np.arange(n), n)
    lap = np.zeros((n, n))
    for x in range(n):
        row = np.gcd(g[x], g) == 1
        row[x] = False
        lap[x] = np.negative(row, dtype=np.float64)
        lap[x, x] = row.sum()
    return lap


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

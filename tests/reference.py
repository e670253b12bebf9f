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
    reference the split oracles are checked against."""
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


def expanded(roots, sums) -> IntPoly:
    """A characteristic polynomial given along a split: (root, multiplicity)
    pairs ``roots`` times the monic polynomial whose power sums are
    ``sums``."""
    return IntPoly.from_roots(roots) * IntPoly.from_power_sums(sums)


def class_blocks(n: int, symmetric: bool = False) -> list[np.ndarray]:
    """The Laplacian L of the comaximal graph of Z_n along its divisor
    classes A_d = {x : gcd(x, n) = d}, d ascending, each with its least
    element r_d, from ``laplacian_rows`` 256 rows at a time: first the
    quotient on the class-constant vectors, then one block for each class of
    two or more vertices, on the vectors e_x - e_r, x in A_d less r = r_d,
    whose column x holds (L (e_x - e_r))[x'] for x' in A_d less r.  The
    quotient is the integer form sum_(y in A_e) L[r_d, y], or with
    ``symmetric`` the float64 orthonormal form
    sum_(x in A_d, y in A_e) L[x, y] / sqrt(|A_d| |A_e|); the class blocks
    are int64, or with ``symmetric`` float64."""
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(math.gcd(x, n), []).append(x)
    members = [classes[d] for d in sorted(classes)]
    indicator = np.zeros((n, len(members)))
    for c, xs in enumerate(members):
        indicator[xs, c] = 1
    dtype = np.float64 if symmetric else np.int64
    quotient = np.zeros((len(members), len(members)))
    blocks = []
    for c, (r, *rest) in enumerate(members):
        block = np.zeros((len(rest), len(rest)))
        for i in range(0, len(rest) + 1, 256):
            xs = members[c][i : i + 256]  # r first, at i = 0
            rows = laplacian_rows(n, xs)
            by_class = rows @ indicator
            quotient[c] += by_class.sum(axis=0) if symmetric else by_class[0] * (i == 0)
            if rest:
                at = slice(max(i - 1, 0), i - 1 + len(xs))
                block[at] = (rows[:, rest] - rows[:, [r]])[1 if i == 0 else 0 :]
        if rest:
            blocks.append(block.astype(dtype))
    if symmetric:
        sizes = np.array([len(xs) for xs in members])
        quotient /= np.sqrt(np.multiply.outer(sizes, sizes))
    return [quotient.astype(dtype), *blocks]

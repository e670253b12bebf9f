"""Exact integer polynomials and the fraction-free linear algebra behind them.

Characteristic polynomials are computed by evaluating det(xI - B) at the
integer points x = 0..w with Bareiss (fraction-free) elimination and
interpolating exactly; integer roots are then split off by exact synthetic
division at caller-supplied candidates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class IntPoly:
    """Immutable polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored constant-term first with a nonzero leading
    coefficient; the zero polynomial is not representable (never needed:
    everything here divides a monic characteristic polynomial).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs or cs == [0]:
            raise ValueError("zero polynomial is not representable")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x_minus(cls, r: int) -> "IntPoly":
        return cls((-r, 1))

    @classmethod
    def linear_power(cls, root: int, mult: int) -> "IntPoly":
        """(x - root)^mult expanded via binomial coefficients."""
        if mult < 0:
            raise ValueError("negative multiplicity")
        return cls(
            (math.comb(mult, k) * (-root) ** (mult - k) for k in range(mult + 1))
        )

    @classmethod
    def from_roots(cls, roots: Iterable[tuple[int, int]]) -> "IntPoly":
        """Monic polynomial with the given (root, multiplicity) pairs."""
        out = cls.one()
        for r, mult in roots:
            out = out * cls.linear_power(r, mult)
        return out

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def shift_argument(self, c: int) -> "IntPoly":
        """The polynomial q(x) = p(x - c); roots move up by c."""
        # Horner in polynomial space: q = (...((a_d)(x-c) + a_{d-1})(x-c) + ...)
        out = [self.coeffs[-1]]
        for a in reversed(self.coeffs[:-1]):
            nxt = [0] * (len(out) + 1)
            for d, v in enumerate(out):
                nxt[d] += -c * v
                nxt[d + 1] += v
            nxt[0] += a
            out = nxt
        return IntPoly(out)

    def divide_linear(self, r: int) -> tuple["IntPoly", int]:
        """Synthetic division by (x - r): returns (quotient, remainder)."""
        if self.degree == 0:
            raise ValueError("cannot divide a constant")
        q: list[int] = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * r + c
            q.append(acc)
        rem = q.pop()
        return IntPoly(reversed(q)), rem

    def __repr__(self) -> str:
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                base = f"{abs(c)}"
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                base = f"{mag}x" if d == 1 else f"{mag}x^{d}"
            terms.append(("-" if c < 0 else "+", base))
        sign0, first = terms[0]
        text = ("-" if sign0 == "-" else "") + first
        for sign, base in terms[1:]:
            text += f" {sign} {base}"
        return text


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


def char_poly_matrix(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """Monic characteristic polynomial det(xI - B) of an integer matrix, exact.

    Evaluates the determinant at x = 0..w via Bareiss and interpolates with
    Newton divided differences over Fractions; the result is asserted to be
    integral and monic.
    """
    w = len(matrix)
    if w == 0:
        return IntPoly.one()
    values = []
    for x in range(w + 1):
        shifted = [
            [(x if i == j else 0) - int(matrix[i][j]) for j in range(w)]
            for i in range(w)
        ]
        values.append(bareiss_det(shifted))
    coef = [Fraction(v) for v in values]
    for j in range(1, w + 1):
        for i in range(w, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j  # nodes 0..w are unit-spaced
    poly = [Fraction(0)] * (w + 1)
    basis = [Fraction(1)]  # running product (x-0)(x-1)...(x-(i-1))
    for i in range(w + 1):
        for d, b in enumerate(basis):
            poly[d] += coef[i] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for d, b in enumerate(basis):
            nxt[d] -= b * i
            nxt[d + 1] += b
        basis = nxt
    if any(f.denominator != 1 for f in poly):
        raise ArithmeticError("interpolated characteristic polynomial not integral")
    out = IntPoly(int(f) for f in poly)
    if not out.is_monic or out.degree != w:
        raise ArithmeticError("characteristic polynomial must be monic of degree w")
    return out


def extract_integer_roots(
    p: IntPoly, candidates: Iterable[int]
) -> tuple[list[tuple[int, int]], IntPoly]:
    """Split a monic integer polynomial into integer roots and a residual.

    Returns (roots, residual) with roots as (value, multiplicity) pairs
    sorted ascending, such that prod (x - r)^mult * residual == p.  Only the
    given candidates are tried, each decided by exact synthetic division, so
    the residual is free of integer roots exactly when the candidates cover
    every integer root of p.
    """
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    roots: list[tuple[int, int]] = []
    rem = p
    for r in sorted(set(candidates)):
        mult = 0
        while rem.degree > 0:
            q, remainder = rem.divide_linear(r)
            if remainder != 0:
                break
            rem = q
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, rem

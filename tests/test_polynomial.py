import random

import pytest

from comax.polynomial import (
    IntPoly,
    bareiss_det,
    char_poly_matrix,
    extract_integer_roots,
)


def test_intpoly_basics():
    p = IntPoly((12, 0, -8, 1))
    assert p.degree == 3
    assert p.coeffs == (12, 0, -8, 1)
    assert p(2) == 12 - 32 + 8
    assert p.is_monic
    assert IntPoly((5, 3, 0, 0)).degree == 1
    with pytest.raises(ValueError):
        IntPoly((0,))
    with pytest.raises(ValueError):
        IntPoly(())


def test_intpoly_mul_and_linear_power():
    x_minus_2 = IntPoly.x_minus(2)
    assert (x_minus_2 * x_minus_2).coeffs == (4, -4, 1)
    assert IntPoly.linear_power(2, 2).coeffs == (4, -4, 1)
    assert IntPoly.linear_power(0, 3).coeffs == (0, 0, 0, 1)
    assert IntPoly.linear_power(5, 0) == IntPoly.one()
    assert IntPoly.from_roots([(0, 2), (2, 1), (6, 1)]).coeffs == (0, 0, 12, -8, 1)


def test_shift_argument():
    # q(x) = p(x - c) moves every root up by c
    p = IntPoly.from_roots([(1, 1), (4, 2)])
    q = p.shift_argument(3)
    assert q(4) == 0 and q(7) == 0
    assert q == IntPoly.from_roots([(4, 1), (7, 2)])
    for x in range(-5, 6):
        assert q(x) == p(x - 3)


def test_divide_linear():
    p = IntPoly.from_roots([(3, 2), (-1, 1)])
    q, rem = p.divide_linear(3)
    assert rem == 0
    assert q == IntPoly.from_roots([(3, 1), (-1, 1)])
    _, rem = p.divide_linear(5)
    assert rem == p(5) != 0


def test_repr_is_readable():
    assert repr(IntPoly((12, 0, -8, 1))) == "x^3 - 8*x^2 + 12"
    assert repr(IntPoly((0, 0, 12, -8, 1))) == "x^4 - 8*x^3 + 12*x^2"
    assert repr(IntPoly.one()) == "1"
    assert repr(IntPoly((0, 1))) == "x"


def test_bareiss_examples():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])


def test_bareiss_random_vs_expansion():
    def det_expansion(m):
        k = len(m)
        if k == 0:
            return 1
        if k == 1:
            return m[0][0]
        total = 0
        for j in range(k):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det_expansion(minor)
        return total

    rng = random.Random(7)
    for _ in range(60):
        k = rng.randrange(0, 6)
        m = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(k)]
        assert bareiss_det(m) == det_expansion(m)


def test_char_poly_examples():
    b12 = [[2, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, 0], [0, 0, 0, 0]]
    assert char_poly_matrix(b12).coeffs == (0, 0, 12, -8, 1)
    assert char_poly_matrix([]) == IntPoly.one()
    assert char_poly_matrix([[5]]).coeffs == (-5, 1)


def test_char_poly_random_vs_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(42)
    for _ in range(25):
        k = rng.randrange(1, 7)
        m = [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(k)]
        ours = char_poly_matrix(m)
        theirs = DomainMatrix.from_list(m, sympy.ZZ).charpoly()
        assert list(ours.coeffs) == [int(c) for c in theirs][::-1]


def test_extract_integer_roots_examples():
    roots, residual = extract_integer_roots(IntPoly((0, 0, 12, -8, 1)), range(-10, 11))
    assert roots == [(0, 2), (2, 1), (6, 1)]
    assert residual == IntPoly.one()

    roots, residual = extract_integer_roots(IntPoly((-2, 0, 1)), range(-3, 4))
    assert roots == []
    assert residual == IntPoly((-2, 0, 1))

    roots, residual = extract_integer_roots(IntPoly((-5, 1)), range(-6, 7))
    assert roots == [(5, 1)]
    assert residual == IntPoly.one()


def test_extract_integer_roots_negative_and_reconstruction():
    p = IntPoly.from_roots([(-3, 2), (1, 1), (7, 1)]) * IntPoly((-2, 0, 1))
    roots, residual = extract_integer_roots(p, range(-10, 11))
    assert roots == [(-3, 2), (1, 1), (7, 1)]
    assert residual == IntPoly((-2, 0, 1))
    assert IntPoly.from_roots(roots) * residual == p


def test_extract_integer_roots_only_tries_candidates():
    p = IntPoly.from_roots([(4, 3), (9, 1)])
    roots, residual = extract_integer_roots(p, range(-10, 11))
    assert roots == [(4, 3), (9, 1)]
    assert residual == IntPoly.one()
    # a root outside the candidates is not found, by contract
    roots, residual = extract_integer_roots(p, range(0, 6))
    assert roots == [(4, 3)]
    assert residual == IntPoly.x_minus(9)


def test_extract_integer_roots_requires_monic():
    with pytest.raises(ValueError):
        extract_integer_roots(IntPoly((1, 2)), range(-2, 3))


def test_extract_integer_roots_random_reconstruction():
    rng = random.Random(99)
    for _ in range(40):
        roots = {}
        for _ in range(rng.randrange(1, 4)):
            roots[rng.randrange(-8, 9)] = rng.randrange(1, 3)
        p = IntPoly.from_roots(sorted(roots.items()))
        if rng.random() < 0.5:
            p = p * IntPoly((1, 1, 1))  # irreducible over the rationals
        found, residual = extract_integer_roots(p, range(-8, 9))
        assert dict(found) == roots
        assert IntPoly.from_roots(found) * residual == p

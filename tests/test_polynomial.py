import math
import random

import numpy as np
import pytest

from comax import polynomial, spectra
from comax.polynomial import (
    CharPolyError,
    IntPoly,
    char_polys,
    char_polys_mod,
    extract_integer_roots,
)
from comax.ring_divisors import Modulus
from comax.spectra import _cells
from reference import bareiss_det, block_diagonal, exact_traces


def char_poly(matrix) -> IntPoly:
    """The characteristic polynomial of one matrix, through ``char_polys``."""
    return char_polys([matrix])[0]


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
    x_minus_2 = IntPoly((-2, 1))
    assert (x_minus_2 * x_minus_2).coeffs == (4, -4, 1)
    assert IntPoly.linear_power(2, 2).coeffs == (4, -4, 1)
    assert IntPoly.linear_power(0, 3).coeffs == (0, 0, 0, 1)
    assert IntPoly.linear_power(5, 0) == IntPoly.one()
    assert IntPoly.from_roots([(0, 2), (2, 1), (6, 1)]).coeffs == (0, 0, 12, -8, 1)


def test_from_power_sums_is_the_charpoly_of_the_traces():
    # Newton's identities over Z on the exact traces of random integer
    # matrices with negative entries give their dense charpoly
    rng = np.random.default_rng(39)
    for w in range(1, 34):
        h = rng.integers(-40, 41, size=(w, w))
        assert IntPoly.from_power_sums(exact_traces(h, w)) == char_poly(h.tolist()), w


def test_from_power_sums_of_nothing_and_of_no_integer_polynomial():
    assert IntPoly.from_power_sums(()) == IntPoly.one()
    # p_1 = 1 gives a_1 = -1, and then 2 a_2 = -(p_2 + a_1 p_1) = 1
    with pytest.raises(ArithmeticError):
        IntPoly.from_power_sums((1, 0))


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


def _sympy_char_poly(matrix):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    return tuple(int(c) for c in DomainMatrix.from_list(matrix, sympy.ZZ).charpoly())[::-1]


def test_char_poly_examples():
    b12 = [[2, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, 0], [0, 0, 0, 0]]
    assert char_poly(b12).coeffs == (0, 0, 12, -8, 1)
    assert char_poly([]) == IntPoly.one()
    assert char_poly([[5]]).coeffs == (-5, 1)
    with pytest.raises(ValueError):
        char_poly([[1, 2], [3]])
    # a float entry is refused, never truncated
    with pytest.raises(ValueError):
        char_poly([[0.5]])
    with pytest.raises(ValueError):
        char_poly([[2.0, -1.0], [-1.0, 2.25]])


def test_char_poly_small_sizes_with_huge_entries():
    big = 2**63 - 1
    for a in (0, 1, -7, big, -big, -big - 1, 2**62 + 5):
        assert char_poly([[a]]).coeffs == (-a, 1)
    for a, b, c, d in (
        (1, 2, 3, 4), (big, -big, 2**62 + 5, -3), (-big, big, big, big), (-big - 1, big, 1, 0)
    ):
        assert char_poly([[a, b], [c, d]]).coeffs == (a * d - b * c, -(a + d), 1)
    # entries beyond int64 and floats are refused, never wrapped or truncated
    for bad in ([[2**63]], [[-(2**63) - 1]], [[2**70]], [[1, 2**63], [-1, 0]], [[2.0]]):
        with pytest.raises(ValueError):
            char_poly(bad)


def test_char_poly_random_vs_sympy():
    rng = random.Random(42)
    for _ in range(25):
        k = rng.randrange(1, 13)
        m = [[rng.randrange(-10**6, 10**6 + 1) for _ in range(k)] for _ in range(k)]
        assert char_poly(m).coeffs == _sympy_char_poly(m)


def test_char_poly_entries_beyond_int64_vs_sympy():
    rng = random.Random(5)
    for k in (3, 5, 8):
        m = [[rng.randrange(-(2**63) + 1, 2**63) for _ in range(k)] for _ in range(k)]
        m[0][0] = 2**63 - 1
        m[k - 1][0] = -(2**63)
        assert char_poly(m).coeffs == _sympy_char_poly(m)
        # one step past the edge: the kernel takes int64 entries only
        for v in (2**63, 2**70):
            with pytest.raises(ValueError):
                char_poly([row[:-1] + [v] for row in m])
        with pytest.raises(ValueError):
            char_poly([[float(v) for v in row] for row in m])


def test_char_poly_matches_bareiss_at_points_on_quotients():
    rng = random.Random(11)
    for n in (2310, 5040, 15120, 30030):
        [b], _ = _quotients([n])
        b = b.tolist()
        p = char_poly(b)
        for x in (rng.randrange(-n, n) for _ in range(3)):
            shifted = [[(x if i == j else 0) - v for j, v in enumerate(row)]
                       for i, row in enumerate(b)]
            assert p(x) == bareiss_det(shifted)


def test_char_poly_without_hessenberg_pivots():
    rng = random.Random(3)
    for w in (3, 6, 9):
        diag = [rng.randrange(-50, 51) for _ in range(w)]
        upper = [[diag[i] if i == j else (rng.randrange(-9, 10) if j > i else 0)
                  for j in range(w)] for i in range(w)]
        lower = [list(col) for col in zip(*upper)]
        expected = IntPoly.from_roots((d, 1) for d in diag)
        assert char_poly(upper) == expected
        assert char_poly(lower) == expected
        # block diagonal: the charpoly is the product of the blocks'
        a = [[rng.randrange(-9, 10) for _ in range(w)] for _ in range(w)]
        c = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)]
        block = [row + [0, 0] for row in a] + [[0] * w + row for row in c]
        assert char_poly(block) == char_poly(a) * char_poly(c)
        # a permutation similarity leaves the charpoly unchanged
        perm = list(range(w))
        rng.shuffle(perm)
        assert char_poly([[upper[i][j] for j in perm] for i in perm]) == expected
        perm = list(range(w + 2))
        rng.shuffle(perm)
        permuted = [[block[i][j] for j in perm] for i in perm]
        assert char_poly(permuted) == char_poly(block)


def test_char_poly_multiple_of_first_prime():
    # every entry vanishes modulo the first prime, so the other primes carry it
    rng = random.Random(8)
    for w in (1, 4, 7):
        p0 = polynomial._word_primes(w, 1)[0]
        a = [[rng.randrange(-5, 6) for _ in range(w)] for _ in range(w)]
        scaled = [[p0 * v for v in row] for row in a]
        base = char_poly(a).coeffs
        assert char_poly(scaled).coeffs == tuple(
            c * p0 ** (w - k) for k, c in enumerate(base)
        )


def _permuted_blocks(rng, sizes, coupled):
    """Random blocks of the given sizes on the diagonal of one matrix, with
    random entries above them when ``coupled`` (block upper triangular) and
    zeros otherwise (block diagonal), its rows and columns shuffled by one
    permutation; and the blocks."""
    blocks = [[[rng.randrange(-9, 10) for _ in range(b)] for _ in range(b)] for b in sizes]
    w = sum(sizes)
    full = [[0] * w for _ in range(w)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            above = [rng.randrange(-9, 10) if coupled else 0 for _ in range(w - at - len(row))]
            full[at + i][at:] = row + above
        at += len(block)
    perm = list(range(w))
    rng.shuffle(perm)
    return [[full[i][j] for j in perm] for i in perm], blocks


def _krylov_dimension(matrix):
    """The rank over Q of e_0, A e_0, ..., A**(w-1) e_0."""
    sympy = pytest.importorskip("sympy")
    a = sympy.Matrix(matrix)
    v = sympy.zeros(len(matrix), 1)
    v[0] = 1
    columns = []
    for _ in range(len(matrix)):
        columns.append(v)
        v = a * v
    return sympy.Matrix.hstack(*columns).rank()


def test_char_polys_stack_with_a_column_closed_in_one_matrix_only():
    # a Krylov space of e_0 of dimension d <= w - 2 closes Hessenberg column
    # d - 1, within the elimination, in the block matrix alone
    rng = random.Random(23)
    for w in (5, 8, 12):
        for coupled in (False, True):
            block, _ = _permuted_blocks(rng, (2, w - 4, 2), coupled)
            dense = [[rng.randrange(-9, 10) for _ in range(w)] for _ in range(w)]
            assert _krylov_dimension(block) <= w - 2
            assert _krylov_dimension(dense) == w
            for stack in ([block, dense], [dense, block]):
                got = char_polys(stack)
                assert got == [char_poly(m) for m in stack]
                assert [p.coeffs for p in got] == [_sympy_char_poly(m) for m in stack]


def test_char_poly_column_closed_modulo_the_first_prime_only():
    # column 0 below the diagonal holds nonzero multiples of p0: closed modulo
    # p0 alone, so the other primes must still eliminate it
    rng = random.Random(29)
    for w in (3, 6, 10):
        p0 = polynomial._word_primes(w, 1)[0]
        m = [[rng.randrange(-9, 10) for _ in range(w)] for _ in range(w)]
        for i in range(1, w):
            m[i][0] = p0 * rng.choice((-2, -1, 1, 3))
        assert len(polynomial._word_primes(w, polynomial._hadamard_bound(np.array([m])))) > 1
        assert char_poly(m).coeffs == _sympy_char_poly(m)


def test_char_polys_with_every_column_closed():
    # an upper-triangular matrix is zero below the diagonal in every column,
    # so no elimination step has a pivot: its charpoly is read off the
    # diagonal, alone and stacked with a matrix that pivots everywhere
    rng = random.Random(37)
    for w in range(1, 13):
        upper = [[rng.randrange(-9, 10) if j >= i else 0 for j in range(w)] for i in range(w)]
        dense = [[rng.randrange(-9, 10) for _ in range(w)] for _ in range(w)]
        expected = IntPoly.from_roots((upper[i][i], 1) for i in range(w))
        assert char_polys([upper]) == [expected]
        for stack, at in (([upper, dense], 0), ([dense, upper], 1)):
            got = char_polys(stack)
            assert got[at] == expected
            assert got[1 - at].coeffs == _sympy_char_poly(dense)


def test_dense_residue_row_of_the_core_of_11161543892730():
    # the structured kernel leaves this core's row at its first prime
    # incomplete; modulo that prime the core is upper triangular, so the
    # dense kernel's residues are the product of x - b_ii mod p
    p = 268435399
    stack = spectra._size_groups([Modulus.of(11161543892730)])[0][3]
    w = stack.shape[1]
    assert polynomial._word_primes(w + 1, 1)[0] == p
    reduced = stack[0] % p
    assert np.array_equal(reduced, np.triu(reduced))
    expected = IntPoly.from_roots((int(d), 1) for d in stack[0].diagonal())
    got = polynomial._residues(stack, [p], np.arange(1))
    assert got[0].tolist() == [c % p for c in expected.coeffs]


def test_char_poly_of_permuted_blocks_is_the_product_of_the_blocks():
    rng = random.Random(31)
    for sizes in ((1, 3, 4), (2, 2, 2, 5), (5, 1, 1, 6), (3, 3, 3, 3, 3)):
        for coupled in (False, True):
            matrix, blocks = _permuted_blocks(rng, sizes, coupled)
            product = IntPoly.one()
            for block in blocks:
                product = product * char_poly(block)
            assert char_poly(matrix) == product
            assert product.coeffs == _sympy_char_poly(matrix)


def test_char_poly_scalar_matrix_near_the_bound():
    # (x - c)^w: the constant term c^w sits just below the bound 2 * (2 + |c|)^w
    for c in (2**40 - 3, -(2**40) + 5, 10**18, 2**63 - 1):
        for w in (1, 5, 20):
            m = [[c if i == j else 0 for j in range(w)] for i in range(w)]
            assert char_poly(m) == IntPoly.linear_power(c, w)
    # |c| + 2 just below the first prime p0: one prime would hold |c| but not its sign
    p0 = polynomial._word_primes(1, 1)[0]
    for c in (p0 - 3, 3 - p0):
        assert char_poly([[c]]).coeffs == (-c, 1)


def test_word_primes_keep_int64_products_exact():
    for w in (1, 2, 3, 64, 78, 1000, 10**6):
        primes = polynomial._word_primes(w, 2**100)
        # the fewest primes whose product exceeds the bound
        assert math.prod(primes[:-1]) <= 2**100 < math.prod(primes)
        assert primes == sorted(set(primes), reverse=True)
        for p in primes:
            assert w * (p - 1) ** 2 < 2**63
            assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def test_char_poly_checks_the_trace(monkeypatch):
    kernel = polynomial._char_poly_mod

    def off_by_one_trace(h, mods):
        out = kernel(h, mods)
        out[:, -2] = (out[:, -2] + 1) % mods
        return out

    monkeypatch.setattr(polynomial, "_char_poly_mod", off_by_one_trace)
    with pytest.raises(ArithmeticError):
        char_poly([[1, 2], [3, 4]])


def _batches():
    """One batch per size, each mixing small entries (one prime) with entries
    near 2**62 (many primes), so matrices with very different Hadamard bounds
    share one list of primes; sizes 2 and 30 add cores of G2 quotients."""
    rng = random.Random(8)
    batches = {0: [[], []]}
    for k in (1, 2, 3, 5, 9, 30):
        batches[k] = [
            [[rng.randrange(-top, top + 1) for _ in range(k)] for _ in range(k)]
            for top in (9, 2**62, 9, 2**62 - 1)
        ]
    batches[3].append([[2**62 + 3 * i - j for j in range(3)] for i in range(3)])
    for n, k in ((12, 2), (2310, 30), (2730, 30)):
        [b], _ = _quotients([n])
        assert len(b) == k
        batches[k].append(b.tolist())
    return batches


def test_char_polys_match_one_matrix_at_a_time():
    batches = _batches()
    assert sorted(batches) == [0, 1, 2, 3, 5, 9, 30]
    for k, batch in batches.items():
        assert char_polys(batch) == [char_poly(m) for m in batch], k
        assert char_polys(batch[::-1]) == char_polys(batch)[::-1], k
    assert char_polys([]) == []
    with pytest.raises(ValueError):
        char_polys([[[1]], [[1, 2], [3, 4]]])
    with pytest.raises(ValueError):
        char_polys([[[1]], [[1, 2], [3]]])


@pytest.mark.parametrize("budget", [polynomial._BATCH_CELLS, 1 << 6])
def test_char_polys_mod_are_the_char_polys_modulo_their_prime(monkeypatch, budget):
    # a budget of 64 cells takes one matrix per slice from w = 5 on
    monkeypatch.setattr(polynomial, "_BATCH_CELLS", budget)
    for k, batch in _batches().items():
        if not k:
            continue
        stack = np.array(batch, dtype=np.int64)
        q, residues = char_polys_mod(stack)
        assert q == polynomial._trace_prime(k), k
        assert residues.shape == (len(batch), k + 1), k
        want = [[c % q for c in p.coeffs] for p in char_polys(batch)]
        assert residues.tolist() == want, k
        traces = [[sum(row[i] for i, row in enumerate(m)) % q for m in batch]]
        for m in {2, max(2, math.isqrt(k + 2))}:
            sums = polynomial._power_sums((stack % q).astype(np.float64), q, m)
            assert sums.shape == (len(batch), k + 2), k
            assert sums[:, 0].tolist() == [k % q] * len(batch), k
            assert sums[:, 1:2].T.tolist() == traces, k
            assert not ((residues * sums[:, 1:]).sum(axis=1) % q).any(), k


@pytest.mark.parametrize("w", [1, 2, 5, 14, 33])
def test_power_sums_take_one_prime_per_matrix(w):
    # each matrix of the stack modulo its own prime: every s_t, t = 0..w + 1,
    # is its exact trace modulo that prime
    rng = np.random.default_rng(w)
    primes = polynomial._word_primes(w, 2**100, 2**53)
    stack = rng.integers(-50, 51, size=(len(primes), w, w))
    q = np.array(primes, dtype=np.int64)
    want = [[t % p for t in [w, *exact_traces(b, w + 1)]] for b, p in zip(stack, primes)]
    for m in {2, max(2, math.isqrt(w + 2))}:
        sums = polynomial._power_sums((stack % q[:, None, None]).astype(np.float64), q, m)
        assert sums.tolist() == want, (w, m)


@pytest.mark.parametrize("budget", [polynomial._BATCH_CELLS, 1 << 6])
def test_power_sums_are_exact_past_each_blocks_size(monkeypatch, budget):
    # random integer matrices with negative entries, alone at sizes 1..33
    # and as two or three blocks on one diagonal, so that j runs past each
    # block's size; a budget of 64 cells takes one prime per slice
    monkeypatch.setattr(polynomial, "_BATCH_CELLS", budget)
    real, chosen = polynomial._word_primes, []
    monkeypatch.setattr(
        polynomial, "_word_primes", lambda *args: chosen.append(real(*args)) or chosen[-1]
    )
    rng = np.random.default_rng(38)
    cases = [[rng.integers(-40, 41, size=(w, w))] for w in range(1, 34)]
    cases += [
        [rng.integers(-40, 41, size=(w, w)) for w in sizes]
        for sizes in [(1, 1), (2, 1), (3, 1, 4), (5, 9), (12, 2, 7), (16, 17)]
    ]
    for blocks in cases:
        h = block_diagonal(blocks)
        w = len(h)
        assert polynomial.power_sums(h) == exact_traces(h, w), [len(b) for b in blocks]
        # |trace(H^j)| <= w ||H||_inf^w < M / 2, with every float64 sum exact
        norm = int(np.abs(h).sum(axis=1).max())
        assert math.prod(chosen[-1]) > 2 * w * norm**w
        assert all(w * q * q < 2**53 for q in chosen[-1])


def _is_prime_by_trial(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_trace_prime_keeps_float64_products_exact_and_exceeds_w():
    # the prime of char_polys_mod: the largest with w * q**2 < 2**53, and
    # q > w, so that Newton's identities can divide by 1..w
    for w in (1, 2, 3, 6, 14, 30, 62, 126, 254, 510, 1022, 10**5):
        q = polynomial._trace_prime(w)
        assert w * q**2 < 2**53 and q > w, w
        assert _is_prime_by_trial(q), w
        assert not any(map(_is_prime_by_trial, range(q + 1, math.isqrt((2**53 - 1) // w) + 1))), w
    with pytest.raises(ValueError):
        polynomial._trace_prime(2**18)


@pytest.mark.parametrize("w", [1, 2, 3, 14, 62, 126])
def test_char_polys_mod_with_every_entry_at_the_top_of_the_field(w):
    # every entry q - 1 makes every partial sum of every product as large as
    # it can be; B = -J mod q has the charpoly x**(w - 1) (x + w)
    q = polynomial._trace_prime(w)
    rng = np.random.default_rng(w)
    stack = np.concatenate([
        np.full((1, w, w), q - 1, dtype=np.int64),
        rng.integers(q - 9, q, size=(2, w, w)),
        rng.integers(0, q, size=(2, w, w)),
    ])
    got, residues = char_polys_mod(stack)
    assert got == q
    assert residues[0].tolist() == [0] * (w - 1) + [w % q, 1]
    assert residues.tolist() == polynomial._residues(stack, [q], np.arange(len(stack))).tolist()
    sums = polynomial._power_sums((stack % q).astype(np.float64), q, max(2, math.isqrt(w + 2)))
    assert not ((residues * sums[:, 1:]).sum(axis=1) % q).any()


def test_char_polys_checks_the_trace_of_each_matrix(monkeypatch):
    kernel = polynomial._char_poly_mod

    def off_by_one_trace_of_third(h, mods):
        out = kernel(h, mods)
        c = len(mods) // 3  # one slice: c residues of each matrix, in order
        out[2 * c :, -2] = (out[2 * c :, -2] + 1) % mods[2 * c :]
        return out

    monkeypatch.setattr(polynomial, "_char_poly_mod", off_by_one_trace_of_third)
    batch = [[[1, 2], [3, 4]], [[1, 2], [0, 1]], [[5, 6], [7, 8]]]
    with pytest.raises(CharPolyError) as caught:
        char_polys(batch)
    assert caught.value.index == 2
    assert isinstance(caught.value, ArithmeticError)
    assert "matrix 2" in str(caught.value)


# the first 20 squarefree and the first 10 other n with six distinct primes
OMEGA_6_SQUAREFREE = (
    30030, 39270, 43890, 46410, 51870, 53130, 62790, 66990, 67830, 71610,
    72930, 79170, 81510, 82110, 84630, 85470, 91770, 94710, 98670, 99330,
)
OMEGA_6_OTHER = (60060, 78540, 87780, 90090, 92820, 103740, 106260, 117810, 120120, 125580)


def _quotients(ns):
    """The int64 stack of the cores of B that the pipeline builds for ``ns``
    (``_size_groups``, one size), with their cell supports."""
    [(_, _, cells, stack, _, _)] = spectra._size_groups([Modulus.of(n) for n in ns])
    return stack, [[s for _, s, _, _ in row[: stack.shape[1]]] for row in cells]


def test_structured_char_polys_equal_char_polys_at_six_primes():
    # rad(n)'s cell of a non-squarefree n is no row of its core
    for ns, sizes in ((OMEGA_6_SQUAREFREE, (62,)), (OMEGA_6_OTHER, (62,))):
        moduli = [Modulus.of(n) for n in ns]
        assert all(m.omega == 6 for m in moduli)
        assert {m.is_squarefree for m in moduli} == {ns == OMEGA_6_SQUAREFREE}
        stack, supports = _quotients(ns)
        assert stack.shape[1:] == sizes * 2
        assert char_polys(stack, supports) == char_polys(stack)


@pytest.mark.parametrize("n", [510510, 9699690, 223092870])
def test_structured_residues_equal_the_dense_kernel_modulo_one_prime(monkeypatch, n):
    # omega = 7, 8, 9: one prime of the dense kernel checks the structured
    # one, which sends it no row
    stack, supports = _quotients([n])
    q = polynomial._word_primes(stack.shape[1] + 1, 1)[0]
    want = polynomial._residues(stack, [q], np.arange(len(stack)))
    dense = []
    kernel = polynomial._residues

    def recording(stack, primes, rows):
        dense.extend(rows.tolist())
        return kernel(stack, primes, rows)

    monkeypatch.setattr(polynomial, "_residues", recording)
    got = polynomial._structured_residues(stack, supports, [q])
    assert not dense
    assert got.tolist() == want.tolist()


def test_char_polys_mod_with_supports_are_the_char_polys_modulo_their_prime():
    # every core of three cells or more in 3..5000 (omega = 3..5), stacked
    # as the pipeline stacks them, and the cores of omega = 6, 7 and 8
    groups = spectra._size_groups([Modulus.of(n) for n in range(3, 5001)])
    stacks = [(b, spectra._supports(cells, b.shape[1])) for _, _, cells, b, _, _ in groups]
    stacks = [(b, supports) for b, supports in stacks if b.shape[1] > 2]
    assert sum(len(b) for b, _ in stacks) == 2101
    stacks += [_quotients([n]) for n in (30030, 510510, 9699690)]
    for stack, supports in stacks:
        w = stack.shape[1]
        q, residues = char_polys_mod(stack, supports)
        assert q == polynomial._word_primes(w + 1, 1)[0], w
        # the exact charpoly from the dense kernel, but from the structured
        # one at w = 254, where the dense one takes 14 s on a 2-CPU VM
        exact = char_polys(stack, supports if w == 254 else None)
        assert residues.tolist() == [[c % q for c in p.coeffs] for p in exact], w
    assert {b.shape[1] for b, _ in stacks} == {6, 14, 30, 62, 126, 254}


@pytest.mark.parametrize(
    "kernel, column, what",
    [
        ("_newton", -1, "residue is not monic"),
        ("_newton", -2, r"x\^\(w-1\) residue is not -trace"),
        ("_power_sums", -1, "power sums break Cayley-Hamilton"),
        ("_structured_residues", -1, "residue is not monic"),
        ("_structured_residues", -2, r"x\^\(w-1\) residue is not -trace"),
    ],
)
def test_char_polys_mod_names_the_matrix_whose_residue_fails(monkeypatch, kernel, column, what):
    # one entry moved in the second matrix's row of the kernel's output
    stack, supports = _quotients([30, 42, 66])
    real = getattr(polynomial, kernel)

    def corrupted(*args):
        out = real(*args)
        out[1, column] += 1
        return out

    monkeypatch.setattr(polynomial, kernel, corrupted)
    with pytest.raises(CharPolyError, match=what) as caught:
        char_polys_mod(stack, supports if kernel == "_structured_residues" else None)
    assert caught.value.index == 1


NONZERO = [v for v in range(-50, 51) if v]


def _structured(rng, omega, isolated_top):
    """A random matrix of the structured form over the nonempty masks below
    2**omega, in shuffled order; the mask of every prime is left out, or
    kept as an isolated cell with diagonal ``isolated_top``."""
    masks = list(range(1, 2**omega - 1)) + ([2**omega - 1] if isolated_top is not None else [])
    rng.shuffle(masks)
    column = {s: rng.choice(NONZERO) for s in masks}
    rows = [
        [(rng.randrange(-99, 100) if s != 2**omega - 1 else isolated_top) if s == t
         else (column[t] if not s & t else 0) for t in masks]
        for s in masks
    ]
    return rows, masks


def test_structured_char_polys_of_random_structured_matrices(monkeypatch):
    # every column value is nonzero, so no residue row takes the dense fallback
    dense = []
    kernel = polynomial._residues

    def recording(stack, primes, rows):
        dense.extend(rows.tolist())
        return kernel(stack, primes, rows)

    rng = random.Random(21)
    for omega in (2, 3, 4, 6):
        for top in (None, 0, -7):
            batch = [_structured(rng, omega, top) for _ in range(3)]
            stack = [rows for rows, _ in batch]
            want = char_polys(stack)
            with monkeypatch.context() as patched:
                patched.setattr(polynomial, "_residues", recording)
                assert char_polys(stack, [m for _, m in batch]) == want
    assert not dense


def test_structured_char_polys_with_repeated_eigenvalues_take_the_dense_kernel(monkeypatch):
    # a diagonal matrix with repeated values is derogatory: its minimal
    # polynomial, and so the generator Berlekamp-Massey finds, falls short of
    # w at every prime, and every residue row of that matrix alone goes
    # through the dense kernel
    dense = []
    kernel = polynomial._residues

    def recording(stack, primes, rows):
        dense.append((list(primes), rows.tolist()))
        return kernel(stack, primes, rows)

    monkeypatch.setattr(polynomial, "_residues", recording)
    generic, masks = _structured(random.Random(4), 3, None)
    repeated = [[(5, 5, 7, 7, 9, 9)[i] if i == j else 0 for j in range(6)] for i in range(6)]
    got = char_polys([generic, repeated], [masks, [1, 2, 3, 4, 5, 6]])
    [(primes, rows)] = dense
    c = len(primes)
    assert rows == list(range(c, 2 * c))  # matrix 1, every prime
    assert got == [char_poly(generic), IntPoly.from_roots([(5, 2), (7, 2), (9, 2)])]


def test_structured_kernel_falls_back_where_its_form_is_degenerate(monkeypatch):
    # E B is symmetric for E = diag(column values), and the left Krylov
    # vectors E B^k v lie in the range of E mod p: a prime that divides a
    # cell size leaves that matrix's row at that prime short of degree w, and
    # a zero column value every row of its matrix; those rows alone go
    # through the dense kernel
    dense = []
    kernel = polynomial._residues

    def recording(stack, primes, rows):
        dense.append((list(primes), rows.tolist()))
        return kernel(stack, primes, rows)

    monkeypatch.setattr(polynomial, "_residues", recording)
    q = polynomial._word_primes(63, 1)[0]  # the first prime at w = 62
    sixth = 18 * q + 1
    assert Modulus.of(sixth).is_prime
    n = 2 * 3 * 5 * 7 * 11 * sixth
    assert any(size % q == 0 for _, _, size, _ in _cells(Modulus.of(n)))
    divided, masks = _quotients([n])
    generic, generic_masks = _quotients([30030])
    zeroed, zero_masks = _structured(random.Random(6), 6, None)
    t = 0  # the column of a cell that has disjoint partners
    assert any(not zero_masks[s] & zero_masks[t] for s in range(62))
    zeroed = np.array([zeroed])
    zeroed[0, np.arange(62) != t, t] = 0
    stack = np.concatenate([generic, divided, zeroed])
    supports = [generic_masks[0], masks[0], zero_masks]
    got = char_polys(stack, supports)
    [(primes, rows)] = dense
    c = len(primes)
    assert primes[0] == q
    assert rows == [c] + list(range(2 * c, 3 * c))  # matrix 1 at q, matrix 2 at every prime
    assert got == char_polys(stack)


def test_one_prime_that_divides_a_cell_size_costs_one_dense_row(monkeypatch):
    # 11161543892730 = 2 * 3 * 5 * 7 * 11 * 4831837183: one cell size of its
    # core is divisible by 268435399, the first of its 91 primes, so one
    # residue row of the 91 goes through the dense kernel, at that prime
    dense = []
    kernel = polynomial._residues

    def recording(stack, primes, rows):
        dense.extend(primes[j % len(primes)] for j in rows.tolist())
        return kernel(stack, primes, rows)

    b, supports = _quotients([11161543892730])
    want = char_polys(b)
    monkeypatch.setattr(polynomial, "_residues", recording)
    assert char_polys(b, supports) == want
    assert dense == [268435399]


def test_structured_kernel_keeps_a_cell_disjoint_from_every_other(monkeypatch):
    # the full mask meets every support, so its column has no off-diagonal
    # entry: its e_j is read as 1, E stays regular and the matrix needs no
    # dense fallback
    dense = []
    kernel = polynomial._residues

    def recording(stack, primes, rows):
        dense.extend(rows.tolist())
        return kernel(stack, primes, rows)

    monkeypatch.setattr(polynomial, "_residues", recording)
    rows, masks = _structured(random.Random(2), 6, -7)
    disjoint = [(s, t) for s in range(63) for t in range(63) if not masks[s] & masks[t]]
    assert all(rows[s][t] for s, t in disjoint)  # no zero column value
    got = char_polys([rows], [masks])
    assert not dense
    assert got == [char_poly(rows)]


def test_structured_char_polys_refuse_other_input():
    rows, masks = _structured(random.Random(5), 3, None)
    stack = np.array([rows])
    assert char_polys(stack, [masks]) == char_polys(stack)
    # matrices of size 0, as the empty core of a prime power, have charpoly 1
    empty = np.zeros((2, 0, 0), dtype=np.int64)
    assert char_polys(empty, [[], []]) == char_polys(empty) == [IntPoly.one()] * 2
    assert char_polys([], []) == []
    for bad in ([masks[:-1]], [[0] + masks[1:]], [masks[:-1] + masks[:1]], [[m * 4 for m in masks]]):
        with pytest.raises(ValueError, match="supports"):
            char_polys(stack, bad)
    moved = stack.copy()
    s, t = next((s, t) for s in range(6) for t in range(6) if s != t and masks[s] & masks[t])
    moved[0, s, t] = 1  # an entry where the supports meet
    with pytest.raises(ValueError, match="where supports meet"):
        char_polys(moved, [masks])
    with pytest.raises(ValueError):
        char_polys(stack.astype(float), [masks])


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
    assert residual == IntPoly((-9, 1))


def test_extract_integer_roots_divides_by_every_candidate_once_unless_a_root(monkeypatch):
    divided = []
    divide = IntPoly.divide_linear

    def recording(self, r):
        divided.append(r)
        return divide(self, r)

    monkeypatch.setattr(IntPoly, "divide_linear", recording)
    q = polynomial._word_primes(2, 1)[0]
    big = 2**64 + 5
    p = IntPoly.from_roots([(7, 1), (3 * q, 2), (big, 3)]) * IntPoly((1, 1, 1))
    # 7 + q and 7 - 5q are 7 mod q, and 0 is 3q mod q: congruent to roots
    # modulo a word prime, they are still no roots
    congruent = [7 + q, 7 - 5 * q, 0, big + q * 2**70]
    others = [1, -4, q + 1, 2**63, 2**80 + 1]
    roots, residual = extract_integer_roots(p, [big, 7, 3 * q] + congruent + others + [7])
    assert roots == [(7, 1), (3 * q, 2), (big, 3)]
    assert residual == IntPoly((1, 1, 1))
    assert all(divided.count(r) == 1 for r in others + congruent)
    # a root of multiplicity m takes m + 1 divisions, the last one with remainder
    assert divided.count(big) == 4 and divided.count(3 * q) == 3


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

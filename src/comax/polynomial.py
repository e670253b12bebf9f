"""Exact integer polynomials and the exact linear algebra behind them.

Two entry points give characteristic polynomials, and each checks its own
output, raising ``CharPolyError`` with the position of the failing matrix:
``char_polys`` gives them exactly, multimodularly, and ``char_polys_mod``
modulo one prime.  ``char_polys`` reduces the matrices modulo word-size
primes, finds the characteristic polynomial of each residue matrix over
F_p, and recombines the coefficients by the Chinese remainder theorem up to
a proven Hadamard bound (the multimodular scheme of Dumas, Pernet & Wan,
ISSAC 2005).  Both take the dense kernel, or the structured one when given
the cells' bitmask supports:
  * the dense kernel brings each residue matrix to upper Hessenberg form by
    a similarity over F_p and reads its characteristic polynomial off the
    Hessenberg recurrence (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 2.2.9), one elimination step and one recurrence
    step per column.  One vectorised pass runs a stack of int64 matrices of
    one size, all modulo one list of primes.  Modulo one prime,
    ``char_polys_mod`` takes the power-trace kernel instead: the traces of
    the powers B^t, t <= w + 1, from baby-step/giant-step float64 matrix
    products (exact while every partial sum stays below 2**53), then
    Newton's identities.  It makes about 2 sqrt(w) BLAS calls where the
    Hessenberg kernel makes about 2w small numpy steps;
  * the structured kernel takes matrices whose off-diagonal entry (i, j) is
    0 unless the bitmask supports of i and j are disjoint, and then depends
    on j alone, as the G2 quotients' do.  A product with such a matrix is a
    subset-sum transform over the 2**omega masks, and Wiedemann's method
    (IEEE Trans. Inf. Theory 32, 1986) with Berlekamp-Massey gives the
    charpoly modulo each prime.  E B is symmetric for E the diagonal of
    column values, so the symmetric form of the method (Eberly & Kaltofen,
    ISSAC 1997) reads the 2w terms off w products.  A residue row it leaves
    incomplete, where Berlekamp-Massey finds a generator of lower degree
    modulo that row's prime (a repeated eigenvalue, a column value that the
    prime divides, or an unlucky start vector), takes the Hessenberg kernel
    at that prime alone.  Every exact G2 core charpoly comes from this
    kernel, so the Hessenberg one serves only this fallback and the tests,
    which take ``char_polys`` without supports as their reference.
Integer roots are then split off at caller-supplied candidates, each decided
by exact synthetic division.

``power_sums`` gives the exact traces of the powers of one matrix from the
power-trace kernel, at as many primes as a proven bound needs, one per copy
of the matrix in one stack, recombined by the same Chinese remainder step;
``IntPoly.from_power_sums`` reads a charpoly back off them.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Sequence

import numpy as np


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

    @classmethod
    def from_power_sums(cls, sums: Sequence[int]) -> "IntPoly":
        """The monic polynomial x^W + a_1 x^(W-1) + ... + a_W, W = len(sums),
        whose power sums p_1..p_W are ``sums``, by Newton's identities over
        Z: j a_j = -sum_(i<j) a_i p_(j-i), a_0 = 1.  A division that is not
        exact raises ArithmeticError: no monic integer polynomial has them."""
        a = [1]
        for j in range(1, len(sums) + 1):
            q, r = divmod(-sum(a[i] * sums[j - i - 1] for i in range(j)), j)
            if r:
                raise ArithmeticError(f"power sums fit no monic integer polynomial at p_{j}")
            a.append(q)
        return cls(reversed(a))

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


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 61 < n < 4759123141 (bases 2, 7, 61)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# bits -> the largest primes below 2**bits, descending.  A longer list
# replaces a shorter one and no list is changed in place, so callers in any
# thread may share them.
_PRIMES: dict[int, list[int]] = {}


def _word_primes(w: int, bound: int, limit: int = 2**63) -> list[int]:
    """The fewest of the largest primes below 2**bits whose product exceeds
    ``bound``, for the largest bits with w * 4**bits < ``limit``, so that
    w * p**2 < limit for each of them: 2**63 keeps the int64 kernels exact,
    2**53 the float64 products of ``_power_sums``."""
    bits = math.isqrt((limit - 1) // w).bit_length() - 1
    primes = _PRIMES.get(bits, [])
    count, modulus = 0, 1
    while modulus <= bound:
        if count == len(primes):
            primes = list(primes)  # doubled as a new list; see _PRIMES
            cand = primes[-1] - 2 if primes else (1 << bits) - 1
            while len(primes) <= 2 * count:
                if _is_prime(cand):
                    primes.append(cand)
                cand -= 2
            _PRIMES[bits] = primes
        modulus *= primes[count]
        count += 1
    return primes[:count]


# int64 entries per (k, w, w) stack of residue matrices (512 KiB): residues go
# through _char_poly_mod in slices of this size, through the structured
# kernel in slices of this many mask entries and through the power-trace
# kernel in slices whose baby steps hold about this many float64 entries, so
# the working memory stays bounded however many matrices and primes a call
# needs.  One matrix's isqrt(w + 2) baby steps may exceed it: about 1.4 MB
# at w = 126 and 11 MB at 288.
_BATCH_CELLS = 1 << 16


def _char_poly_mod(h: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of each ``h[b]`` modulo ``mods[b]``.

    ``h`` is a (k, w, w) int64 stack with entries in [0, mods[b]); it is
    overwritten.  Each matrix is brought to upper Hessenberg form by a
    similarity over F_p, with its own pivots, and then run through the
    Hessenberg recurrence (Cohen, Alg. 2.2.9).  Returns the (k, w + 1)
    residues, constant term first.  A column already zero below its
    subdiagonal has no pivot: its multiplier is 0, so its step changes
    nothing, and the recurrence reads its zero subdiagonal entry.

    Every product-sum below has at most w terms below (p - 1)**2, so the
    caller's w * (p - 1)**2 < 2**63 keeps the int64 arithmetic exact.
    """
    k, w, _ = h.shape
    p = mods[:, None]
    primes = mods.tolist()
    for c in range(w - 2):
        r = c + 1
        if not h[:, r, c].all():
            # pivot: the first nonzero entry of column c from row r down
            first = (h[:, r:, c] != 0).argmax(axis=1)
            swap = np.flatnonzero(first)
            if swap.size:
                s = r + first[swap]
                h[swap, r], h[swap, s] = h[swap, s], h[swap, r]
                h[swap, :, r], h[swap, :, s] = h[swap, :, s], h[swap, :, r]
        inv = [pow(a, -1, q) if a else 0 for a, q in zip(h[:, r, c].tolist(), primes)]
        u = h[:, r + 1 :, c] * np.array(inv, dtype=np.int64)[:, None] % p
        # rows r+1.. -= u * row r, then column r += the u-combination of columns r+1..
        h[:, r + 1 :, c:] -= u[:, :, None] * h[:, r, None, c:]
        h[:, r + 1 :, c:] %= p[:, :, None]
        h[:, :, r] += (h[:, :, r + 1 :] @ u[:, :, None])[:, :, 0]
        h[:, :, r] %= p
    # poly[:, m] is the charpoly of the leading m x m block; run[:, i] holds
    # the product of the subdiagonal entries h[j, j-1] for i < j < m
    poly = np.zeros((k, w + 1, w + 1), dtype=np.int64)
    poly[:, 0, 0] = 1
    run = np.zeros((k, w), dtype=np.int64)
    for m in range(1, w + 1):
        if m > 1:
            run[:, : m - 2] *= h[:, m - 1, m - 2, None]
            run[:, : m - 2] %= p
            run[:, m - 2] = h[:, m - 1, m - 2]
        t = h[:, : m - 1, m - 1] * run[:, : m - 1] % p
        acc = h[:, m - 1, m - 1, None] * poly[:, m - 1, :m]
        acc += (t[:, None, :] @ poly[:, : m - 1, :m])[:, 0]
        poly[:, m, 1 : m + 1] = poly[:, m - 1, :m]
        poly[:, m, :m] -= acc % p
        poly[:, m, :m] %= p
    return poly[:, w]


def _residues(stack: np.ndarray, primes: list[int], rows: np.ndarray) -> np.ndarray:
    """The (len(rows), w + 1) charpoly residues of the given rows of a
    (k, w, w) int64 stack modulo c primes: row j is that of matrix j // c
    modulo prime j % c, computed by ``_char_poly_mod`` in slices of
    ``_BATCH_CELLS`` entries."""
    w = stack.shape[1]
    c = len(primes)
    residues = np.empty((len(rows), w + 1), dtype=np.int64)
    batch = max(1, _BATCH_CELLS // (w * w))
    for s in range(0, len(rows), batch):
        j = rows[s : s + batch]
        mods = np.array(primes, dtype=np.int64)[j % c]
        residues[s : s + batch] = _char_poly_mod(stack[j // c] % mods[:, None, None], mods)
    return residues


def char_polys_mod(
    stack: np.ndarray, supports: Sequence[Sequence[int]] | None = None
) -> tuple[int, np.ndarray]:
    """Characteristic polynomials of a (k, w, w) int64 stack, w > 0, modulo
    one prime q: q and the (k, w + 1) residues in [0, q), constant term
    first, each checked monic with x^(w-1) residue -trace(B) mod q; a
    failure raises CharPolyError.

    With ``supports`` (the form of ``char_polys``), q is the first prime
    that ``char_polys`` takes for size w, and the residues come from the
    structured kernel, or the dense one for a residue row it leaves
    incomplete.

    Without, q is the largest prime with w * q**2 < 2**53
    (``_trace_prime``), and the power-trace kernel gives the residues: the
    power sums s_t = trace(B^t) mod q, t = 0..w + 1, from float64 matrix
    products (``_power_sums``), exact because every partial sum is an
    integer below 2**53 (Dumas, Giorgi & Pernet, "FFLAS-FFPACK", ACM TOMS
    2008), then Newton's identities (``_newton``), which divide by
    1..w < q.  s_(w+1) takes no part in them, so the residues are also
    checked by Cayley-Hamilton: sum_j c_j s_(j+1) = trace(B p(B)) = 0 mod q.
    For a G2 quotient core of n <= 10**7 with at most seven distinct primes
    (w <= 126), q > n - phi(n) - 1, the largest integer eigenvalue it can
    have: q = 8454917 at w = 126, against at most 8133749 (n = 9999990),
    and q > 10**7 for w <= 62.
    """
    k, w, _ = stack.shape
    if supports is None:
        q = _trace_prime(w)
        sums = _sliced_power_sums(stack, q)
        residues = _newton(sums, q)
        cayley_hamilton = (residues * sums[:, 1:]).sum(axis=1) % q == 0
        sum_checks = [(cayley_hamilton, "power sums break Cayley-Hamilton")]
    else:
        q = _word_primes(w + 1, 1)[0]
        residues = _structured_residues(stack, supports, [q])
        sum_checks = []
    trace = (stack.diagonal(axis1=1, axis2=2) % q).sum(axis=1) % q
    checks = [
        (residues[:, w] == 1, "characteristic polynomial residue is not monic"),
        (residues[:, w - 1] == -trace % q, "x^(w-1) residue is not -trace"),
        *sum_checks,
    ]
    for ok, what in checks:
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise CharPolyError(int(bad[0]), what)
    return q, residues


@functools.cache
def _trace_prime(w: int) -> int:
    """The largest prime q with w * q**2 < 2**53.  It exceeds w for every w
    below 2**17; ValueError beyond, where no such prime does."""
    q = math.isqrt((2**53 - 1) // w)
    q -= 1 - q % 2
    while q > w and not _is_prime(q):
        q -= 2
    if q <= w:
        raise ValueError(f"no prime q > w = {w} has w * q**2 < 2**53")
    return q


def _product_mod(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """a @ b mod q for float64 stacks of w x w matrices with integer entries
    below q in absolute value, w * q**2 < 2**53, q one prime or a float64
    array of a's shape holding each entry's prime: every partial sum of the
    float64 product is an integer of absolute value below 2**53, so it is
    exact in any summation order.  Each entry x goes to x - k q for
    k = rint(x / q), with x / q correctly rounded, so the result is exact
    and at most q / 2 + 1 in absolute value."""
    c = a @ b
    k = c / q
    np.rint(k, out=k)
    k *= q
    c -= k
    return c


def _sliced_power_sums(stack: np.ndarray, q) -> np.ndarray:
    """``_power_sums`` of the (k, w, w) int64 stack, each matrix modulo q,
    an int, or modulo its own prime q[i] when q is a (k,) array, with
    m = isqrt(w + 2) baby steps, in slices whose baby steps hold about
    ``_BATCH_CELLS`` entries, and at least one matrix."""
    k, w, _ = stack.shape
    m = max(2, math.isqrt(w + 2))
    batch = max(1, _BATCH_CELLS // (m * w * w))
    sums = np.empty((k, w + 2), dtype=np.int64)
    for s in range(0, k, batch):
        qs = q if np.ndim(q) == 0 else q[s : s + batch]
        h = stack[s : s + batch] % np.reshape(qs, (-1, 1, 1))
        sums[s : s + batch] = _power_sums(h.astype(np.float64), qs, m)
    return sums


def _power_sums(h: np.ndarray, q, m: int) -> np.ndarray:
    """The (k, w + 2) power sums s_t = trace(B^t) mod q, t = 0..w + 1, of
    the (k, w, w) float64 stack ``h`` with integer entries in [0, q),
    w * q**2 < 2**53, by m baby and about (w + 2) / m giant steps
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973).  q is one prime for
    every matrix, or a (k,) array of one prime per matrix.

    The baby steps B^i, i < m, are kept transposed; the giant steps
    G^j = (B^m)^j are streamed, and each gives s_(jm + i) =
    sum_a sum_b G^j[a, b] B^i[b, a] for every i at once.  The powers are
    kept with entries below q in absolute value (``_product_mod``), so an
    inner sum has w terms below q**2, exact in float64, and is reduced mod q
    before the w outer terms are added in int64: every sum stays below
    2**53.
    """
    k, w, _ = h.shape
    modulus = q
    if np.ndim(q):
        # each matrix's prime in every entry: against a (k, 1, 1) operand
        # numpy's inner loops run w entries at a time, several times slower
        modulus = np.repeat(np.asarray(q, np.float64), w * w).reshape(h.shape)
    q = np.reshape(q, (-1, 1, 1))
    baby = np.empty((k, w, w, m))  # baby[:, a, b, i] = B^i[b, a]
    power = h
    baby[..., 0] = np.eye(w)
    for i in range(1, m):
        baby[..., i] = power.transpose(0, 2, 1)
        power = _product_mod(power, h, modulus)
    giant, power = power, np.broadcast_to(np.eye(w), h.shape)
    sums = np.empty((k, w + 2), dtype=np.int64)
    for t in range(0, w + 2, m):
        if t:
            power = _product_mod(power, giant, modulus) if t > m else giant
        rows = (power[:, :, None, :] @ baby)[:, :, 0].astype(np.int64) % q
        sums[:, t : t + m] = (rows.sum(axis=1, keepdims=True) % q)[:, 0, : w + 2 - t]
    return sums


def _newton(sums: np.ndarray, q: int) -> np.ndarray:
    """The (k, w + 1) charpoly residues mod q, constant term first, of the
    matrices with the (k, w + 2) power sums ``sums`` mod q, by Newton's
    identities: for p = x^w + a_1 x^(w-1) + ... + a_w,
    j a_j = -sum_(i=1..j) a_(j-i) s_i.  Each sum has at most w terms below
    q**2, and q > w makes j invertible."""
    k, w = sums.shape[0], sums.shape[1] - 2
    a = np.zeros((k, w + 1), dtype=np.int64)
    a[:, 0] = 1
    back = np.ascontiguousarray(sums[:, w:0:-1])  # back[:, w - i] = s_i
    for j in range(1, w + 1):
        acc = np.einsum("ij,ij->i", a[:, :j], back[:, w - j :]) % q
        a[:, j] = acc * (q - pow(j, -1, q)) % q
    return a[:, ::-1]


def power_sums(matrix: np.ndarray) -> list[int]:
    """The exact power sums trace(H^j), j = 1..w, of a w x w int64 matrix H,
    w > 0.

    |trace(H^j)| <= w rho(H)^j <= w ||H||_inf^j, so c primes q with
    w * q**2 < 2**53, whose product M exceeds 2 w max(1, ||H||_inf)^w, read
    each sum in (-M/2, M/2] by ``_crt``.  The residues come from
    ``_power_sums`` with one prime per copy of H, so every prime goes
    through one call of the kernel, in ``_BATCH_CELLS`` slices.
    """
    w = len(matrix)
    norm = int(np.abs(matrix).sum(axis=1).max())
    primes = _word_primes(w, 2 * w * max(1, norm) ** w, 2**53)
    stack = np.broadcast_to(matrix, (len(primes), w, w))
    residues = _sliced_power_sums(stack, np.array(primes, dtype=np.int64))
    return _crt(residues[:, 1 : w + 1], primes)[0]


class CharPolyError(ArithmeticError):
    """A characteristic polynomial failed its check; ``index`` is the position
    of its matrix in the list handed to ``char_polys`` or ``char_polys_mod``."""

    def __init__(self, index: int, what: str):
        super().__init__(f"matrix {index}: {what}")
        self.index = index
        self.what = what


def char_polys(
    matrices: Sequence[Sequence[Sequence[int]]], supports: Sequence[Sequence[int]] | None = None
) -> list[IntPoly]:
    """Monic characteristic polynomials det(xI - B) of int64 matrices of one
    size w, exact.

    Multimodular: the (k, w, w) stack is reduced modulo word-size primes p,
    chosen with (w + 1) * (p - 1)**2 < 2**63 so that numpy int64 arithmetic
    stays exact in either kernel.  The c primes are one list whose product
    M exceeds the largest 2 * prod_i (2 + isqrt(||row_i||^2)) of the stack,
    a Hadamard bound on the sum of the principal minors of each size and
    hence on every coefficient; one CRT basis reads each coefficient as the
    residue in (-M/2, M/2] (``_recombine``, which checks each result).

    Without ``supports``, residue row j, matrix j // c modulo prime j % c,
    goes through the dense kernel, ``_char_poly_mod``, in slices of
    ``_BATCH_CELLS`` entries.  Reduction mod p commutes with the charpoly
    and Hessenberg reduction is a similarity over F_p, so every prime is
    good.

    ``supports`` gives each cell of each matrix a bitmask support, with
    each entry B[i][j], i != j, 0 where the supports of i and j meet and
    one value e_j per column where they are disjoint.  The G2 quotients have
    this form, and a product with one costs O(omega * 2**omega), not w**2.
    The residues modulo each prime then come from ``_structured_residues``,
    and a residue row it leaves incomplete from the dense kernel at that
    row's prime alone: residues modulo a prime are unique, so the kernels
    mix row by row.

    A matrix of size 0 has the charpoly 1.  Ragged or mixed-size input, any
    entry that is not an int64 integer (a float, or 2**63 and beyond) and
    input not of the form its supports state raise ValueError.
    """
    stack = np.asarray(matrices)
    if not len(stack) or stack.shape[1:] in ((0,), (0, 0)):  # none, or of size 0
        return [IntPoly.one()] * len(stack)
    stack = _int64_stack(stack)
    primes = _word_primes(stack.shape[1] + 1, _hadamard_bound(stack))
    if supports is None:
        residues = _residues(stack, primes, np.arange(len(stack) * len(primes)))
    else:
        residues = _structured_residues(stack, supports, primes)
    return _recombine(stack, primes, residues)


def _int64_stack(stack: np.ndarray) -> np.ndarray:
    """A nonempty (k, w, w) stack of integer matrices as int64; ValueError
    for ragged, non-square or mixed-size input and for any entry that is not
    an int64 integer."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("matrices must be square and of one size")
    if stack.dtype.kind != "i":
        raise ValueError(f"matrix entries must be int64 integers, not {stack.dtype}")
    return stack.astype(np.int64, copy=False)


def _hadamard_bound(stack: np.ndarray) -> int:
    """The largest 2 * prod_i (2 + isqrt(||row_i||^2)) of the stack: a bound
    on every coefficient of every characteristic polynomial in it."""
    return max(
        2 * math.prod(2 + math.isqrt(sum(v * v for v in row)) for row in rows)
        for rows in stack.tolist()
    )


def _crt(residues: np.ndarray, primes: list[int]) -> list[list[int]]:
    """The integers of each group of c residue rows modulo c primes (row j:
    group j // c, prime j % c), one per column, each read by one CRT basis
    in (-M/2, M/2], M the product of the primes."""
    c = len(primes)
    modulus = math.prod(primes)
    basis = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    out = []
    for i in range(0, len(residues), c):
        values = []
        for column in zip(*residues[i : i + c].tolist()):
            v = sum(map(operator.mul, column, basis)) % modulus
            values.append(v - modulus if 2 * v > modulus else v)
        out.append(values)
    return out


def _recombine(stack: np.ndarray, primes: list[int], residues: np.ndarray) -> list[IntPoly]:
    """The exact characteristic polynomials of a (k, w, w) stack from their
    (k * c, w + 1) residues modulo c primes (row j: matrix j // c, prime
    j % c) whose product exceeds ``_hadamard_bound``: each coefficient read
    by ``_crt``, each result checked to be monic of degree w with x^(w-1)
    coefficient -trace(B); a failure raises CharPolyError."""
    w = stack.shape[1]
    diagonals = stack.diagonal(axis1=1, axis2=2).tolist()
    out = []
    for i, (coeffs, diagonal) in enumerate(zip(_crt(residues, primes), diagonals)):
        poly = IntPoly(coeffs)
        if not poly.is_monic or poly.degree != w:
            raise CharPolyError(i, "characteristic polynomial must be monic of degree w")
        if poly.coeffs[w - 1] != -sum(diagonal):
            raise CharPolyError(
                i, "x^(w-1) coefficient of the characteristic polynomial is not -trace"
            )
        out.append(poly)
    return out


def _projections(size: int) -> np.ndarray:
    """Wiedemann's start vector v over the ``size`` support masks: a fixed
    integer sequence of the mask index below 2**16, so that every run takes
    the same path."""
    masks = np.arange(size, dtype=np.int64)
    return (masks * 40503 + 12345) % 65521


def _structured_residues(
    stack: np.ndarray, supports: Sequence[Sequence[int]], primes: list[int]
) -> np.ndarray:
    """The (k * c, w + 1) charpoly residues of a (k, w, w) stack of the form
    of ``char_polys`` with supports modulo c primes, row j being matrix j // c
    modulo prime j % c.  A residue row it leaves incomplete is taken from the
    dense kernel (``_residues``) at that row's prime alone.

    The supports must be positive, distinct within a matrix and fill at
    least half of the 2**omega masks.  The matrices are laid out over all
    2**omega masks; a mask that is no cell gets e = 0 and diagonal 0, and
    the start vector v is 0 there, so the Krylov space is that of the w
    cells.  Then B x = diagonal * x + Z(e * x) read at the complement mask,
    which is the reversed index, with Z the subset-sum transform
    (``_krylov_sequence``).

    B = diag(diagonal) + A E with A the symmetric 0/1 matrix of disjoint
    supports and E = diag(e), so E B is symmetric and s_j = v^T E B^j v
    splits as x_i^T E x_k for any i + k = j, x_k = B^k v: the 2w terms come
    from w products (the symmetric form of Wiedemann's method; Eberly &
    Kaltofen, ISSAC 1997).  Berlekamp-Massey on s_j, j < 2w, gives the
    generator f of the sequence; f divides the minimal polynomial of B mod
    p, which divides its characteristic polynomial, so deg f = w means f is
    that polynomial and the row is complete.  The left Krylov vectors
    (B^T)^k E v = E B^k v lie in the range of E, so a prime dividing some
    e_j, or a zero e_j, leaves the row incomplete, as a v with v^T E v = 0
    may.  Rows go through in slices of ``_BATCH_CELLS`` mask entries.
    """
    k, w, _ = stack.shape
    masks = np.asarray(supports)
    if masks.shape != (k, w) or masks.dtype.kind != "i" or (masks <= 0).any():
        raise ValueError("supports must be one positive integer bitmask per cell")
    size = 1 << int(masks.max()).bit_length()
    ordered = np.sort(masks, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any() or size > 2 * w + 2:
        raise ValueError("supports must be distinct and fill half of their masks")
    masks = masks.astype(np.int64)
    disjoint = (masks[:, :, None] & masks[:, None, :]) == 0
    first = disjoint.argmax(axis=1)[:, None, :]
    column = np.take_along_axis(stack, first, axis=1)[:, 0]
    diagonal = stack.diagonal(axis1=1, axis2=2)
    built = np.where(disjoint, column[:, None, :], 0)
    built[:, range(w), range(w)] = diagonal
    if not np.array_equal(built, stack):
        raise ValueError("matrices must be 0 where supports meet and one value per column elsewhere")
    # a cell disjoint from every other has no off-diagonal entries, so any
    # e_j keeps E B symmetric; 1 keeps E regular
    column = np.where(disjoint.any(axis=1), column, 1)
    e, diag, v = (np.zeros((k, size), dtype=np.int64) for _ in range(3))
    for laid, cell in ((e, column), (diag, diagonal), (v, _projections(size)[masks])):
        np.put_along_axis(laid, masks, cell, axis=1)
    c = len(primes)
    residues = np.empty((k * c, w + 1), dtype=np.int64)
    complete = np.empty(k * c, dtype=bool)
    batch = max(1, _BATCH_CELLS // size)
    for s in range(0, k * c, batch):
        j = np.arange(s, min(s + batch, k * c))
        i = j // c
        p = np.array(primes, dtype=np.int64)[j % c, None]
        seq = _krylov_sequence(e[i] % p, diag[i] % p, v[i], p, w)
        # poly is x**(w - deg f) * f, its leading coefficient not yet 1
        poly, degree = _berlekamp_massey(seq, p, w)
        complete[j] = degree == w
        lead = [pow(a, -1, q) for a, q in zip(poly[:, -1].tolist(), p[:, 0].tolist())]
        residues[j] = poly * np.array(lead, dtype=np.int64)[:, None] % p
    incomplete = np.flatnonzero(~complete)
    if incomplete.size:
        residues[incomplete] = _residues(stack, primes, incomplete)
    return residues


def _krylov_sequence(
    e: np.ndarray, diag: np.ndarray, v: np.ndarray, p: np.ndarray, steps: int
) -> np.ndarray:
    """The (rows, 2 * steps) sequences s_j = v^T E B^j v mod p of the
    structured matrices laid out by ``_structured_residues``, E = diag(e),
    every array (rows, 2**omega) with ``e`` and ``diag`` reduced mod p and
    v below 2**16.

    Step k takes ex = e * x_k mod p, emits s_(2k - 1) = ex . x_(k-1) and
    s_(2k) = ex . x_k, and applies B once: ``steps`` products in all, and
    one more ex for the last term.  Each dot product has at most w nonzero
    terms below p**2, as ex is 0 off the cells.  One product costs one
    subset-sum transform: y = ex, then for each bit, y[S | bit] += y[S]
    over the S without it, in place on slice views; then B x = diag * x + y
    at the complement mask, reduced mod p once.  The sum a cell reads at
    its complement runs over the cells disjoint from it, so with its
    diagonal term it stays below w * p**2; the sums at masks no cell reads
    may wrap, and nothing reads them.
    """
    rows, size = e.shape
    # masks along axis 0 and rows along axis 1, so that every slice view
    # below is contiguous in runs of at least ``rows``
    e, diag = (np.ascontiguousarray(a.T) for a in (e, diag))
    q = p.T
    x = np.ascontiguousarray(v.T) % q
    last = np.empty_like(x)  # x_(k-1)
    y = np.empty_like(x)
    halves = []
    for bit in range(size.bit_length() - 1):
        pairs = y.reshape(size >> (bit + 1), 2, 1 << bit, rows)
        halves.append((pairs[:, 1], pairs[:, 0]))
    complement = y[::-1]
    seq = np.empty((2 * steps, rows), dtype=np.int64)
    for k in range(steps + 1):
        np.multiply(e, x, out=y)
        np.remainder(y, q, out=y)
        if k:
            np.einsum("ij,ij->j", y, last, out=seq[2 * k - 1])
        if k == steps:
            break
        np.einsum("ij,ij->j", y, x, out=seq[2 * k])
        for high, low in halves:
            np.add(high, low, out=high)
        np.multiply(x, diag, out=last)
        np.add(last, complement, out=last)
        np.remainder(last, q, out=last)
        x, last = last, x
    return (seq % q).T


def _berlekamp_massey(seq: np.ndarray, p: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``seq`` (rows, 2w) mod p, a sequence generated by a
    matrix of size at most w: its minimal generator f, of degree L, as the
    (rows, w + 1) coefficients of x**(w - L) * f, constant term first, with
    leading coefficient nonzero but not 1, and L.

    Inversion-free: the update C <- b C - d x**m B scales the connection
    polynomial C by the last nonzero discrepancy b instead of dividing by
    it, and every row takes its own branch through ``np.where``.  f is
    x**L C(1/x), so C read backwards is x**(w - L) * f.  At step n, C has
    degree at most L and x**m B at most n + 1 - L, so only that prefix is
    touched; the discrepancy sums at most w + 1 products below p**2.
    """
    rows, terms = seq.shape
    conn = np.zeros((rows, w + 1), dtype=np.int64)
    conn[:, 0] = 1
    shifted = np.zeros_like(conn)  # x**m B: C before its last length change, times x**m
    shifted[:, 1] = 1
    scale = np.ones((rows, 1), dtype=np.int64)
    length = np.zeros(rows, dtype=np.int64)
    # back[:, terms - 1 - n + i] = s_(n - i), and 0 for n - i < 0
    back = np.zeros((rows, terms + w), dtype=np.int64)
    back[:, :terms] = seq[:, ::-1]
    for n in range(terms):
        top = min(w + 1, max(int(length.max()), n + 1 - int(length.min())) + 1)
        start = terms - 1 - n
        d = np.einsum("ij,ij->i", conn[:, :top], back[:, start : start + top]) % p[:, 0]
        grow = (d != 0) & (2 * length <= n)
        end = min(top, w)
        moved = np.where(grow[:, None], conn[:, :end], shifted[:, :end])
        conn[:, :top] = (scale * conn[:, :top] - d[:, None] * shifted[:, :top]) % p
        shifted[:, 1 : end + 1] = moved
        length = np.where(grow, n + 1 - length, length)
        scale = np.where(grow[:, None], d[:, None], scale)
    return conn[:, ::-1], length


def values_mod(coeffs: np.ndarray, points: np.ndarray, q: int) -> np.ndarray:
    """p(r) mod q at each point r of ``points`` (..., k) for the polynomial
    rows ``coeffs`` (..., d + 1), constant term first, all int64 in [0, q):
    Horner over int64, exact while 2 * (q - 1)**2 < 2**63."""
    acc = np.zeros_like(points)
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        acc = (acc * points + c[..., None]) % q
    return acc


def extract_integer_roots(
    p: IntPoly, candidates: Iterable[int]
) -> tuple[list[tuple[int, int]], IntPoly]:
    """Split a monic integer polynomial into integer roots and a residual.

    Returns (roots, residual) with roots as (value, multiplicity) pairs
    sorted ascending, such that prod (x - r)^mult * residual == p.  Only the
    given candidates, Python ints of any size, are tried, each by exact
    synthetic division.  So the residual is free of integer roots exactly
    when the candidates cover every integer root of p.
    """
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    roots: list[tuple[int, int]] = []
    rem = p
    for r in sorted(set(candidates)):
        mult = 0
        while rem.degree > 0:
            quotient, remainder = rem.divide_linear(r)
            if remainder != 0:
                break
            rem = quotient
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, rem

"""Laplacian spectra of comaximal graphs via the prime-support quotient.

The nonzero non-units of Z_n split into cells C_S = {x : rad(gcd(x, n)) = r},
one per squarefree divisor r > 1 of n with prime support S (at most
2^omega - 1).  Two elements are adjacent exactly when their supports are
disjoint, S & T = 0, so the partition is equitable and each cell induces a
null graph; it merges the divisor classes A_d = {x : gcd(x, n) = d} of one
prime support, whose neighbourhoods are identical.  With n = prod p^a, the
Chinese remainder theorem gives both cell invariants in closed form:
  * |C_S| = prod_{p in S} p^(a-1) * prod_{p not in S} phi(p^a), less 1 for
    the cell of rad(n), which holds 0;
  * the cell degree N_S = prod_{p in S} phi(p^a) * prod_{p not in S} p^a
    - phi(n), the y with support disjoint from S less the units.

The Laplacian spectrum of the induced subgraph G2 therefore splits into
  * the cell degree N_S with multiplicity |C_S| - 1, per cell, and
  * the spectrum of a w x w quotient matrix B over the w nonempty cells.
B has B[i][i] = N_{S_i} and B[i][j] = -|C_{S_j}| for disjoint S_i, S_j; it
is the diagonal similarity D^-1 M D (D = diag(sqrt of cell sizes)) of the
symmetric quotient M, so its spectrum is real.  The cell of rad(n) of a
non-squarefree n meets every support, so its n / rad(n) - 1 vertices are
isolated and its row and column of B are 0: the exact charpoly is that of
the core, the cells with a neighbour, times x, and the numeric eigenvalues
come from eigvalsh of M.  The core's charpolys, exact (``char_polys``) or
modulo one prime (``char_polys_mod``), are taken with its cells' supports
for the structured kernel, which multiplies by B in O(omega * 2^omega)
steps; modulo one prime, only from omega = 8 on, and power traces below.
Both entry points check their own output, and ``_naming`` is the one place
where a failed check becomes an ArithmeticError naming n, on the scan and
the spectrum paths alike.

Every spectrum, printed or scanned, rests on one decision that needs no
exact charpoly for most n.  Every row of B sums to zero, B 1 = 0, so 0 is
always a root.  A core of at most two cells (at most two distinct primes)
is empty or has the roots 0 and trace(B) and no other.  Above, when 0 is a
simple root of the core and its charpoly modulo one prime is nonzero at
every other rounded eigenvalue, 0 is the only integer root and the
residual degree is the core size less 1.  A decided spectrum is built at
once from the cells and the eigenvalues; the exact residual polynomial, 1 for
a core of at most two cells, is taken from the core's charpoly only when
something reads it.  Any other modulus takes the exact path at once.  The
scan reads only the degrees off the same decision (``g2_residual_degrees``).

The full graph is the join of a clique on the units with (G2 plus the
isolated zero vertex), which contributes eigenvalue n with multiplicity
phi(n), one 0, and shifts everything from G2 up by phi(n).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .polynomial import (
    CharPolyError,
    IntPoly,
    char_polys,
    char_polys_mod,
    extract_integer_roots,
    values_mod,
)
from .ring_divisors import Modulus

_EPS = float(np.finfo(np.float64).eps)

# The one-prime rule passes the supports to ``char_polys_mod``, for its
# structured kernel, for cores with this many distinct primes or more
# (w >= 254), and takes its power-trace kernel below.  One core on a 2-CPU
# VM, best of 100, power traces against the structured kernel at one prime:
# 0.95 against 3.4 ms at omega = 6 and 7.1 against 8.1 ms at omega = 7, but
# 100 against 18 ms at omega = 8.
_ONE_PRIME_STRUCTURED_OMEGA = 8


def _cells(m: Modulus) -> list[tuple[int, int, int, int]]:
    """The nonempty cells of G2 as (r, S, |C_S|, N_S), ascending by label r
    (none for prime n), with S the prime support of r as a bitmask over
    ``m.factorization``.

    Python ints: the closed forms of the module docstring, grown one prime
    power p^a at a time over the supports.  Until the units are taken off,
    the degree slot counts every y whose support is disjoint from S.
    """
    cells = [(1, 0, 1, 1)]
    for i, (p, a) in enumerate(m.factorization):
        below, units = p ** (a - 1), p ** (a - 1) * (p - 1)
        cells = [(r, s, size * units, deg * p**a) for r, s, size, deg in cells] + [
            (r * p, s | 1 << i, size * below, deg * units) for r, s, size, deg in cells
        ]
    rad = (1 << m.omega) - 1  # the support of rad(n), whose cell holds 0
    cells = [(r, s, size - (s == rad), deg - m.phi) for r, s, size, deg in cells if s]
    return sorted(c for c in cells if c[2])


@dataclass(frozen=True, eq=False)
class SpectrumMultiset:
    """Exact Laplacian spectrum: integer eigenvalues plus a residual polynomial.

    ``integer_part`` holds (eigenvalue, multiplicity) pairs sorted by
    descending eigenvalue.  ``residual`` is a monic integer polynomial with
    no integer roots whose real roots (with multiplicity) are the remaining
    eigenvalues; it is the constant 1 exactly when the spectrum is integral.
    ``residual_values`` holds those roots numerically, ascending, one per
    degree of ``residual``.

    The residual may be given as a function of no arguments that computes
    it: it is then taken on the first read of ``residual`` and kept.  Only
    ``residual``, ``polynomial`` and equality read it; ``size``,
    ``is_integral`` and the float views count ``residual_values`` instead.
    """

    integer_part: tuple[tuple[int, int], ...]
    _residual: IntPoly | Callable[[], IntPoly] = field(repr=False)
    residual_values: tuple[float, ...] = ()

    @classmethod
    def from_counter(
        cls,
        counts: Counter,
        residual: IntPoly | Callable[[], IntPoly] | None = None,
        residual_values: tuple[float, ...] = (),
    ) -> "SpectrumMultiset":
        pairs = tuple(
            (v, c) for v, c in sorted(counts.items(), reverse=True) if c > 0
        )
        return cls(
            pairs, residual if residual is not None else IntPoly.one(), residual_values
        )

    @functools.cached_property
    def residual(self) -> IntPoly:
        given = self._residual
        return given if isinstance(given, IntPoly) else given()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectrumMultiset):
            return NotImplemented
        return (self.integer_part, self.residual_values, self.residual) == (
            other.integer_part, other.residual_values, other.residual
        )

    def __hash__(self) -> int:
        return hash((self.integer_part, self.residual_values))

    @property
    def size(self) -> int:
        """Total eigenvalue count (multiplicities plus residual degree)."""
        return sum(c for _, c in self.integer_part) + len(self.residual_values)

    @property
    def is_integral(self) -> bool:
        return not self.residual_values

    @property
    def ascending(self) -> list[tuple[int | float, int]]:
        """(value, multiplicity) pairs, ascending: exact integers, then each
        residual root as a float of multiplicity 1."""
        return sorted(
            list(self.integer_part) + [(r, 1) for r in self.residual_values],
            key=lambda e: e[0],
        )

    def polynomial(self) -> IntPoly:
        """The monic integer polynomial whose roots are exactly this spectrum."""
        return IntPoly.from_roots(self.integer_part) * self.residual

    def as_counter(self) -> Counter:
        return Counter(dict(self.integer_part))

    def multiplicity_of(self, value: int) -> int:
        for v, c in self.integer_part:
            if v == value:
                return c
        return 0

    def values_ascending(self) -> list[float]:
        """All eigenvalues expanded with multiplicity, ascending floats."""
        return [float(v) for v, c in self.ascending for _ in range(c)]

    def second_smallest(self) -> int | float:
        """Second-smallest eigenvalue counting multiplicity (exact if integer)."""
        entries = self.ascending
        if not entries:
            raise ValueError("empty spectrum")
        if entries[0][1] >= 2:
            return entries[0][0]
        if len(entries) < 2:
            raise ValueError("spectrum has fewer than two eigenvalues")
        return entries[1][0]

    def largest_below_radius(self) -> int | float:
        """Largest eigenvalue strictly below the spectral radius.

        The radius of a comaximal graph is n with multiplicity phi(n) >= 2,
        so the multiset second-largest would trivially equal n; the quantity
        of interest is the top of the shifted G2 spectrum.
        """
        entries = self.ascending
        if len(entries) < 2:
            raise ValueError("spectrum has no eigenvalue below the radius")
        below = [v for v, _ in entries if v < entries[-1][0]]
        if not below:
            raise ValueError("all eigenvalues equal the radius")
        return below[-1]


def _check(moduli: Sequence[Modulus], checks) -> None:
    """Raise ArithmeticError naming the first of ``moduli`` that fails one of
    the ``checks``, (per-modulus boolean array, what failed) pairs, in order."""
    for ok, what in checks:
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ArithmeticError(f"n={moduli[bad[0]].n}: {what}")


def _times_eps(norm: int) -> str:
    """norm * eps to three significant digits, also beyond the float range."""
    try:
        return f"{norm * _EPS:.3g}"
    except OverflowError:
        from decimal import Decimal  # imported only for a refusal this far out

        return f"{Decimal(norm) * Decimal(_EPS):.3g}"


def _size_groups(moduli: Sequence[Modulus]) -> list[tuple]:
    """The quotients of ``moduli`` grouped by size w > 0: per group, the
    member indices, the members, their ``_cells``, the int64 stack of their
    quotients B over the core, their eigensolver error bounds tol and the
    eigenvalues, ascending, of one stacked ``eigvalsh`` of their symmetric
    quotients M over all w cells.

    The core is the cells with a neighbour: all but the cell of rad(n) of a
    non-squarefree n, the last label, which is a zero row and column of M.

    Every bound tol = w * ||B||_inf * eps is checked to be below 1/2 (so
    rounding reaches every integer eigenvalue) before any array is built;
    then every eigenvalue is checked to lie in [-tol, n - phi(n) - 1 + tol],
    and the eigenvalues of each B to sum to trace(B) within w * tol.
    Raises ArithmeticError naming the first modulus that fails.
    """
    cells = [_cells(m) for m in moduli]
    tols: list[float] = []
    by_size: dict[int, list[int]] = {}
    for i, (m, cs) in enumerate(zip(moduli, cells)):
        # every row of B sums to zero, so ||B||_inf is twice its largest degree;
        # the int is compared with the float exactly, at any size
        norm = len(cs) * 2 * max((c[3] for c in cs), default=0)
        if norm >= 0.5 / _EPS:
            raise ArithmeticError(
                f"n={m.n}: eigensolver error bound {_times_eps(norm)} cannot separate integers"
            )
        tols.append(norm * _EPS)
        if cs:
            by_size.setdefault(len(cs), []).append(i)
    groups = []
    for w, members in by_size.items():
        ms, cs = [moduli[i] for i in members], [cells[i] for i in members]
        # one w is one omega, and 2**omega - 2 cells (squarefree) or one more
        core = w - (cs[0][-1][3] == 0)
        bits, sizes, degs = (
            np.array([[c[k] for c in row[:core]] for row in cs], dtype=np.int64) for k in (1, 2, 3)
        )
        joined = (bits[:, :, None] & bits[:, None, :]) == 0
        b = np.where(joined, -sizes[:, None, :], 0)
        f = sizes.astype(np.float64)
        sym = np.zeros((len(ms), w, w))
        sym[:, :core, :core] = np.where(joined, -np.sqrt(f[:, :, None] * f[:, None, :]), 0.0)
        b[:, range(core), range(core)] = sym[:, range(core), range(core)] = degs
        values = np.linalg.eigvalsh(sym)
        tol = np.array([tols[i] for i in members])
        # in Python floats and ints, since n - phi(n) - 1 may pass any float
        top = values[:, -1].tolist()
        fits = [v - t <= m.n - m.phi - 1 for v, t, m in zip(top, tol.tolist(), ms)]
        trace = degs.sum(axis=1)
        _check(ms, (
            ((values[:, 0] >= -tol) & np.array(fits), "eigenvalue outside [0, n - phi(n) - 1]"),
            (np.abs(values.sum(axis=1) - trace) <= w * tol, "eigenvalues disagree with the trace"),
        ))
        groups.append((members, ms, cs, b, tol, values))
    return groups


def g2_spectra(moduli: Sequence[Modulus]) -> list[SpectrumMultiset]:
    """Exact Laplacian spectra of G2, one per modulus (empty multiset for prime n).

    Per cell: the cell degree with multiplicity (cell size - 1); the
    quotient matrix contributes the rest.  The quotients of one size w
    share one stacked ``eigvalsh`` (``_size_groups``, which refuses and
    checks them) and one ``_one_prime_rule`` call on their core stack.

    A modulus the rule decides knows the integer roots of its core: 0, and
    trace(B) too for a core of two cells.  Its spectrum is built at once.  A
    core of at most two cells has no other root, so its residual is 1; a
    larger core's, its exact charpoly divided by x, is taken only when read.
    The undecided moduli of a group share one ``char_polys`` call with their
    supports: rounded, their eigenvalues are the integer-root candidates
    that ``extract_integer_roots`` decides by exact synthetic division on
    the core's charpoly.  Either way, the cell of rad(n), when isolated,
    adds one more 0, and the eigenvalues left after removing the nearest one
    to each integer root are the residual roots.  Total size is
    n - phi(n) - 1.

    Raises ArithmeticError naming the modulus if an invariant fails: the
    checks of ``_size_groups``, those of the one-prime rule and of the exact
    charpoly, each integer root has a numeric eigenvalue within the bound,
    and the residual roots sum to the exact coefficient (Vieta), which for a
    decided modulus is trace(B) less its decided roots.  Reading a decided
    residual raises the same way if its charpoly fails a check.
    """
    out = [SpectrumMultiset.from_counter(Counter())] * len(moduli)
    for members, ms, cells, b, tols, values in _size_groups(moduli):
        core = b.shape[1]
        decided = _one_prime_rule(ms, cells, b, values)
        exact = np.flatnonzero(~decided).tolist()
        supports = _supports([cells[k] for k in exact], core)
        polys = iter(
            _naming(char_polys, [ms[k] for k in exact], b[exact], supports) if exact else ()
        )
        traces = np.trace(b, axis1=1, axis2=2).tolist()
        isolated = values.shape[1] - core  # the zero row and column of rad(n)'s cell
        rows = zip(members, ms, cells, traces, values.tolist(), tols.tolist())
        for k, (i, m, cs, trace, vs, tol) in enumerate(rows):
            if decided[k]:
                found = [0, trace] if core == 2 else [0] if core else []
                roots = Counter(found)
                residual = (
                    functools.partial(_decided_residual, m, cs, b[k : k + 1])
                    if core > 2 else IntPoly.one()
                )
                exact_sum = trace - sum(found)
            else:
                pairs, residual = extract_integer_roots(next(polys), map(round, vs))
                roots = Counter(dict(pairs))
                exact_sum = -residual.coeffs[-2] if residual.degree else 0
            roots += Counter({0: isolated})
            out[i] = _split_spectrum(m, cs, sorted(roots.items()), exact_sum, residual, vs, tol)
    return out


def _one_prime_rule(
    ms: Sequence[Modulus], cells: list, b: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per member of one ``_size_groups`` group, with ``_cells``, core
    stack ``b`` (k, w, w) and eigenvalues ``values``: whether the integer
    roots of its core's charpoly are decided without the exact charpoly.

    A core of w <= 2 cells, of a modulus with at most two distinct primes,
    is decided with no charpoly: B 1 = 0, so the core is empty or has the
    roots 0 and trace(B) and no other.  A larger core takes its charpoly p
    modulo one prime q from ``char_polys_mod``, which checks its residues,
    with the supports from ``_ONE_PRIME_STRUCTURED_OMEGA`` distinct primes
    on.  B 1 = 0, so c_0 = 0 mod q is checked too.  Then if c_1 is nonzero
    mod q, 0 is a simple root; and if p(r) is nonzero mod q at every nonzero
    rounded eigenvalue r, the complete list of integer-root candidates while
    tol < 1/2, then 0 is the only integer root, as for rad(n) when the core
    is k * B_rad(n).  A failed check raises ArithmeticError naming the
    modulus.
    """
    w = b.shape[1]
    if w <= 2:
        return np.ones(len(ms), dtype=bool)
    supports = _supports(cells, w) if ms[0].omega >= _ONE_PRIME_STRUCTURED_OMEGA else None
    prime, residues = _naming(char_polys_mod, ms, b, supports)
    _check(ms, [(residues[:, 0] == 0, "constant residue is not 0")])
    return _zero_is_the_only_integer_root(residues, prime, np.rint(values).astype(np.int64))


def g2_residual_degrees(moduli: Sequence[Modulus]) -> list[int]:
    """The residual degree of each modulus's G2 spectrum, as ``g2_spectra``
    gives it, with no ``SpectrumMultiset`` for the moduli the one-prime
    rule decides.

    ``_size_groups`` builds, refuses, solves and checks the quotients as for
    ``g2_spectra``, and ``_one_prime_rule`` decides them; w below is the
    size of their core.  A decided core of w <= 2 cells is integral, and a
    larger one has 0 as its only integer root, so its residual degree is
    w - 1.  The moduli left undecided take one ``g2_spectra`` call.

    Raises ArithmeticError naming the modulus if an invariant of
    ``g2_spectra`` fails, the one-prime checks included.
    """
    degrees = [0] * len(moduli)
    undecided: list[int] = []
    for members, ms, cells, b, _, values in _size_groups(moduli):
        w = b.shape[1]
        decided = _one_prime_rule(ms, cells, b, values)
        for i, one in zip(members, decided.tolist()):
            if not one:
                undecided.append(i)
            elif w > 2:
                degrees[i] = w - 1
    if undecided:
        spectra = g2_spectra([moduli[i] for i in undecided])
        for i, s in zip(undecided, spectra):
            degrees[i] = len(s.residual_values)
    return degrees


def _zero_is_the_only_integer_root(
    residues: np.ndarray, prime: int, candidates: np.ndarray
) -> np.ndarray:
    """Per row of charpoly residues mod ``prime`` (constant term first), with
    p(0) = 0 known: whether c_1 is nonzero mod ``prime`` and p is nonzero mod
    ``prime`` at each nonzero candidate of that row's ``candidates``.

    ``values_mod`` over int64: each product is below prime**2, under 2**63.
    """
    acc = values_mod(residues, candidates % prime, prime)
    return (residues[:, 1] != 0) & ((acc != 0) | (candidates == 0)).all(axis=1)


def _naming(kernel: Callable, ms: Sequence[Modulus], b: np.ndarray, supports: list | None):
    """``kernel(b, supports)``, ``char_polys`` or ``char_polys_mod``, on the
    core stack ``b`` of moduli ``ms``: the one place where a failed
    charpoly check, a CharPolyError, becomes an ArithmeticError naming its
    modulus."""
    try:
        return kernel(b, supports)
    except CharPolyError as exc:
        raise ArithmeticError(f"n={ms[exc.index].n}: {exc.what}") from exc


def _supports(cells: list, core: int) -> list[list[int]]:
    """The prime supports of the ``core`` cells of each row of ``_cells``."""
    return [[c[1] for c in row[:core]] for row in cells]


def _decided_residual(m: Modulus, cells: list, b: np.ndarray) -> IntPoly:
    """The residual of a modulus the one-prime rule decided, with a core
    ``b`` (1, w, w) of w > 2 cells: its exact charpoly divided by x, the
    division checked exact."""
    [p] = _naming(char_polys, [m], b, _supports([cells], b.shape[1]))
    p, remainder = p.divide_linear(0)
    if remainder:
        raise ArithmeticError(f"n={m.n}: decided integer eigenvalue 0 is not a charpoly root")
    return p


def _split_spectrum(
    m: Modulus,
    cells: list,
    roots: list[tuple[int, int]],
    exact_sum: int,
    residual: IntPoly | Callable[[], IntPoly],
    values: list[float],
    tol: float,
) -> SpectrumMultiset:
    """G2 spectrum of one modulus from its ``_cells``, the integer roots of
    its quotient's charpoly as ascending (root, multiplicity) pairs, the
    exact root sum and the residual (or the function that computes it) of
    the rest, its eigenvalues ``values`` (ascending, consumed) and their
    error bound ``tol``."""
    counts: Counter = Counter()
    for _, _, size, deg in cells:
        counts[deg] += size - 1
    for r, mult in roots:
        for _ in range(mult):
            nearest = min(range(len(values)), key=lambda k: abs(values[k] - r))
            if abs(values[nearest] - r) > tol:
                raise ArithmeticError(f"n={m.n}: integer eigenvalue {r} has no numeric match")
            del values[nearest]
        counts[r] += mult
    if abs(math.fsum(values) - exact_sum) > (len(values) + 1) * tol:
        raise ArithmeticError(f"n={m.n}: residual roots disagree with the exact coefficient sum")
    return SpectrumMultiset.from_counter(counts, residual, tuple(values))


def g2_spectrum(m: Modulus) -> SpectrumMultiset:
    """Exact Laplacian spectrum of G2: ``g2_spectra([m])[0]``."""
    return g2_spectra([m])[0]


def full_spectrum(m: Modulus) -> SpectrumMultiset:
    """Exact Laplacian spectrum of the comaximal graph of Z_n.

    {0: 1} and {n: phi(n)} from the join with the unit clique, plus the G2
    spectrum shifted up by phi(n); its residual is shifted
    (``IntPoly.shift_argument``) only when read.  Total multiplicity is n.
    """
    g2 = g2_spectrum(m)
    counts = Counter({0: 1, m.n: m.phi})
    for v, c in g2.integer_part:
        counts[v + m.phi] += c
    return SpectrumMultiset.from_counter(
        counts,
        functools.partial(_shifted_residual, g2, m.phi),
        tuple(v + m.phi for v in g2.residual_values),
    )


def _shifted_residual(g2: SpectrumMultiset, phi: int) -> IntPoly:
    return g2.residual.shift_argument(phi)


def closed_form_spectrum(m: Modulus) -> SpectrumMultiset | None:
    """Closed-form spectrum for n with at most two distinct primes, else None.

    For n = p^alpha the graph is a clique on the phi(n) units joined onto a
    null graph on the n - phi(n) non-units, so the value phi(n) has
    multiplicity n - phi(n) - 1 (zero for prime n, which ``from_counter``
    drops).  For n = p^alpha * q^beta,
    p < q, with t = p^(alpha-1) * q^(beta-1) - 1, G2 is the join of two null
    graphs (the p-pure and q-pure classes, sizes (t+1)(q-1) and (t+1)(p-1))
    plus t isolated vertices.  Entries whose multiplicity vanishes (only
    (t+1)(p-1)-1 when p=2, alpha=beta=1) are dropped.
    """
    n, phi = m.n, m.phi
    if m.omega == 1:
        return SpectrumMultiset.from_counter(Counter({n: phi, phi: n - phi - 1, 0: 1}))
    if m.omega > 2:
        return None
    p, q = m.distinct_primes
    t = n // (p * q) - 1
    counts = Counter()
    counts[n] += phi
    counts[(t + 1) * (p - 1) + phi] += (t + 1) * (q - 1) - 1
    counts[(t + 1) * (q - 1) + phi] += (t + 1) * (p - 1) - 1
    counts[phi] += t + 1
    counts[(t + 1) * (p + q - 2) + phi] += 1
    counts[0] += 1
    return SpectrumMultiset.from_counter(counts)


def spectrum_json_dict(m: Modulus) -> dict:
    """Spectrum rendered as the stable JSON schema."""
    s = full_spectrum(m)
    return {
        "n": m.n,
        "phi": m.phi,
        "integer_eigenvalues": [[v, c] for v, c in s.integer_part],
        "residual_poly": list(s.residual.coeffs) if not s.is_integral else None,
        "laplacian_integral": s.is_integral,
    }

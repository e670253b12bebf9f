import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from comax import polynomial, spectra
from comax.polynomial import IntPoly, char_polys
from comax.ring_divisors import Modulus
from comax.spectra import (
    SpectrumMultiset,
    _cells,
    closed_form_spectrum,
    full_spectrum,
    g2_residual_degrees,
    g2_spectra,
    g2_spectrum,
    spectrum_json_dict,
)
from reference import adjacent, degree


def _undecided(residues, prime, candidates):
    """``spectra._zero_is_the_only_integer_root`` deciding nothing, so that
    every core of three cells or more takes the exact path."""
    return np.zeros(len(residues), dtype=bool)


def _core(n: int) -> np.ndarray:
    """The int64 core of B that the pipeline builds for n (``_size_groups``):
    its cells in ``_cells`` order, less rad(n)'s isolated cell; 0 x 0 for
    prime n."""
    groups = spectra._size_groups([Modulus.of(n)])
    return groups[0][3][0] if groups else np.zeros((0, 0), dtype=np.int64)


def test_g2_quotient_12():
    # cells by prime support: {2, 4, 8, 10} -> 2, {3, 9} -> 3, {6} -> 6 (0 is
    # not in G2); 6's cell meets every support, so it is no row of the core
    assert _cells(Modulus.of(12)) == [(2, 0b01, 4, 2), (3, 0b10, 2, 4), (6, 0b11, 1, 0)]
    assert _core(12).tolist() == [[2, -2], [-4, 4]]


def test_production_quotient_matches_the_definition():
    # every cell against a direct count of x in 1..n-1 by rad(gcd(x, n)); for
    # one vertex x per cell, its neighbours in every other cell against minus
    # the off-diagonal entries of the core of B, and its G2 degree (its degree
    # in the whole graph less the units) against the diagonal; rad(n)'s cell
    # of a non-squarefree n, outside the core, has no neighbour
    for n in range(3, 401):
        m = Modulus.of(n)
        labels = {
            x: math.prod(p for p in m.distinct_primes if math.gcd(x, n) % p == 0)
            for x in range(1, n)
        }
        counts = Counter(labels.values())
        units = counts.pop(1)
        cells = _cells(m)
        assert [(r, size) for r, _, size, _ in cells] == sorted(counts.items()), n
        assert len(cells) <= 2**m.omega - 1
        index = {r: i for i, (r, _, _, _) in enumerate(cells)}
        reps: dict[int, int] = {}
        for x, r in labels.items():
            if r > 1:
                reps.setdefault(r, x)
        want = np.zeros((len(cells), len(cells)), dtype=np.int64)
        for r, x in reps.items():
            near = Counter(t for y, t in labels.items() if t > 1 and adjacent(n, x, y))
            assert near[r] == 0, (n, x)  # each cell is a null graph
            assert sum(near.values()) == degree(n, x) - units, (n, x)
            for t, k in near.items():
                want[index[r], index[t]] = -k
            want[index[r], index[r]] = degree(n, x) - units
        assert np.diag(want).tolist() == [deg for _, _, _, deg in cells], n
        core = _core(n)
        k = len(core)
        assert k == len(cells) - (not m.is_squarefree), n
        assert np.array_equal(core, want[:k, :k]), n
        assert not want[k:].any() and not want[:, k:].any(), n
    assert len(_cells(Modulus.of(55440))) == 31
    assert len(_cells(Modulus.of(720720))) == 63


@pytest.mark.parametrize("p, a", [(3, 700), (2, 100)])
def test_prime_power_beyond_float_range_has_its_closed_form(p, a):
    # one cell, of size p^(a-1) - 1 (past the float range at 3^700), and
    # no neighbour in G2: the size must not enter a float or int64 array
    m = Modulus.of(p**a)
    assert _cells(m) == [(p, 1, p ** (a - 1) - 1, 0)]
    assert _core(p**a).shape == (0, 0)
    assert full_spectrum(m) == closed_form_spectrum(m)
    assert g2_residual_degrees([m]) == [0]


def test_g2_quotient_prime_is_empty():
    m = Modulus.of(7)
    assert _cells(m) == []
    assert spectra._size_groups([m]) == []
    assert char_polys([()]) == [IntPoly.one()]


def test_g2_quotient_pqr_closed_formulas():
    # class degrees and sizes for n = p*q*r: N_p=(p-1)(q+r-1) etc.,
    # sizes |A_p|=(q-1)(r-1), |A_pq|=r-1 etc.
    for p, q, r in [(2, 3, 5), (3, 5, 7)]:
        n = p * q * r
        cells = _cells(Modulus.of(n))
        diag = {d: deg for d, _, _, deg in cells}
        size = {d: k for d, _, k, _ in cells}
        assert diag[p] == (p - 1) * (q + r - 1)
        assert diag[q] == (q - 1) * (p + r - 1)
        assert diag[r] == (r - 1) * (p + q - 1)
        # the degree of class p is the total size of its coprime cells
        b = _core(n)
        row = [d for d, _, _, _ in cells].index(p)
        assert b[row, row] == diag[p]
        assert -(b[row].sum() - b[row, row]) == diag[p]
        assert diag[p * q] == (p - 1) * (q - 1)
        assert diag[p * r] == (p - 1) * (r - 1)
        assert diag[q * r] == (q - 1) * (r - 1)
        assert size[p] == (q - 1) * (r - 1)
        assert size[q] == (p - 1) * (r - 1)
        assert size[r] == (p - 1) * (q - 1)
        assert size[p * q] == r - 1
        assert size[p * r] == q - 1
        assert size[q * r] == p - 1


def test_g2_quotient_30_diagonal():
    # direct class computation: N_5 = |A_2| + |A_3| + |A_6| = 8 + 4 + 4 = 16
    cells = _cells(Modulus.of(30))
    assert [r for r, _, _, _ in cells] == [2, 3, 5, 6, 10, 15]
    assert [deg for _, _, _, deg in cells] == [7, 12, 16, 2, 4, 8]
    assert np.diag(_core(30)).tolist() == [7, 12, 16, 2, 4, 8]


def test_quotient_row_identity():
    for n in range(4, 200):
        assert not _core(n).sum(axis=1).any(), n


def test_g2_spectrum_examples():
    assert g2_spectrum(Modulus.of(12)).as_counter() == Counter(
        {0: 2, 2: 3, 4: 1, 6: 1}
    )
    s7 = g2_spectrum(Modulus.of(7))
    assert s7.integer_part == () and s7.size == 0

    # n = p*q: join of two null graphs
    for p, q in [(2, 3), (3, 5), (5, 7)]:
        s = g2_spectrum(Modulus.of(p * q))
        assert s.as_counter() == Counter(
            {0: 1, p - 1: q - 2, q - 1: p - 2, p + q - 2: 1}
        )


def test_g2_spectrum_size():
    for n in range(3, 200):
        m = Modulus.of(n)
        assert g2_spectrum(m).size == n - m.phi - 1


def test_full_spectrum_examples():
    assert full_spectrum(Modulus.of(5)).as_counter() == Counter({5: 4, 0: 1})
    assert full_spectrum(Modulus.of(4)).as_counter() == Counter({4: 2, 2: 1, 0: 1})
    assert full_spectrum(Modulus.of(12)).as_counter() == Counter(
        {12: 4, 10: 1, 8: 1, 6: 3, 4: 2, 0: 1}
    )
    assert full_spectrum(Modulus.of(12)).integer_part == (
        (12, 4),
        (10, 1),
        (8, 1),
        (6, 3),
        (4, 2),
        (0, 1),
    )


def test_full_spectrum_bookkeeping():
    for n in range(3, 200):
        s = full_spectrum(Modulus.of(n))
        assert s.size == n
        assert s.multiplicity_of(0) == 1  # connected graph
        assert all(v >= 0 for v, _ in s.integer_part)


def test_full_spectrum_trace_matches_degree_sum():
    for n in (6, 12, 15, 30, 45):
        m = Modulus.of(n)
        s = full_spectrum(m)
        trace = sum(v * c for v, c in s.integer_part) + round(
            sum(s.residual_values)
        )
        assert trace == sum(degree(n, x) for x in range(n))


def test_quotient_spectrum_matches_symmetric_form():
    # B is a diagonal similarity of the symmetric quotient M with entries
    # -sqrt(size_i * size_j); their spectra must coincide
    for n in range(4, 201):
        cells = _cells(Modulus.of(n))
        w = len(cells)
        if w == 0:
            continue
        # M over all w cells: rad(n)'s cell, outside the core, is a zero row
        b = _core(n)
        k = len(b)
        sizes = np.array([size for _, _, size, _ in cells], dtype=float)
        mat = np.zeros((w, w))
        mat[:k, :k] = np.where(b != 0, -np.sqrt(np.outer(sizes[:k], sizes[:k])), 0.0)
        mat[range(w), range(w)] = [deg for _, _, _, deg in cells]
        sym_eigs = np.linalg.eigvalsh(mat)
        s = g2_spectrum(Modulus.of(n))
        quotient_roots = sorted(
            [float(v) for v, c in s.integer_part for _ in range(c)]
            + list(s.residual_values)
        )
        # remove the class-branch eigenvalues, keeping only quotient roots
        class_part = Counter()
        for _, _, size, deg in cells:
            if size - 1 > 0:
                class_part[deg] += size - 1
        for v, c in class_part.items():
            for _ in range(c):
                quotient_roots.remove(
                    min(quotient_roots, key=lambda t: abs(t - v))
                )
        assert len(quotient_roots) == w
        assert max(
            abs(a - b) for a, b in zip(sorted(quotient_roots), sym_eigs)
        ) < 1e-7, n


def closed_form_counter(n: int) -> Counter:
    return closed_form_spectrum(Modulus.of(n)).as_counter()


def test_closed_form_prime():
    assert closed_form_counter(3) == Counter({3: 2, 0: 1})
    assert closed_form_counter(5) == Counter({5: 4, 0: 1})
    assert closed_form_counter(13) == Counter({13: 12, 0: 1})


def test_closed_form_prime_power():
    assert closed_form_counter(4) == Counter({4: 2, 2: 1, 0: 1})
    assert closed_form_counter(9) == Counter({9: 6, 6: 2, 0: 1})
    assert closed_form_counter(8) == Counter({8: 4, 4: 3, 0: 1})


def test_closed_form_two_primes():
    assert closed_form_counter(6) == Counter({6: 2, 5: 1, 3: 1, 2: 1, 0: 1})
    assert closed_form_counter(12) == full_spectrum(Modulus.of(12)).as_counter()
    # n = 15: trace must equal the degree sum (184), pinning the top value 14
    s15 = closed_form_spectrum(Modulus.of(15))
    assert s15.as_counter() == Counter({15: 8, 14: 1, 12: 1, 10: 3, 8: 1, 0: 1})
    assert sum(v * c for v, c in s15.integer_part) == sum(
        degree(15, x) for x in range(15)
    )
    # three or more distinct primes have no closed form
    assert closed_form_spectrum(Modulus.of(30)) is None


def test_laplacian_integral_examples():
    assert full_spectrum(Modulus.of(72)).is_integral
    assert full_spectrum(Modulus.of(11)).is_integral
    # exploratory: recorded, not asserted from a formula; consistency checked
    s30 = full_spectrum(Modulus.of(30))
    assert s30.is_integral == (s30.residual.degree == 0)


def test_residual_has_no_integer_roots():
    for n in (30, 60, 210, 105):
        s = full_spectrum(Modulus.of(n))
        if s.is_integral:
            continue
        res = s.residual
        assert res.is_monic
        for cand in range(0, n + 1):
            assert res(cand) != 0


def test_g2_char_poly_degree_and_shift():
    for n in (6, 12, 30, 45):
        m = Modulus.of(n)
        gp = g2_spectrum(m).polynomial()
        assert gp.degree == n - m.phi - 1
        fp = full_spectrum(m).polynomial()
        assert fp.degree == n
        assert fp.is_monic
        # join formula evaluated at a point
        x = 101
        assert fp(x) == x * (x - n) ** m.phi * gp(x - m.phi)


def test_residual_roots_beyond_small_range():
    # n = 210 has a degree-13 residual shifted by phi = 48; the expanded
    # spectrum must still match the dense eigensolver tightly
    import comax.oracle as oracle

    m = Modulus.of(210)
    ours = full_spectrum(m).values_ascending()
    dense = oracle.dense_spectrum(m)
    assert max(abs(a - b) for a, b in zip(ours, dense)) < 1e-9


def test_spectrum_helpers():
    s = full_spectrum(Modulus.of(12))
    assert s.second_smallest() == 4
    assert s.largest_below_radius() == 10
    assert s.multiplicity_of(6) == 3
    assert s.multiplicity_of(7) == 0
    prime = full_spectrum(Modulus.of(7))
    assert prime.second_smallest() == 7  # complete graph


def test_spectrum_json_schema():
    m = Modulus.of(12)
    d = spectrum_json_dict(m)
    assert d == {
        "n": 12,
        "phi": 4,
        "integer_eigenvalues": [[12, 4], [10, 1], [8, 1], [6, 3], [4, 2], [0, 1]],
        "residual_poly": None,
        "laplacian_integral": True,
    }
    d30 = spectrum_json_dict(Modulus.of(30))
    assert d30["laplacian_integral"] is False
    assert d30["residual_poly"][-1] == 1  # monic, constant term first
    assert len(d30["residual_poly"]) == 5


def test_g2_spectra_match_one_modulus_at_a_time():
    moduli = [Modulus.of(n) for n in [*range(3, 2001), 30030, 510510, 720720, 999999]]
    for m, batched in zip(moduli, g2_spectra(moduli), strict=True):
        alone = g2_spectrum(m)
        assert batched.integer_part == alone.integer_part, m.n
        assert batched.residual == alone.residual, m.n
        cells = _cells(m)
        tol = len(cells) * 2 * max((c[3] for c in cells), default=0) * np.finfo(float).eps
        assert len(batched.residual_values) == len(alone.residual_values), m.n
        for a, b in zip(batched.residual_values, alone.residual_values):
            assert abs(a - b) <= tol, m.n


# the ladder moduli of the benchmark at seeds 0 and 1
LADDER = (2310, 5040, 15120, 30030, 2730, 5460, 16380, 39270)


def test_decided_spectra_match_the_exact_path(monkeypatch):
    # the reference decides nothing, so every modulus, the empty and two-cell
    # cores that never reach _zero_is_the_only_integer_root included, takes
    # the exact path through the structured kernel
    moduli = [Modulus.of(n) for n in [*range(3, 5001), *LADDER, 510510, 720720, 1021020]]
    decided = []
    rule = spectra._one_prime_rule

    def recording(ms, cells, b, values):
        out = rule(ms, cells, b, values)
        decided.extend(out.tolist())
        return out

    monkeypatch.setattr(spectra, "_one_prime_rule", recording)
    ours = g2_spectra(moduli)
    monkeypatch.setattr(
        spectra, "_one_prime_rule", lambda ms, cells, b, values: np.zeros(len(ms), dtype=bool)
    )
    exact = g2_spectra(moduli)
    assert all(isinstance(s._residual, IntPoly) for s in exact)
    for m, a, b in zip(moduli, ours, exact, strict=True):
        assert a.integer_part == b.integer_part, m.n
        assert a.residual_values == b.residual_values, m.n
        assert a.residual == b.residual, m.n
        assert a.size == b.size and a.is_integral == b.is_integral, m.n
    # all but the primes (no quotient) and the 49 moduli of radical 30 or 255
    primes = sum(m.is_prime for m in moduli)
    assert sum(decided) == len(moduli) - primes - 49


def test_non_squarefree_spectrum_is_that_of_its_radical():
    # k = n / rad(n) > 1: the G2 quotient of n is k * B_rad(n) plus an
    # isolated zero cell, so the residual of n is k^d * p_rad(x / k); the scan
    # fills every non-squarefree row from rad(n) on this identity
    checked = 0
    for n in range(3, 3001):
        m = Modulus.of(n)
        if m.is_squarefree or m.radical < 3:
            continue
        k = n // m.radical
        ours = g2_spectrum(m)
        rad = g2_spectrum(Modulus.of(m.radical))
        d = rad.residual.degree
        scaled = tuple(c * k ** (d - i) for i, c in enumerate(rad.residual.coeffs))
        assert ours.residual.coeffs == scaled, n
        assert ours.residual.degree == d, n
        assert ours.is_integral == rad.is_integral, n
        checked += 1
    assert checked == 1166


def test_undecided_spectra_divide_once_by_each_candidate_that_is_no_root(monkeypatch):
    divided, split = [], []
    divide, extract = IntPoly.divide_linear, spectra.extract_integer_roots

    def recording_divide(self, r):
        divided.append(r)
        return divide(self, r)

    def recording_extract(p, candidates):
        candidates = set(candidates)
        roots, residual = extract(p, candidates)
        split.append((candidates, {r for r, _ in roots}))
        return roots, residual

    monkeypatch.setattr(IntPoly, "divide_linear", recording_divide)
    monkeypatch.setattr(spectra, "extract_integer_roots", recording_extract)
    # the one-prime rule decides 30030; undecided, it takes the exact path
    monkeypatch.setattr(spectra, "_zero_is_the_only_integer_root", _undecided)
    g2_spectrum(Modulus.of(30030))
    [(candidates, roots)] = split
    assert len(candidates - roots) > 10
    assert set(divided) == candidates
    assert all(divided.count(r) == 1 for r in candidates - roots)


def test_g2_spectra_names_the_modulus_whose_charpoly_fails(monkeypatch):
    # a zero start vector leaves every structured row incomplete, so the core
    # of 30 takes the dense fallback, which fails its check
    kernel = polynomial._char_poly_mod
    w30 = len(_core(30))

    def off_by_one_trace(h, mods):
        out = kernel(h, mods)
        if h.shape[1] == w30:
            out[:, -2] = (out[:, -2] + 1) % mods
        return out

    monkeypatch.setattr(polynomial, "_char_poly_mod", off_by_one_trace)
    monkeypatch.setattr(polynomial, "_projections", lambda size: np.zeros(size, dtype=np.int64))
    with pytest.raises(ArithmeticError, match=r"^n=30: x\^\(w-1\) coefficient"):
        g2_spectra([Modulus.of(n) for n in (12, 29, 30, 36)])


def test_every_exact_charpoly_takes_the_structured_kernel(monkeypatch):
    # no core in 3..5000 leaves the structured kernel incomplete, so no
    # residual read reaches the dense kernel; a core of at most two cells
    # (omega <= 2) takes no kernel, and the one-prime rule takes power traces
    hessenberg, structured = [], []
    real_hessenberg, real_structured = polynomial._char_poly_mod, spectra.char_polys

    def recording_hessenberg(h, mods):
        hessenberg.append(h.shape[1])
        return real_hessenberg(h, mods)

    def recording_structured(stack, supports):
        structured.append(np.shape(stack)[1])
        return real_structured(stack, supports)

    monkeypatch.setattr(polynomial, "_char_poly_mod", recording_hessenberg)
    monkeypatch.setattr(spectra, "char_polys", recording_structured)
    moduli = [Modulus.of(n) for n in range(3, 5001)]
    for s in g2_spectra(moduli):
        s.residual
    assert hessenberg == []
    assert set(structured) == {6, 14, 30}
    # one call per decided core; the 49 undecided moduli, of radical 30 or
    # 255, take one call per size group, squarefree and not
    assert len(structured) == sum(m.omega >= 3 for m in moduli) - 47


def test_structured_kernel_equals_the_dense_one_on_every_core_to_5000(monkeypatch):
    # every core of three cells or more in 3..5000 (omega = 3..5), stacked
    # as the pipeline stacks them, with no row left to the dense fallback
    dense = []
    real = polynomial._residues

    def recording(stack, primes, rows):
        dense.extend(rows.tolist())
        return real(stack, primes, rows)

    cores = 0
    for _, _, cells, b, _, _ in spectra._size_groups([Modulus.of(n) for n in range(3, 5001)]):
        w = b.shape[1]
        if w > 2:
            want = char_polys(b)
            with monkeypatch.context() as patched:
                patched.setattr(polynomial, "_residues", recording)
                assert char_polys(b, spectra._supports(cells, w)) == want, w
            cores += len(b)
    assert cores == 2101
    assert not dense


def test_structured_kernel_falls_back_to_the_dense_one_unchanged(monkeypatch):
    # a zero start vector makes every Krylov sequence 0: Berlekamp-Massey returns
    # the generator 1, of degree 0 < w, so each modulus takes the dense kernel
    # each modulus is decided; its residual, taken on the first read, is the
    # structured kernel's, and the one-prime rule's dense run modulo one
    # prime comes before the recorder
    moduli = [Modulus.of(n) for n in (30030, 39270, 60060)]
    want = g2_spectra(moduli)
    for s in want:
        s.residual
    calls = []
    kernel = polynomial._char_poly_mod

    def recording(h, mods):
        calls.append(h.shape[1])
        return kernel(h, mods)

    got = g2_spectra(moduli)
    monkeypatch.setattr(polynomial, "_char_poly_mod", recording)
    assert got == want
    assert not calls
    monkeypatch.setattr(polynomial, "_projections", lambda size: np.zeros(size, dtype=np.int64))
    got = g2_spectra(moduli)
    calls.clear()
    assert got == want
    assert set(calls) == {62}


def test_g2_spectra_names_the_modulus_whose_structured_charpoly_fails(monkeypatch):
    # 30 is undecided and takes its charpoly at once; 39270 is decided and
    # takes it when its residual is read; 42 and 30030, 43890 share their sizes
    residues = polynomial._structured_residues
    moduli = [Modulus.of(k) for k in (12, 29, 30, 36, 42, 30030, 39270, 43890)]
    for n in (30, 39270):
        b = _core(n)

        def off_by_one_trace(stack, supports, primes, b=b):
            out = residues(stack, supports, primes)
            c = len(primes)
            for i, m in enumerate(stack):
                if np.array_equal(m, b):
                    rows = slice(i * c, (i + 1) * c)
                    out[rows, -2] = (out[rows, -2] + 1) % np.array(primes)
            return out

        monkeypatch.setattr(polynomial, "_structured_residues", off_by_one_trace)
        with pytest.raises(ArithmeticError, match=rf"^n={n}: x\^\(w-1\) coefficient"):
            for s in g2_spectra(moduli):
                s.residual


def test_g2_spectrum_refuses_a_quotient_before_its_charpoly(monkeypatch):
    # 3 * 2**70: w * ||B||_inf * eps is far above 1/2, so no charpoly is computed
    def no_kernel(*matrices_and_supports):
        raise AssertionError("a charpoly kernel ran on a refused quotient")

    monkeypatch.setattr(spectra, "char_polys_mod", no_kernel)
    monkeypatch.setattr(spectra, "char_polys", no_kernel)
    n = 3 * 2**70
    with pytest.raises(ArithmeticError, match=rf"^n={n}: eigensolver error bound .* cannot separate"):
        g2_spectrum(Modulus.of(n))
    with pytest.raises(ArithmeticError, match=rf"^n={n}: eigensolver error bound .* cannot separate"):
        g2_residual_degrees([Modulus.of(30), Modulus.of(n)])


# (t + 1)(2t + 1)(4t^2 + 1) with all three factors prime: the quotient has
# the integer eigenvalue 4t^3 besides 0, so the one-prime rule cannot decide it
FAMILY_TS = (1, 2, 18, 78, 198, 210)


def test_g2_residual_degrees_match_g2_spectrum():
    moduli = [
        m for m in map(Modulus.of, range(3, 5001)) if m.is_squarefree and m.omega > 1
    ]
    family = [Modulus.of((t + 1) * (2 * t + 1) * (4 * t * t + 1)) for t in FAMILY_TS]
    assert all(m.omega == 3 for m in family)
    non_squarefree = [m for m in map(Modulus.of, range(3, 5001)) if not m.is_squarefree]
    assert len(non_squarefree) == 1958
    for batch in (moduli, family, non_squarefree):
        want = [g2_spectrum(m).residual.degree for m in batch]
        assert g2_residual_degrees(batch) == want
    assert g2_residual_degrees(family) == [4] * len(FAMILY_TS)
    assert g2_residual_degrees([]) == []
    # prime, prime-power and non-squarefree moduli too
    others = [Modulus.of(n) for n in (3, 4, 8, 9, 12, 60, 210, 420, 2310, 4620)]
    assert g2_residual_degrees(others) == [g2_spectrum(m).residual.degree for m in others]


def test_one_prime_rule_leaves_only_the_family_to_the_full_path(monkeypatch):
    full = []
    real = spectra.g2_spectra

    def recording(moduli):
        full.extend(m.n for m in moduli if m.omega >= 3)
        return real(moduli)

    monkeypatch.setattr(spectra, "g2_spectra", recording)
    # the scan's moduli
    g2_residual_degrees([m for m in map(Modulus.of, range(3, 5001)) if m.is_squarefree])
    assert sorted(full) == [30, 255]


def test_one_prime_rule_sends_a_non_squarefree_core_as_it_sends_its_radical(monkeypatch):
    # the core of n is k * B_rad(n), and the cell of rad(n) stays out of it:
    # a non-squarefree n takes the full path exactly when rad(n) does
    full = []
    real = spectra.g2_spectra

    def recording(moduli):
        full.extend(m.n for m in moduli)
        return real(moduli)

    monkeypatch.setattr(spectra, "g2_spectra", recording)
    g2_residual_degrees([m for m in map(Modulus.of, range(3, 5001)) if not m.is_squarefree])
    want = [
        m.n for m in map(Modulus.of, range(3, 5001)) if not m.is_squarefree and m.radical in (30, 255)
    ]
    assert len(want) == 47
    assert sorted(full) == want


def test_the_cell_of_rad_n_is_a_zero_row_of_m_and_no_row_of_the_kernels(monkeypatch):
    # eigvalsh sees all w cells, rad(n)'s as a zero last row and column, so
    # its input and the printed floats stay as they were; the exact kernels
    # see only the w - 1 cells of the core
    solved, kernels = [], []
    real_eigvalsh = np.linalg.eigvalsh
    structured = spectra.char_polys

    def recording_eigvalsh(stack):
        solved.append(np.array(stack))
        return real_eigvalsh(stack)

    def recording_structured(stack, supports):
        kernels.append(np.shape(stack))
        return structured(stack, supports)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(spectra, "char_polys", recording_structured)
    for n in (84, 5040, 720720):
        m = Modulus.of(n)
        w = len(spectra._cells(m))
        solved.clear()
        kernels.clear()
        g2_spectrum(m).residual  # each is decided, and its charpoly taken on this read
        [stack] = solved
        assert stack.shape == (1, w, w), n
        assert not stack[:, -1].any() and not stack[:, :, -1].any(), n
        assert kernels == [(1, w - 1, w - 1)], n


def test_at_most_two_primes_take_no_charpoly(monkeypatch):
    # B 1 = 0: the core of B is empty, [[0]] or a 2 x 2 block with
    # eigenvalues 0 and trace(B); every degree is 0
    def no_charpoly(*args):
        raise AssertionError("a quotient with at most two primes took a charpoly")

    moduli = [m for m in map(Modulus.of, range(3, 5001)) if m.omega <= 2]
    assert {m.omega for m in moduli} == {1, 2}
    assert any(m.omega == 2 and not m.is_squarefree for m in moduli)
    want = [g2_spectrum(m).residual.degree for m in moduli]
    assert want == [0] * len(moduli)
    monkeypatch.setattr(spectra, "char_polys_mod", no_charpoly)
    monkeypatch.setattr(spectra, "g2_spectra", no_charpoly)
    assert g2_residual_degrees(moduli) == want


ENTRY_POINTS = (g2_spectra, g2_residual_degrees)


@pytest.mark.parametrize(
    "column, what",
    [
        (6, "not monic"),
        (5, r"x\^\(w-1\) residue is not -trace"),
        (0, "constant residue is not 0"),
    ],
)
def test_one_prime_rule_names_the_modulus_whose_residue_fails(monkeypatch, column, what):
    # a residue of 42 moved inside Newton's identities meets the checks of
    # char_polys_mod; a constant residue moved after it, the rule's own
    b42 = _core(42)
    if column:
        real = polynomial._newton

        def corrupted(sums, q):
            residues = real(sums, q)
            at = sums[:, 1] == np.trace(b42) % q  # s_1 = trace(B)
            assert at.sum() == 1
            residues[at, column] = (residues[at, column] + 1) % q
            return residues

        monkeypatch.setattr(polynomial, "_newton", corrupted)
    else:
        real = spectra.char_polys_mod

        def corrupted(stack, supports):
            q, residues = real(stack, supports)
            at = np.array([np.array_equal(b, b42) for b in stack])
            residues[at, 0] = (residues[at, 0] + 1) % q
            return q, residues

        monkeypatch.setattr(spectra, "char_polys_mod", corrupted)
    for entry in ENTRY_POINTS:
        with pytest.raises(ArithmeticError, match=rf"^n=42: .*{what}"):
            entry([Modulus.of(n) for n in (12, 29, 30, 42, 66)])


def test_one_prime_rule_checks_the_power_sums_by_cayley_hamilton(monkeypatch):
    # Newton's identities make every residue monic with c_(w-1) = -s_1, so a
    # wrong power sum s_(w+1), which they do not read, meets only this check
    real = polynomial._power_sums
    b42 = _core(42)

    def corrupted(h, q, m):
        sums = real(h, q, m)
        at = np.array([np.array_equal(b, b42 % q) for b in h])
        sums[at, -1] = (sums[at, -1] + 1) % q
        return sums

    monkeypatch.setattr(polynomial, "_power_sums", corrupted)
    for entry in ENTRY_POINTS:
        with pytest.raises(ArithmeticError, match=r"^n=42: power sums break Cayley-Hamilton"):
            entry([Modulus.of(n) for n in (12, 29, 30, 42, 66)])


def test_one_prime_rule_names_the_modulus_whose_structured_residue_fails(monkeypatch):
    # from eight primes on, the decision takes the structured kernel at one
    # prime, whose residues char_polys_mod checks as it checks power traces;
    # the exact charpoly of 30, also from the structured kernel, is left alone
    real = polynomial._structured_residues

    def corrupted(stack, supports, primes):
        residues = real(stack, supports, primes)
        if stack.shape[1] == 254:
            residues[:, -2] = (residues[:, -2] + 1) % primes[0]
        return residues

    monkeypatch.setattr(polynomial, "_structured_residues", corrupted)
    for entry in ENTRY_POINTS:
        with pytest.raises(ArithmeticError, match=r"^n=9699690: x\^\(w-1\) residue is not -trace"):
            entry([Modulus.of(n) for n in (30, 30030, 9699690)])


@pytest.mark.parametrize("n", [42, 2310, 30030])
def test_a_corrupted_product_of_the_power_trace_kernel_names_its_modulus(monkeypatch, n):
    # one wrong entry in the last matrix product of the kernel's run for n
    real = polynomial._product_mod
    calls = []

    def recording(a, b, q):
        calls.append(1)
        return real(a, b, q)

    monkeypatch.setattr(polynomial, "_product_mod", recording)
    g2_residual_degrees([Modulus.of(n)])
    last = len(calls)
    calls.clear()

    def corrupted(a, b, q):
        out = recording(a, b, q)
        if len(calls) == last:
            out[:, 0, 0] = (out[:, 0, 0] + 1) % q
        return out

    monkeypatch.setattr(polynomial, "_product_mod", corrupted)
    with pytest.raises(ArithmeticError, match=rf"^n={n}: "):
        g2_residual_degrees([Modulus.of(n)])


def test_one_prime_rule_routes_by_omega(monkeypatch):
    # below eight primes the decision takes power traces and never the
    # Hessenberg kernel; from eight on, the structured kernel at one prime,
    # with the Hessenberg kernel at that prime for a row it leaves incomplete
    hessenberg, structured = [], []
    real_hessenberg, real_structured = polynomial._char_poly_mod, polynomial._structured_residues

    def recording_hessenberg(h, mods):
        hessenberg.append(mods.tolist())
        return real_hessenberg(h, mods)

    def recording_structured(stack, supports, primes):
        structured.append(list(primes))
        return real_structured(stack, supports, primes)

    monkeypatch.setattr(polynomial, "_char_poly_mod", recording_hessenberg)
    monkeypatch.setattr(polynomial, "_structured_residues", recording_structured)
    small = [Modulus.of(n) for n in (42, 2310, 5040, 30030, 510510, 1021020)]
    assert {m.omega for m in small} == {3, 4, 5, 6, 7}
    degrees = g2_residual_degrees(small)
    for s in g2_spectra(small):
        assert not isinstance(s._residual, IntPoly)  # decided, no exact charpoly
    assert (hessenberg, structured) == ([], [])
    assert degrees == [5, 29, 13, 61, 125, 125]

    q = polynomial._word_primes(255, 1)[0]  # the first prime at w = 254
    big = Modulus.of(9699690)
    assert g2_residual_degrees([big]) == [253]
    assert (hessenberg, structured) == ([], [[q]])
    structured.clear()
    # a zero start vector leaves every row incomplete
    monkeypatch.setattr(polynomial, "_projections", lambda size: np.zeros(size, dtype=np.int64))
    assert g2_residual_degrees([big]) == [253]
    assert structured == [[q]]
    assert hessenberg and all(mods == [q] for mods in hessenberg)


@pytest.mark.parametrize(
    "index, by, what",
    [
        (0, -1.0, r"eigenvalue outside \[0, n - phi\(n\) - 1\]"),
        (3, 0.1, "eigenvalues disagree with the trace"),
    ],
)
def test_one_prime_rule_names_the_modulus_whose_eigenvalues_fail(monkeypatch, index, by, what):
    # the eigenvalue checks run for every modulus, on the scan and spectrum
    # paths, also for the w = 2 quotient of 15 that the scan decides without
    # a charpoly; its top eigenvalue is n - phi(n) - 1, so only 0 moves there
    real = np.linalg.eigvalsh
    moduli = [Modulus.of(n) for n in (12, 15, 29, 30, 42, 66)]
    for n, at in ((42, index), (15, 0)):
        diag = [deg for _, _, _, deg in _cells(Modulus.of(n))]

        def moved(stack):
            values = real(stack)
            for i, m in enumerate(stack):
                if np.array_equal(np.diag(m), diag):
                    values[i, at] += by
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", moved)
        with pytest.raises(ArithmeticError, match=rf"^n={n}: {what}"):
            g2_residual_degrees(moduli)
        with pytest.raises(ArithmeticError, match=rf"^n={n}: {what}"):
            g2_spectra(moduli)


def test_full_spectrum_rejects_small_n():
    with pytest.raises(ValueError):
        Modulus.of(2)


def test_spectrum_multiset_from_counter_drops_zero_counts():
    s = SpectrumMultiset.from_counter(Counter({4: 2, 3: 0, 0: 1}))
    assert s.integer_part == ((4, 2), (0, 1))


def totient(n: int) -> int:
    """Euler's totient by counting units, independent of ``Modulus``."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@functools.cache
def _spectrum_of(n: int):
    return full_spectrum(Modulus.of(n))


def _symmetric_quotient_spectrum(n: int) -> np.ndarray:
    """All n eigenvalues, ascending, rebuilt from the divisors alone: 0, n
    with multiplicity phi(n), each class degree plus phi(n) with multiplicity
    (class size - 1), and eigvalsh of the symmetric quotient
    (S_ij = -sqrt(size_i * size_j) for coprime divisors) plus phi(n)."""
    phi = totient(n)
    ds = [d for d in range(2, n) if n % d == 0]
    sizes = [totient(n // d) for d in ds]
    sym = np.zeros((len(ds), len(ds)))
    for i, j in itertools.permutations(range(len(ds)), 2):
        if math.gcd(ds[i], ds[j]) == 1:
            sym[i, j] = -math.sqrt(sizes[i] * sizes[j])
            sym[i, i] += sizes[j]
    values = [0.0] + [float(n)] * phi
    for i, size in enumerate(sizes):
        values += [sym[i, i] + phi] * (size - 1)
    return np.sort(np.concatenate([values, np.linalg.eigvalsh(sym) + phi]))


@pytest.mark.parametrize("n", [2310, 30030])
def test_residual_roots_match_symmetric_quotient_at_scale(n):
    s = _spectrum_of(n)
    ours = np.array(s.values_ascending())
    assert np.max(np.abs(ours - _symmetric_quotient_spectrum(n))) < 1e-6
    assert len(s.residual_values) == s.residual.degree > 0


def test_every_eigenvalue_within_laplacian_range():
    values = _spectrum_of(30030).values_ascending()
    assert len(values) == 30030
    assert 0 <= values[0] and values[-1] <= 30030

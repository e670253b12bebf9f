"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all).  The checks cover the full stated ranges.  Three laws are stated only
away from a boundary: the algebraic-connectivity equality for composite n
(at prime n the graph is complete), and the phi-multiplicity and
component-count laws for n with at least two distinct primes (at prime
powers G2 is a null graph).  Those checks assert the law where it is stated
and the exact boundary value at every boundary n in the same range, and they
count the boundary cases, so a regression in either direction fails.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

from comax.comax_graph import AdjacencyRows, g2_vertices
from comax.connectivity import phi_multiplicity, radius_multiplicity
from comax.oracle import (
    block_power_sums,
    count_components,
    dense_spectrum,
    g2_classes,
    twin_split,
    vertex_cut,
)
from comax.ring_divisors import Modulus
from comax.spectra import (
    _size_groups,
    closed_form_spectrum,
    full_spectrum,
)
from reference import expanded

TOL = 1e-6


def totient(n: int) -> int:
    """Euler's totient by counting units, independent of ``Modulus``."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def report(name: str, violations: list, elapsed: float, budget: float | None):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    budget_txt = f", budget {budget:.0f}s" if budget else ""
    print(f"[{name}] {status} ({elapsed:.1f}s{budget_txt})")
    if violations:
        shown = ", ".join(str(v) for v in violations[:8])
        more = "" if len(violations) <= 8 else f" ... and {len(violations) - 8} more"
        print(f"    violations: {shown}{more}")
    assert not violations, f"{name}: {violations[:8]}"
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_quotient_spectrum_matches_dense_oracle():
    start = time.monotonic()
    violations = []
    for n in range(3, 201):
        m = Modulus.of(n)
        ours = full_spectrum(m).values_ascending()
        dense = dense_spectrum(m)
        if len(ours) != n:
            violations.append((n, "size"))
            continue
        worst = max(abs(a - b) for a, b in zip(ours, dense))
        if worst > TOL:
            violations.append((n, worst))
    report(
        "C1 oracle agreement 3..200 @1e-6",
        violations,
        time.monotonic() - start,
        60,
    )


def test_criterion_02_join_identity_bit_exact():
    start = time.monotonic()
    violations = []
    for n in range(3, 65):
        m = Modulus.of(n)
        if expanded(*block_power_sums(m)) != full_spectrum(m).polynomial():
            violations.append(n)
    report(
        "C2 charpoly join identity 3..64 bit-exact",
        violations,
        time.monotonic() - start,
        30,
    )


def test_criterion_03_closed_forms_to_2000():
    start = time.monotonic()
    violations = []
    checked = 0
    for n in range(3, 2001):
        m = Modulus.of(n)
        if m.omega > 2:
            continue
        checked += 1
        expected = closed_form_spectrum(m)
        actual = full_spectrum(m)
        if actual.as_counter() != expected.as_counter():
            violations.append(n)
        if not actual.is_integral:
            violations.append((n, "not integral"))
    assert checked > 1200
    report(
        "C3 closed forms p, p^m, p^a*q^b <= 2000",
        violations,
        time.monotonic() - start,
        60,
    )


def test_criterion_04_connectivity_equalities():
    # kappa = phi(n) holds for every n (kappa(K_n) = n - 1 by convention at
    # primes).  lambda_2 = phi(n) is stated for the non-complete graphs,
    # i.e. composite n; at prime n the graph is K_n, whose second-smallest
    # eigenvalue is exactly n.
    start = time.monotonic()
    violations = []
    primes = 0
    for n in range(3, 257):
        m = Modulus.of(n)
        adj = AdjacencyRows(m, range(n))[:]
        cut = vertex_cut(twin_split(m).classes)
        lam = full_spectrum(m).second_smallest()
        if cut != m.phi:
            violations.append((n, "cut", cut, m.phi))
        complete = bool(adj.sum() == n * (n - 1))
        if complete != m.is_prime:
            violations.append((n, "complete", complete))
        if m.is_prime:
            primes += 1
            expected = n
        else:
            expected = m.phi
        if not (isinstance(lam, int) and lam == expected):
            violations.append((n, "fiedler", lam, expected))
    assert primes == 53
    report(
        "C4 kappa = phi, lambda_2 = phi (composite) or n (prime), 3..256",
        violations,
        time.monotonic() - start,
        120,
    )


def test_criterion_05_second_largest_characterization():
    start = time.monotonic()
    violations = []
    for n in range(4, 301):
        m = Modulus.of(n)
        if m.is_prime:
            continue
        lam2 = full_spectrum(m).largest_below_radius()
        is_pq = m.omega == 2 and m.is_squarefree
        if isinstance(lam2, int):
            equal = lam2 == n - 1
            within = lam2 <= n - 1
        else:
            equal = abs(lam2 - (n - 1)) <= TOL
            within = lam2 <= n - 1 + TOL
        if not within or equal != is_pq:
            violations.append((n, lam2))
    report(
        "C5 lambda2 = n-1 iff n = p*q, composite 4..300",
        violations,
        time.monotonic() - start,
        120,
    )


def test_criterion_06_multiplicities():
    # The radius multiplicity phi(n) is exact everywhere.  The n/rad(n) law
    # for the multiplicity of the value phi(n) is stated for n with at least
    # two distinct primes.  At a prime power (primes included) G2 is a null
    # graph on n/rad - 1 vertices, so the value phi(n) has multiplicity
    # n/rad - 1: the report must disagree there.
    # Up to 200 that boundary value is also counted on the dense oracle.
    start = time.monotonic()
    violations = []
    prime_powers = 0
    for n in range(3, 501):
        m = Modulus.of(n)
        spectrum = full_spectrum(m)
        radius, phi_mult = radius_multiplicity(m, spectrum), phi_multiplicity(m, spectrum)
        per_radical = n // m.radical
        if not radius.agrees:
            violations.append((n, "radius", radius.computed, radius.claimed))
        if m.omega >= 2:
            if not (phi_mult.agrees and phi_mult.computed == per_radical):
                violations.append((n, "phi-mult", phi_mult.computed, per_radical))
            continue
        prime_powers += 1
        boundary = (phi_mult.claimed, phi_mult.computed, phi_mult.agrees)
        if boundary != (per_radical, per_radical - 1, False):
            violations.append((n, "phi-mult boundary", boundary))
        if n <= 200:
            dense = dense_spectrum(m)
            count = sum(1 for v in dense if abs(v - m.phi) <= TOL)
            if count != per_radical - 1:
                violations.append((n, "phi-mult dense", count, per_radical - 1))
    assert prime_powers == 113
    report(
        "C6 mult(n) = phi(n), mult(phi) = n/rad (omega >= 2) or n/rad - 1, 3..500",
        violations,
        time.monotonic() - start,
        60,
    )


def test_criterion_07_g2_structure():
    # "Connected iff squarefree" and the n/rad(n) component count are stated
    # for n with at least two distinct primes.  At a composite prime power
    # G2 is a null graph on n/rad - 1 vertices, one component each; that is
    # a single vertex, hence connected, exactly at n = 4.
    start = time.monotonic()
    violations = []
    prime_powers = 0
    for n in range(4, 301):
        m = Modulus.of(n)
        if m.is_prime:
            continue
        g2 = g2_classes(m)
        comps = count_components(g2)
        if m.omega >= 2:
            if (comps == 1) != m.is_squarefree:
                violations.append((n, "connected-iff-squarefree", comps))
            if comps != n // m.radical:
                violations.append((n, "component-count", comps, n // m.radical))
        else:
            prime_powers += 1
            edges = AdjacencyRows(m, g2_vertices(m))[:].sum() // 2
            if edges != 0:
                violations.append((n, "prime-power edges", edges))
            if comps != n // m.radical - 1:
                violations.append((n, "prime-power components", comps))
        if m.is_squarefree and m.omega >= 3:
            if count_components(g2, complement=True) != 1:
                violations.append((n, "complement-disconnected"))
    assert prime_powers == 17
    report(
        "C7 G2 connectivity and component count, composite <= 300",
        violations,
        time.monotonic() - start,
        60,
    )


def test_criterion_08_kappa_g2_bound():
    start = time.monotonic()
    violations = []
    checked = 0
    # composite n has phi(n) <= n - sqrt(n), so |V(G2)| <= 128 forces
    # n <= 129^2
    every = [m for m in map(Modulus.of, range(6, 129**2 + 1)) if m.n - m.phi - 1 <= 128]
    # and a few squarefree n whose G2 has 129 to 256 vertices, up to the
    # old cap of the dense max-flow, which 16637 = 127 * 131 reaches
    beyond = [Modulus.of(n) for n in (210, 262, 330, 434, 715, 16637)]
    assert [m.n - m.phi - 1 for m in beyond] == [161, 131, 249, 253, 234, 256]
    for m in every + beyond:
        n = m.n
        if m.is_prime or not m.is_squarefree:
            continue
        checked += 1
        kappa = vertex_cut(g2_classes(m))
        bound = totient(n // m.distinct_primes[-1])
        if kappa > bound:
            violations.append((n, kappa, bound))
        if m.omega == 2:
            p, q = m.distinct_primes
            if kappa != min(p, q) - 1:
                violations.append((n, "pq-exact", kappa))
    assert checked > 300
    report(
        "C8 kappa(G2) <= phi(n/p_max), |V(G2)| <= 128 and six up to 256",
        violations,
        time.monotonic() - start,
        120,
    )


def test_criterion_09_three_prime_worked_example():
    start = time.monotonic()
    violations = []
    for p, q, r in [(2, 3, 5), (3, 5, 7)]:
        n = p * q * r
        # the cells and the int64 B the pipeline builds (squarefree: B is its core)
        [(_, _, [cells], [b], _, _)] = _size_groups([Modulus.of(n)])
        diag = {d: v for (d, _, _, _), v in zip(cells, b.diagonal().tolist())}
        size = {d: k for d, _, k, _ in cells}
        expected_diag = {
            p: (p - 1) * (q + r - 1),
            q: (q - 1) * (p + r - 1),
            r: (r - 1) * (p + q - 1),
            p * q: (p - 1) * (q - 1),
            p * r: (p - 1) * (r - 1),
            q * r: (q - 1) * (r - 1),
        }
        expected_size = {
            p: (q - 1) * (r - 1),
            q: (p - 1) * (r - 1),
            r: (p - 1) * (q - 1),
            p * q: r - 1,
            p * r: q - 1,
            q * r: p - 1,
        }
        if diag != expected_diag:
            violations.append((n, "class degrees", diag))
        if size != expected_size:
            violations.append((n, "class sizes", size))
    report(
        "C9 three-prime quotient data (2,3,5) and (3,5,7)",
        violations,
        time.monotonic() - start,
        None,
    )


def _run_scan(out: Path, workers: int) -> None:
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "comax.cli",
            "scan",
            "--from",
            "3",
            "--to",
            "1000",
            "--workers",
            str(workers),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_criterion_10_scanner_determinism(tmp_path: Path):
    start = time.monotonic()
    violations = []
    solo = tmp_path / "solo.csv"
    multi = tmp_path / "multi.csv"
    _run_scan(solo, workers=1)
    _run_scan(multi, workers=8)
    if solo.read_bytes() != multi.read_bytes():
        violations.append("worker count changed scan bytes")
    rows = {}
    for line in solo.read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        rows[int(cells[0])] = cells
    if sorted(rows) != list(range(3, 1001)):
        violations.append("missing or unordered rows")
    for n, cells in rows.items():
        m = Modulus.of(n)
        integral = cells[2] == "true"
        if m.omega <= 2 and not integral:
            violations.append((n, "p^a*q^b not flagged integral"))
        if (int(cells[4]) == 0) != integral:
            violations.append((n, "residual degree inconsistent"))
    # exploratory outputs for three-or-more-prime moduli: recorded, not asserted
    for n in (30, 60, 210):
        print(f"    n={n}: integral={rows[n][2]}, residual_degree={rows[n][4]}")
    report(
        "C10 scan 3..1000 byte-determinism across workers",
        violations,
        time.monotonic() - start,
        None,
    )

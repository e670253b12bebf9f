import pytest

from comax.connectivity import (
    NotApplicable,
    algebraic_connectivity,
    g2_complement_connected,
    g2_connected,
    kappa_g2_bound,
    phi_multiplicity,
    radius_multiplicity,
    second_largest_report,
    vertex_connectivity,
)
from comax import config
from comax.oracle import (
    OracleLimitExceeded,
    count_components,
    dense_spectrum,
    g2_classes,
    twin_split,
)
from comax.ring_divisors import Modulus
from comax.spectra import full_spectrum


def with_spectrum(n: int):
    m = Modulus.of(n)
    return m, full_spectrum(m)


def test_algebraic_connectivity_composite():
    r6 = algebraic_connectivity(*with_spectrum(6))
    assert (r6.claimed, r6.computed, r6.agrees) == (2, 2, True)
    r9 = algebraic_connectivity(*with_spectrum(9))
    assert (r9.claimed, r9.computed, r9.agrees) == (6, 6, True)
    r30 = algebraic_connectivity(*with_spectrum(30))
    assert (r30.claimed, r30.computed, r30.agrees) == (8, 8, True)


def test_algebraic_connectivity_prime_boundary():
    # complete graph: second-smallest eigenvalue is n, not phi(n) = n - 1
    r = algebraic_connectivity(*with_spectrum(7))
    assert r.claimed == 6
    assert r.computed == 7
    assert not r.agrees
    assert "complete" in r.note


def test_vertex_connectivity():
    r6 = vertex_connectivity(Modulus.of(6))
    assert (r6.claimed, r6.computed, r6.agrees) == (2, 2, True)
    # prime: complete graph, cut is n-1 by convention and matches phi
    r5 = vertex_connectivity(Modulus.of(5))
    assert (r5.claimed, r5.computed, r5.agrees) == (4, 4, True)
    r12 = vertex_connectivity(Modulus.of(12))
    assert (r12.claimed, r12.computed, r12.agrees) == (4, 4, True)
    r258 = vertex_connectivity(Modulus.of(258))
    assert (r258.claimed, r258.computed, r258.agrees) == (84, 84, True)
    # above the dense limit, from n alone: 32770 = 2 * 5 * 29 * 113
    with pytest.raises(OracleLimitExceeded, match="^n exceeds dense limit 32768$"):
        vertex_connectivity(Modulus.of(config.DENSE_LIMIT + 2))
    # prime n never needs the cut oracle, whatever its size
    r61 = vertex_connectivity(Modulus.of(61))
    assert r61.agrees and r61.computed == 60


def test_g2_connectivity_reports():
    first, second = (law(Modulus.of(30)) for law in (g2_connected, g2_complement_connected))
    assert first.computed is True and first.agrees
    assert second.computed is True and second.agrees

    first, second = (law(Modulus.of(15)) for law in (g2_connected, g2_complement_connected))
    assert first.computed is True and first.agrees
    assert second.computed is False and second.agrees  # pq: complement splits

    first = g2_connected(Modulus.of(12))
    assert first.computed is False and first.agrees  # not squarefree
    with pytest.raises(NotApplicable, match="^claim stated for squarefree n only$"):
        g2_complement_connected(Modulus.of(12))

    for law in (g2_connected, g2_complement_connected):
        with pytest.raises(NotApplicable, match="^G2 is empty$"):
            law(Modulus.of(7))


def test_g2_connectivity_single_vertex_boundary():
    # n = 4: G2 is one vertex, hence connected although 4 is not squarefree
    first = g2_connected(Modulus.of(4))
    assert first.computed is True
    assert not first.agrees


def test_second_largest_report():
    r15 = second_largest_report(*with_spectrum(15))
    assert r15.computed == 14 and r15.agrees
    r12 = second_largest_report(*with_spectrum(12))
    assert r12.computed == 10 and r12.agrees
    r8 = second_largest_report(*with_spectrum(8))
    assert r8.computed == 4 and r8.agrees
    with pytest.raises(NotApplicable, match="^complete graph for prime n$"):
        second_largest_report(*with_spectrum(7))


def test_second_largest_both_directions():
    for n in range(4, 150):
        m = Modulus.of(n)
        if m.is_prime:
            continue
        r = second_largest_report(m, full_spectrum(m))
        assert r.agrees, (n, r)


def multiplicities(n: int):
    m, spectrum = with_spectrum(n)
    return radius_multiplicity(m, spectrum), phi_multiplicity(m, spectrum)


def test_multiplicity_reports():
    radius, phi_mult = multiplicities(12)
    assert (radius.claimed, radius.computed, radius.agrees) == (4, 4, True)
    assert (phi_mult.claimed, phi_mult.computed, phi_mult.agrees) == (2, 2, True)

    radius, phi_mult = multiplicities(30)
    assert (radius.claimed, radius.computed) == (8, 8)
    assert (phi_mult.claimed, phi_mult.computed, phi_mult.agrees) == (1, 1, True)


def test_multiplicity_prime_power_boundary():
    # n = 9: spectrum is {9^6, 6^2, 0}, so the value phi(9) = 6 has
    # multiplicity 2 while the n/rad(n) formula claims 3
    radius, phi_mult = multiplicities(9)
    assert radius.agrees
    assert phi_mult.claimed == 3
    assert phi_mult.computed == 2
    assert not phi_mult.agrees
    # and the dense oracle counts the value 6 exactly twice
    assert sum(abs(v - 6) < 1e-9 for v in dense_spectrum(Modulus.of(9))) == 2


def test_phi_multiplicity_counts_g2_components_in_range():
    # the value phi(n) comes only from the kernel of G2: its multiplicity is
    # the number of G2 components, and 0 at prime n, where G2 is empty
    for n in range(3, 301):
        m = Modulus.of(n)
        components = 0 if m.is_prime else count_components(g2_classes(m))
        assert phi_multiplicity(*with_spectrum(n)).computed == components, n


def test_kappa_g2_bound():
    r15 = kappa_g2_bound(Modulus.of(15))
    assert r15.computed == 2 and r15.claimed == "<= 2"
    assert r15.agrees and r15.note == "tight"

    r105 = kappa_g2_bound(Modulus.of(105))
    assert r105.claimed == "<= 8"
    assert r105.computed <= 8 and r105.agrees

    r30 = kappa_g2_bound(Modulus.of(30))
    assert r30.computed == 2 and r30.agrees

    # 234 vertices, under the old dense max-flow's cap of 256
    r715 = kappa_g2_bound(Modulus.of(715))
    assert r715.claimed == "<= 40" and r715.computed == 40 and r715.note == "tight"

    for n in (12, 7):
        with pytest.raises(NotApplicable, match="^bound stated for squarefree composite n$"):
            kappa_g2_bound(Modulus.of(n))
    # 1829 vertices, above that cap
    r2310 = kappa_g2_bound(Modulus.of(2310))
    assert r2310.claimed == "<= 48" and r2310.computed == 48 and r2310.note == "tight"
    # 43890 = 2 * 3 * 5 * 7 * 11 * 19: its G2 of 35249 vertices is above the
    # dense limit, refused from n and phi(n)
    with pytest.raises(OracleLimitExceeded, match=r"^\|V\(G2\)\|=35249 exceeds dense limit 32768$"):
        kappa_g2_bound(Modulus.of(43890))


def test_connectivity_census_to_1000():
    # kappa = phi(n) and the bound on kappa(G2) at every composite n up to
    # 1000, from the classes of one split each, as verify reads them
    checked = 0
    for n in range(4, 1001):
        m = Modulus.of(n)
        if m.is_prime:
            continue
        split = twin_split(m)
        assert vertex_connectivity(m, split=split).agrees, n
        if m.is_squarefree:
            assert kappa_g2_bound(m, g2=g2_classes(m, split)).agrees, n
            checked += 1
    assert checked == 439  # 605 squarefree n in 4..1000, less 166 primes

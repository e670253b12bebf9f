import math

import pytest

from comax import ring_divisors
from comax.ring_divisors import (
    Modulus,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    radical,
)


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


def test_factorize_reconstructs_and_sorts():
    for n in range(2, 2000):
        fac = factorize(n)
        prod = 1
        for p, a in fac:
            assert a >= 1
            assert is_prime(p)
            prod *= p**a
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_euler_phi_examples():
    assert euler_phi(12) == 4
    assert euler_phi(7) == 6
    assert euler_phi(1) == 1
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_matches_gcd_count():
    for n in range(1, 400):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == direct


def test_proper_divisors_examples():
    assert divisors(12)[1:-1] == [2, 3, 4, 6]
    assert divisors(13)[1:-1] == []
    assert divisors(30)[1:-1] == [2, 3, 5, 6, 10, 15]
    with pytest.raises(ValueError):
        divisors(0)


def test_proper_divisor_count_formula():
    # number of divisors is the product of (exponent + 1)
    for n in range(3, 1000):
        expected = 1
        for _, a in factorize(n):
            expected *= a + 1
        assert len(divisors(n)[1:-1]) == expected - 2


def test_radical_examples():
    assert radical(12) == 6
    assert radical(30) == 30
    assert radical(8) == 2
    with pytest.raises(ValueError):
        radical(1)


def test_radical_divides_and_detects_squarefree():
    for n in range(2, 500):
        r = radical(n)
        assert n % r == 0
        squarefree = all(a == 1 for _, a in factorize(n))
        assert (r == n) == squarefree


def test_divisors_sorted_unique():
    for n in range(1, 300):
        ds = divisors(n)
        assert ds == sorted(set(ds))
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n


def test_modulus_construction():
    m = Modulus.of(12)
    assert m.n == 12
    assert m.phi == 4
    assert m.radical == 6
    assert m.factorization == ((2, 2), (3, 1))
    assert m.omega == 2
    assert m.distinct_primes == (2, 3)
    assert not m.is_prime
    assert not m.is_squarefree
    assert m.factorization_str() == "2^2*3"
    with pytest.raises(ValueError):
        Modulus.of(2)


def test_modulus_factorizes_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(ring_divisors, "factorize", counting)
    for n in (12, 13, 360, 30030):
        calls.clear()
        m = Modulus.of(n)
        assert calls == [n]
        assert m.factorization == tuple(factorize(n))


def test_modulus_prime():
    m = Modulus.of(13)
    assert m.is_prime
    assert m.factorization == ((13, 1),)
    assert m.phi == 12
    assert m.is_squarefree
    for n in range(3, 500):
        assert Modulus.of(n).is_prime == is_prime(n), n

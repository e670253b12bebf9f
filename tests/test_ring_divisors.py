import math

import pytest

from comax import ring_divisors
from comax.ring_divisors import Modulus, factorize, factorize_range


def brute_is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, n))


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
            assert factorize(p) == [(p, 1)]
            prod *= p**a
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2, 5000),
        (999001, 1000000),
        (9999001, 10000000),
        (961, 1100),  # starts at 31^2
        (997, 997),  # a prime
        (961, 961),  # a prime square
        (2, 2),
    ],
)
def test_factorize_range_matches_factorize(lo, hi):
    assert factorize_range(lo, hi) == [factorize(n) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("lo, hi", [(1, 10), (0, 0), (-5, 3), (10, 9)])
def test_factorize_range_rejects_bad_windows(lo, hi):
    with pytest.raises(ValueError):
        factorize_range(lo, hi)


def test_euler_phi_examples():
    assert Modulus.of(12).phi == 4
    assert Modulus.of(7).phi == 6
    assert Modulus.of(30).phi == 8


def test_euler_phi_matches_gcd_count():
    for n in range(3, 400):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert Modulus.of(n).phi == direct, n


def test_radical_examples():
    assert Modulus.of(12).radical == 6
    assert Modulus.of(30).radical == 30
    assert Modulus.of(8).radical == 2


def test_radical_divides_and_detects_squarefree():
    for n in range(3, 500):
        m = Modulus.of(n)
        assert m.radical == math.prod(
            p for p in range(2, n + 1) if n % p == 0 and brute_is_prime(p)
        ), n
        squarefree = all(n % (k * k) for k in range(2, n + 1))
        assert m.is_squarefree == squarefree, n


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
        assert Modulus.of(n).is_prime == brute_is_prime(n), n

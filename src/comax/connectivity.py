"""Claimed-vs-computed reports for the connectivity and multiplicity laws.

Each quantity is computed twice: once from the closed formula (the claim)
and once from spectra or brute-force oracles, so drift in either path is
detected rather than assumed away.  Reports never assume the law they
check.

Boundary cases are real: for prime n the graph is complete, where the
second-smallest Laplacian eigenvalue is n (not phi(n) = n - 1) and the
vertex connectivity is n - 1 only by convention; these laws are stated for
the non-complete (composite) case.  Callers that bundle reports should
treat structurally inapplicable combinations (prime n with an empty G2,
non-squarefree n for squarefree-only claims) as skips, not failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import complement, count_components, g2_adjacency, vertex_cut
from .ring_divisors import Modulus
from .spectra import SpectrumMultiset


@dataclass(frozen=True)
class TheoremReport:
    """One checked law: a claimed value, an independently computed value,
    and whether they agree, decided exactly."""

    theorem: str
    claimed: object
    computed: object
    agrees: bool
    note: str = ""


def algebraic_connectivity(m: Modulus, spectrum: SpectrumMultiset) -> TheoremReport:
    """Second-smallest Laplacian eigenvalue vs the claimed phi(n).

    The claim holds for composite n; for prime n the graph is complete and
    the computed value is n, so the report honestly disagrees there.
    """
    computed = spectrum.second_smallest()
    return TheoremReport(
        theorem="algebraic-connectivity",
        claimed=m.phi,
        computed=computed,
        agrees=m.phi == computed,
        note="complete graph (prime n)" if m.is_prime else "",
    )


def vertex_connectivity(m: Modulus) -> TheoremReport:
    """Minimum vertex cut of the full graph vs the claimed phi(n).

    For prime n the graph is complete and the cut is n - 1 by convention,
    which matches phi.  Composite n above the cut oracle's cap raises.
    """
    computed = m.n - 1 if m.is_prime else vertex_cut(m)
    return TheoremReport(
        theorem="vertex-connectivity",
        claimed=m.phi,
        computed=computed,
        agrees=m.phi == computed,
        note="complete graph: n-1 by convention" if m.is_prime else "",
    )


def g2_connectivity_report(
    m: Modulus,
) -> tuple[TheoremReport, TheoremReport | None]:
    """Connectivity of G2 (iff squarefree) and, for squarefree n, of its complement.

    The complement claim is only made where a claim exists: disconnected for
    a product of two primes, connected for three or more; for non-squarefree
    n the second report is None.  Both are counted on the boolean G2
    adjacency, so G2 above the dense limit raises OracleLimitExceeded.
    """
    if m.is_prime:
        raise ValueError(f"G2 is empty for prime n={m.n}")
    adj = g2_adjacency(m)
    comps = count_components(adj)
    first = TheoremReport(
        theorem="g2-connected-iff-squarefree",
        claimed=m.is_squarefree,
        computed=comps == 1,
        agrees=m.is_squarefree == (comps == 1),
    )
    if not m.is_squarefree:
        return first, None
    comp_connected = count_components(complement(adj)) == 1
    claimed = m.omega > 2
    second = TheoremReport(
        theorem="g2-complement-connected",
        claimed=claimed,
        computed=comp_connected,
        agrees=claimed == comp_connected,
    )
    return first, second


def second_largest_report(m: Modulus, spectrum: SpectrumMultiset) -> TheoremReport:
    """Largest eigenvalue below the spectral radius: <= n-1, equal iff n = pq.

    Composite n only; for prime n the spectrum is {n, 0} and the law does
    not apply.  ``claimed`` states the expected relation to n - 1.
    """
    if m.is_prime:
        raise ValueError(f"second-largest law applies to composite n, got prime {m.n}")
    lam2 = spectrum.largest_below_radius()
    is_pq = m.omega == 2 and m.is_squarefree
    # every G2 eigenvalue is at most its n - phi(n) - 1 vertices, so after
    # the shift by phi(n) nothing below the radius exceeds n - 1, and only
    # an exact integer eigenvalue can equal it
    equal = spectrum.multiplicity_of(m.n - 1) > 0
    within = lam2 <= m.n - 1
    return TheoremReport(
        theorem="second-largest-eigenvalue",
        claimed=f"== {m.n - 1}" if is_pq else f"< {m.n - 1}",
        computed=lam2,
        agrees=within and (equal == is_pq),
    )


def multiplicity_reports(
    m: Modulus, spectrum: SpectrumMultiset
) -> tuple[TheoremReport, TheoremReport]:
    """Multiplicity of the radius n (claimed phi(n)) and of the value phi(n)
    (claimed n / rad(n)).

    The value phi(n) can only come from the kernel of G2: the join shifts
    the G2 spectrum, which lies in [0, n - phi(n) - 1], up by phi(n), and
    adds only one 0 and the radius n, neither equal to phi(n).  So the
    computed multiplicity is the dimension of the G2 kernel, which is the
    number of components of G2.  The claim
    is the classical one and genuinely fails at prime powers, where G2 is a
    null graph on n / rad(n) - 1 vertices.
    """
    radius = TheoremReport(
        theorem="spectral-radius-multiplicity",
        claimed=m.phi,
        computed=spectrum.multiplicity_of(m.n),
        agrees=m.phi == spectrum.multiplicity_of(m.n),
    )
    claimed_phi_mult = m.n // m.radical
    computed_phi_mult = spectrum.multiplicity_of(m.phi)
    phi_report = TheoremReport(
        theorem="phi-multiplicity",
        claimed=claimed_phi_mult,
        computed=computed_phi_mult,
        agrees=claimed_phi_mult == computed_phi_mult,
    )
    return radius, phi_report


def kappa_g2_bound(m: Modulus) -> TheoremReport:
    """Vertex connectivity of G2 against the bound phi(n / p_max), squarefree n.

    Computed by max-flow on G2, which raises above the cut oracle's cap.
    ``agrees`` means the bound holds; the note records tightness.
    """
    bound = g2_kappa_bound_value(m)
    computed = vertex_cut(m, g2=True)
    return TheoremReport(
        theorem="kappa-g2-bound",
        claimed=f"<= {bound}",
        computed=computed,
        agrees=computed <= bound,
        note="tight" if computed == bound else "strict",
    )


def g2_kappa_bound_value(m: Modulus) -> int:
    """The bound phi(n / p_max) = phi(n) / (p_max - 1) itself (squarefree composite n)."""
    if not m.is_squarefree or m.is_prime:
        raise ValueError(f"bound defined for squarefree composite n, got {m.n}")
    return m.phi // (m.distinct_primes[-1] - 1)

"""Exact Laplacian spectra of comaximal graphs of Z_n.

The spectrum of the comaximal graph on Z_n decomposes through the
prime-support cells C_r = {x : rad(gcd(x, n)) = r}, one per squarefree
divisor r of n: the graph is a clique on the units (r = 1) joined onto the
non-units, and the non-unit core is a blow-up of the coprimality graph on
the labels r > 1 by null cells.  Everything reduces to a w x w integer
quotient matrix (w <= 2^omega - 1 nonempty cells, omega the number of
distinct primes of n), handled in exact arithmetic; brute-force numeric and
combinatorial oracles cross-check every claim.
"""

from .comax_graph import (
    ComaximalGraph,
    DivisorClass,
    adjacent,
    class_of,
    class_summary,
    classes,
    degree,
    dense_laplacian,
)
from .connectivity import (
    TheoremReport,
    algebraic_connectivity,
    components_vs_radical,
    g2_connectivity_report,
    kappa_g2_bound,
    multiplicity_reports,
    second_largest_report,
    vertex_connectivity,
)
from .oracle import (
    DenseSpectrum,
    OracleLimitExceeded,
    SimpleGraph,
    connected_components,
    exact_char_poly_full,
    full_graph,
    g2_graph,
    min_vertex_cut,
    numeric_spectrum,
)
from .polynomial import IntPoly, bareiss_det, char_poly_matrix, extract_integer_roots
from .ring_divisors import (
    Modulus,
    euler_phi,
    factorize,
    is_prime,
    proper_divisors,
    radical,
)
from .scan import ScanRecord, compute_record, scan_range
from .spectra import (
    QuotientMatrix,
    SpectrumMultiset,
    closed_form_prime,
    closed_form_prime_power,
    closed_form_two_primes,
    full_char_poly,
    full_spectrum,
    g2_char_poly,
    g2_quotient,
    g2_spectrum,
    is_laplacian_integral,
    spectrum_json_dict,
)

__version__ = "0.1.0"

__all__ = [
    "ComaximalGraph",
    "DenseSpectrum",
    "DivisorClass",
    "IntPoly",
    "Modulus",
    "OracleLimitExceeded",
    "QuotientMatrix",
    "ScanRecord",
    "SimpleGraph",
    "SpectrumMultiset",
    "TheoremReport",
    "adjacent",
    "algebraic_connectivity",
    "bareiss_det",
    "char_poly_matrix",
    "class_of",
    "class_summary",
    "classes",
    "closed_form_prime",
    "closed_form_prime_power",
    "closed_form_two_primes",
    "compute_record",
    "components_vs_radical",
    "connected_components",
    "degree",
    "dense_laplacian",
    "euler_phi",
    "exact_char_poly_full",
    "extract_integer_roots",
    "factorize",
    "full_char_poly",
    "full_graph",
    "full_spectrum",
    "g2_char_poly",
    "g2_connectivity_report",
    "g2_graph",
    "g2_quotient",
    "g2_spectrum",
    "is_laplacian_integral",
    "is_prime",
    "kappa_g2_bound",
    "min_vertex_cut",
    "multiplicity_reports",
    "numeric_spectrum",
    "proper_divisors",
    "radical",
    "scan_range",
    "second_largest_report",
    "spectrum_json_dict",
    "vertex_connectivity",
]

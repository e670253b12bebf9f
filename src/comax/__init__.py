"""Exact Laplacian spectra of comaximal graphs of Z_n.

The spectrum of the comaximal graph on Z_n decomposes through the
prime-support cells C_r = {x : rad(gcd(x, n)) = r}, one per squarefree
divisor r of n: the graph is a clique on the units (r = 1) joined onto the
non-units, and the non-unit core is a blow-up of the coprimality graph on
the labels r > 1 by null cells.  Everything reduces to a w x w integer
quotient matrix (w <= 2^omega - 1 nonempty cells, omega the number of
distinct primes of n), handled in exact arithmetic; brute-force numeric and
combinatorial oracles cross-check every claim.

The names exported here are the library API.  The oracles, the law reports
and the command line live in their submodules.
"""

from .polynomial import IntPoly
from .ring_divisors import Modulus
from .scan import ScanRecord, scan_range
from .spectra import (
    SpectrumMultiset,
    full_spectrum,
    g2_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "Modulus",
    "ScanRecord",
    "SpectrumMultiset",
    "full_spectrum",
    "g2_spectrum",
    "scan_range",
]

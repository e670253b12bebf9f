"""Runtime limits for the dense (brute-force) code paths."""

from __future__ import annotations

DENSE_LIMIT = 4096
EXACT_CHARPOLY_LIMIT = 64
VERTEX_CUT_LIMIT = 256
G2_KAPPA_LIMIT = 128
FULL_CUT_LIMIT = 60
SCAN_LIMIT = 10**6

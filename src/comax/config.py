"""Size caps, each checked in one module: ``SCAN_LIMIT`` in ``cli``, every other
cap in ``oracle``.  Each comment gives what it bounds and its cost on a 2-CPU
Xeon VM."""

from __future__ import annotations

DENSE_LIMIT = 4096  # n of the split Laplacian, and |V(G2)|: verify 4095 in 0.21 s at 37 MB
EXACT_CHARPOLY_LIMIT = 64  # n of the exact oracle: identity (power sums) at most 1.8 ms at 56..64
VERTEX_CUT_LIMIT = 256  # vertices of a max-flow cut: at most 10 ms full graph, 0.12 s G2
SCAN_LIMIT = 10**6  # the last n of `comax scan`: 59-69 s for all of it with two workers

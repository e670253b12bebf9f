"""Size caps, each read in one module: ``SCAN_LIMIT`` in ``cli``, the rest in
``oracle``.  Each comment gives what it bounds and its cost on a 2-CPU Xeon VM."""

from __future__ import annotations

DENSE_LIMIT = 4096  # n of the split Laplacian, and |V(G2)|: verify 4095, 0.3-1.3 s, 51 MB
EXACT_CHARPOLY_LIMIT = 64  # n of the exact dense charpoly: at most 4 ms at 60 to 64
VERTEX_CUT_LIMIT = 256  # vertices of a max-flow cut: at most 27 ms full graph, 0.12 s G2
SCAN_LIMIT = 10**6  # the last n of `comax scan`: 59-69 s for all of it with two workers

"""Size caps, each checked in one module: ``SCAN_LIMIT`` in ``cli``, every other
cap in ``oracle``.  Each comment gives what it bounds and its cost on a 2-CPU
Xeon VM."""

from __future__ import annotations

DENSE_LIMIT = 2**15  # n of the twin split: verify 30030 in 0.9 s at 59 MB; and |V(G2)|:
# its worst n, 32749^2, verify in 1.4 s at 41 MB (G2 edgeless, one traversal per vertex)
VERTEX_CUT_LIMIT = 256  # vertices of a max-flow cut: at most 10 ms full graph, 0.12 s G2
SCAN_LIMIT = 10**6  # the last n of `comax scan`: 59-69 s for all of it with two workers

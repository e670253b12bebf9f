"""Size caps, each checked in one module: ``SCAN_LIMIT`` in ``cli``, every other
cap in ``oracle``.  Each comment gives what it bounds and its cost on a 2-CPU
Xeon VM."""

from __future__ import annotations

DENSE_LIMIT = 2**15  # n of the twin split: verify 30030 in 0.7 s at 54 MB; and |V(G2)| of
# G2's own class check: its worst n, 32749^2, verify in 0.33 s at 43 MB (G2 edgeless)
SCAN_LIMIT = 10**6  # the last n of `comax scan`: 59-69 s for all of it with two workers

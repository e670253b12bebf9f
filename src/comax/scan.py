"""Range scanner for Laplacian integrality.

Only squarefree n are computed.  For k = n / rad(n) > 1, the G2 quotient of
n is k times that of rad(n) plus one isolated zero cell, so n has the
integrality and the residual degree of rad(n); every other row takes them
from rad(n)'s row.

The range is cut into chunks of consecutive n.  Each chunk is factorized by
one ``factorize_range`` sieve and is one batch of the quotient pipeline (no
dense oracles): one ``g2_residual_degrees`` call on the squarefree n of the
chunk and on the composite radicals below the start of the range that its
other n have, so the small quotients of many moduli share each numpy
kernel call.  A row whose radical lies in the range, below the row, is
filled from a table of the residual degrees of the range, indexed by
n - start; rad(n) <= n / 2 and rows are handled in ascending n, so the
entry a fill reads is always written first.
Results are emitted in ascending n regardless of chunk size or worker count, so scan output is
reproducible byte for byte.  Per-record timing is therefore disabled by
default: with ``timing=True`` every modulus is a chunk of its own, the
wall_time_ms column carries real measurements (for a filled row, that of
its own chunk), and the byte-determinism guarantee is deliberately given
up.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .ring_divisors import Modulus, factorize_range
from .spectra import g2_residual_degrees

CSV_COLUMNS = (
    "n",
    "factorization",
    "laplacian_integral",
    "distinct_prime_count",
    "residual_degree",
    "wall_time_ms",
)

FILTERS = ("all", "integral", "nonintegral")

# consecutive moduli per batch, and per task handed to a worker process
_CHUNK = 128


@dataclass(frozen=True)
class ScanRecord:
    n: int
    factorization: str
    laplacian_integral: bool
    distinct_prime_count: int
    residual_degree: int
    wall_time_ms: int


def _compute_chunk(
    ns: Sequence[int], start: int, timing: bool
) -> list[tuple[int, str, int, int, int | None, int]]:
    """(n, factorization, omega, rad(n), residual degree, wall ms) for each
    of the consecutive moduli ``ns`` of a range that begins at ``start``,
    all factorized by one ``factorize_range`` sieve, from one
    ``g2_residual_degrees`` call on the squarefree ones and on the distinct
    composite radicals below ``start`` of the others, each built from the
    primes of n without factorizing it again.

    The residual degree is that of the G2 spectrum: the full spectrum adds
    only integer eigenvalues and shifts G2's by phi(n).  A prime radical
    gives residual degree 0.  The degree is None exactly when
    start <= rad(n) < n, for ``scan_range`` to fill from rad(n)'s row.
    With ``timing`` every modulus is a chunk of its own, so the wall ms
    time one n.
    """
    if timing and len(ns) > 1:
        return [row for n in ns for row in _compute_chunk([n], start, timing)]
    began = time.perf_counter()
    moduli = [Modulus.from_factorization(f) for f in factorize_range(ns[0], ns[-1])]
    below = {m.radical: m.distinct_primes for m in moduli if m.omega > 1 and m.radical < start}
    radicals = [Modulus.from_factorization((p, 1) for p in below[r]) for r in sorted(below)]
    batch = [m for m in moduli if m.is_squarefree] + radicals
    found = g2_residual_degrees(batch) if batch else []
    degrees = dict(zip((m.n for m in batch), found))
    elapsed_ms = int((time.perf_counter() - began) * 1000) if timing else 0
    return [
        (
            m.n,
            m.factorization_str(),
            m.omega,
            m.radical,
            degrees.get(m.radical, 0) if m.radical < start else degrees.get(m.n),
            elapsed_ms,
        )
        for m in moduli
    ]


def _chunk_rows(
    tasks: Sequence[Sequence[int]], start: int, workers: int, timing: bool
) -> Iterator[list[tuple[int, str, int, int, int | None, int]]]:
    """``_compute_chunk`` of each task, in task order, computed in this process
    or, with workers > 1, by a pool of at most one process per CPU and per
    task.  Tasks are submitted through a window of at most 2 * workers
    pending results, so memory stays flat in the number of tasks."""
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        for ns in tasks:
            yield _compute_chunk(ns, start, timing)
        return
    # imported here, so that a serial scan and every other command skip it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for ns in tasks:
            pending.append(pool.submit(_compute_chunk, ns, start, timing))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def scan_range(
    start: int, stop: int, workers: int = 1, timing: bool = False
) -> Iterator[ScanRecord]:
    """Records for start..stop inclusive, ascending, in chunks of consecutive n.

    Each chunk is one batch of the quotient pipeline, computed in this
    process or by up to ``workers`` processes; a row whose radical lies in
    start..n - 1 is filled from rad(n)'s row.  The output is the same for
    every worker count.
    """
    if start < 3 or stop < start:
        raise ValueError(f"invalid scan range {start}..{stop}")
    ns = range(start, stop + 1)
    tasks = [ns[i : i + _CHUNK] for i in range(0, len(ns), _CHUNK)]
    # residual degree of each n by n - start; two bytes hold the largest,
    # w = 2^omega - 2, for omega <= 15
    degrees = array("H", [0]) * len(ns)
    for rows in _chunk_rows(tasks, start, workers, timing):
        for n, factorization, omega, rad, degree, ms in rows:
            if degree is None:
                degree = degrees[rad - start]
            degrees[n - start] = degree
            yield ScanRecord(n, factorization, degree == 0, omega, degree, ms)


def apply_filter(records: Iterable[ScanRecord], which: str) -> Iterator[ScanRecord]:
    if which not in FILTERS:
        raise ValueError(f"unknown filter {which!r}")
    for rec in records:
        if which == "integral" and not rec.laplacian_integral:
            continue
        if which == "nonintegral" and rec.laplacian_integral:
            continue
        yield rec


def write_csv(records: Iterable[ScanRecord], out: TextIO) -> tuple[int, int]:
    """Write records as CSV; returns (total, integral) counts."""
    out.write(",".join(CSV_COLUMNS) + "\n")
    total = integral = 0
    for rec in records:
        out.write(
            f"{rec.n},{rec.factorization},"
            f"{'true' if rec.laplacian_integral else 'false'},"
            f"{rec.distinct_prime_count},{rec.residual_degree},{rec.wall_time_ms}\n"
        )
        total += 1
        integral += rec.laplacian_integral
    return total, integral


def write_json(records: Iterable[ScanRecord], out: TextIO) -> tuple[int, int]:
    """Write records as a JSON array, one record at a time, in the layout of
    ``json.dump(rows, out, indent=1)``; returns (total, integral) counts."""
    total = integral = 0
    for rec in records:
        out.write("[" if total == 0 else ",")
        out.write("\n " + json.dumps(asdict(rec), indent=1).replace("\n", "\n "))
        total += 1
        integral += rec.laplacian_integral
    out.write("\n]\n" if total else "[]\n")
    return total, integral

"""Range scanner for Laplacian integrality.

Only squarefree n are computed.  For k = n / rad(n) > 1, the G2 quotient of
n is k times that of rad(n) plus one isolated zero cell, so n has the
integrality and the residual degree of rad(n); every other row is filled
from rad(n)'s row.  The residual degrees of the computed n are kept in a
table of one byte per n of the range, indexed by n - start (a degree is at
most w <= 127 for n <= 10^6).  rad(n) <= n / 2 and rows are handled in
ascending n, so the row a fill reads is always computed first.  The
radicals below the start of the range come from a segmented sieve over the
range; they are computed in a pre-pass, and their degrees kept in a table
of their own, by position in their ascending list.

The range is cut into chunks of consecutive n, and the squarefree n of a
chunk are one batch of the quotient pipeline (no dense oracles): one
``g2_spectra`` call, so the small quotients of many moduli share each numpy
kernel call.  Results are emitted in ascending n regardless of chunk size or
worker count, so scan output is reproducible byte for byte.  Per-record
timing is therefore disabled by default: with ``timing=True`` every modulus
is a chunk of its own, the wall_time_ms column carries real measurements
(for a filled row, the time of its fill), and the byte-determinism
guarantee is deliberately given up.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .ring_divisors import Modulus
from .spectra import g2_spectra

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
# consecutive n per block of the radical pre-pass sieve (0.5 MiB per int64 array)
_SIEVE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ScanRecord:
    n: int
    factorization: str
    laplacian_integral: bool
    distinct_prime_count: int
    residual_degree: int
    wall_time_ms: int


def _compute_chunk(ns: Sequence[int], timing: bool) -> list[tuple[ScanRecord, int]]:
    """(record, rad(n)) for each of the moduli ``ns``, from one ``g2_spectra``
    call on the squarefree ones.

    Integrality and the residual degree are those of the G2 spectrum: the
    full spectrum adds only integer eigenvalues and shifts G2's by phi(n).
    The record of a squarefree n (rad(n) == n) is complete; any other
    record carries rad(n) in place of its residual degree, for
    ``scan_range`` to fill.  With ``timing`` every modulus is a chunk of its
    own, so wall_time_ms times one n.
    """
    if timing and len(ns) > 1:
        return [row for n in ns for row in _compute_chunk([n], timing)]
    start = time.perf_counter()
    moduli = [Modulus.of(n) for n in ns]
    squarefree = [m for m in moduli if m.is_squarefree]
    spectra = iter(g2_spectra(squarefree) if squarefree else [])
    elapsed_ms = int((time.perf_counter() - start) * 1000) if timing else 0
    rows = []
    for m in moduli:
        degree = next(spectra).residual.degree if m.is_squarefree else m.radical
        record = ScanRecord(
            n=m.n,
            factorization=m.factorization_str(),
            laplacian_integral=degree == 0,
            distinct_prime_count=m.omega,
            residual_degree=degree,
            wall_time_ms=elapsed_ms,
        )
        rows.append((record, m.radical))
    return rows


def _radicals_below(ns: range) -> list[int]:
    """The radicals below ``ns.start`` with two or more primes of the n in
    ``ns``, ascending: the only rows a fill can read that the scan of ``ns``
    does not compute (a prime radical gives residual degree 0).

    A segmented sieve over ``ns``, in blocks of ``_SIEVE_BLOCK`` n: each
    prime p <= isqrt(max n) multiplies rad and counts omega along its
    multiples, and each prime power divides p out of a remainder once; a
    remainder left above 1 is one more prime.
    """
    if ns.start <= 6:  # 6 is the least squarefree number with two primes
        return []
    top = ns[-1]
    root = math.isqrt(top)
    sieve = np.ones(root + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).tolist()
    found: set[int] = set()
    for lo in range(ns.start, ns.stop, _SIEVE_BLOCK):
        rest = np.arange(lo, min(lo + _SIEVE_BLOCK, ns.stop), dtype=np.int64)
        rad = np.ones_like(rest)
        omega = np.zeros(len(rest), dtype=np.int8)
        for p in primes:
            rad[-lo % p :: p] *= p
            omega[-lo % p :: p] += 1
            q = p
            while q <= top:
                rest[-lo % q :: q] //= p
                q *= p
        left = rest > 1
        rad[left] *= rest[left]
        omega += left
        found.update(rad[(omega > 1) & (rad < ns.start)].tolist())
    return sorted(found)


def _chunk_rows(
    tasks: Sequence[Sequence[int]], workers: int, timing: bool
) -> Iterator[list[tuple[ScanRecord, int]]]:
    """``_compute_chunk`` of each task, in task order, computed in this process
    or, with workers > 1, by a pool of at most one process per CPU and per
    task.  Tasks are submitted through a window of at most 2 * workers
    pending results, so memory stays flat in the number of tasks."""
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        for ns in tasks:
            yield _compute_chunk(ns, timing)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for ns in tasks:
            pending.append(pool.submit(_compute_chunk, ns, timing))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def scan_range(
    start: int, stop: int, workers: int = 1, timing: bool = False
) -> Iterator[ScanRecord]:
    """Records for start..stop inclusive, ascending, in chunks of consecutive n.

    The squarefree n of each chunk are one batch of the quotient pipeline,
    computed in this process or by up to ``workers`` processes; every other
    row takes its integrality and residual degree from rad(n)'s row.  The
    output is the same for every worker count.
    """
    if start < 3 or stop < start:
        raise ValueError(f"invalid scan range {start}..{stop}")
    ns = range(start, stop + 1)
    below = _radicals_below(ns)
    tasks = [below[i : i + _CHUNK] for i in range(0, len(below), _CHUNK)]
    first = len(tasks)
    tasks += [ns[i : i + _CHUNK] for i in range(0, len(ns), _CHUNK)]
    # residual degree of each computed n: of the pre-pass radicals by their
    # position in ``below``, of the window by n - start; one byte is enough,
    # as the degree is at most w <= 127 for n <= 10^6
    below_degrees = bytearray(len(below))
    degrees = bytearray(len(ns))
    for t, rows in enumerate(_chunk_rows(tasks, workers, timing)):
        for i, (record, rad) in enumerate(rows):
            if t < first:
                below_degrees[t * _CHUNK + i] = record.residual_degree
                continue
            if rad == record.n:
                degrees[rad - start] = record.residual_degree
            else:
                filled = time.perf_counter()
                if rad >= start:
                    degree = degrees[rad - start]
                else:  # a prime radical is not in ``below``: degree 0
                    at = bisect.bisect_left(below, rad)
                    found = at < len(below) and below[at] == rad
                    degree = below_degrees[at] if found else 0
                elapsed_ms = int((time.perf_counter() - filled) * 1000) if timing else 0
                record = replace(
                    record,
                    laplacian_integral=degree == 0,
                    residual_degree=degree,
                    wall_time_ms=elapsed_ms,
                )
            yield record


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

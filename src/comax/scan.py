"""Range scanner for Laplacian integrality.

The range is cut into chunks of consecutive n, and each chunk is one batch
of the quotient pipeline (no dense oracles): one ``g2_spectra`` call, so the
small quotients of many moduli share each numpy kernel call.  Results are
emitted in ascending n regardless of chunk size or worker count, so scan
output is reproducible byte for byte.  Per-record timing is therefore
disabled by default: with ``timing=True`` every modulus is a chunk of its
own, the wall_time_ms column carries real measurements, and the
byte-determinism guarantee is deliberately given up.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, TextIO

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


@dataclass(frozen=True)
class ScanRecord:
    n: int
    factorization: str
    laplacian_integral: bool
    distinct_prime_count: int
    residual_degree: int
    wall_time_ms: int


def _compute_chunk(ns: range, timing: bool) -> list[ScanRecord]:
    """Records for consecutive moduli, from one ``g2_spectra`` call.

    Integrality and the residual degree are those of the G2 spectrum: the
    full spectrum adds only integer eigenvalues and shifts G2's by phi(n).
    With ``timing`` every modulus is a chunk of its own, so wall_time_ms
    times one n.
    """
    if timing and len(ns) > 1:
        return [rec for n in ns for rec in _compute_chunk(range(n, n + 1), timing)]
    start = time.perf_counter()
    moduli = [Modulus.of(n) for n in ns]
    spectra = g2_spectra(moduli)
    elapsed_ms = int((time.perf_counter() - start) * 1000) if timing else 0
    return [
        ScanRecord(
            n=m.n,
            factorization=m.factorization_str(),
            laplacian_integral=s.is_integral,
            distinct_prime_count=m.omega,
            residual_degree=s.residual.degree,
            wall_time_ms=elapsed_ms,
        )
        for m, s in zip(moduli, spectra)
    ]


def scan_range(
    start: int, stop: int, workers: int = 1, timing: bool = False
) -> Iterator[ScanRecord]:
    """Records for start..stop inclusive, ascending, in chunks of consecutive n.

    Each chunk is one batch of the quotient pipeline, computed in this
    process or, with workers > 1, by a pool of at most one process per CPU
    and per chunk.  Chunks are submitted through a window of at most
    2 * workers pending results and yielded in submission order, so memory
    stays flat in the range length and the output is the same for every
    worker count.
    """
    if start < 3 or stop < start:
        raise ValueError(f"invalid scan range {start}..{stop}")
    ns = range(start, stop + 1)
    chunks = range(0, len(ns), _CHUNK)
    workers = min(workers, os.cpu_count() or 1, len(chunks))
    if workers <= 1:
        for i in chunks:
            yield from _compute_chunk(ns[i : i + _CHUNK], timing)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for i in chunks:
            pending.append(pool.submit(_compute_chunk, ns[i : i + _CHUNK], timing))
            if len(pending) == 2 * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


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

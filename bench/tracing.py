"""Span tracing of the comax package from outside it.

``Tracer.install`` replaces every public function of each layer (module) of
the package with a timing wrapper, at every module namespace that binds it,
so each call is seen under the name its caller looks up:
``spectra.char_poly_matrix`` and ``oracle.char_poly_matrix`` are the same
function reached from the quotient pipeline and from the brute-force oracle.
A few methods that carry per-layer counters are wrapped on their class.
``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as ``(name, site, start, end, parent, op)`` tuples:
``name`` is ``<defining module>.<function>``, ``site`` the module whose
namespace the call went through, ``parent`` the index of the enclosing span
(-1 at the top) and ``op`` the modulus the work belongs to.  The tracer
assumes one thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = (
    "ring_divisors",
    "comax_graph",
    "spectra",
    "polynomial",
    "oracle",
    "connectivity",
    "scan",
    "cli",
)

# (module, class, method): wrapped on the class, not per namespace
METHODS = (
    ("ring_divisors", "Modulus", "of"),
    ("polynomial", "IntPoly", "divide_linear"),
)

ORACLE_TIMES = {
    "oracle.exact_char_poly_full_s": ("oracle.exact_char_poly_full",),
    "oracle.numeric_spectrum_s": ("oracle.numeric_spectrum",),
    "oracle.min_vertex_cut_s": ("oracle.min_vertex_cut",),
    "oracle.graph_build_s": ("oracle.full_graph", "oracle.g2_graph"),
    "oracle.connected_components_s": ("oracle.connected_components",),
    "comax_graph.dense_laplacian_s": ("comax_graph.dense_laplacian",),
}


class Tracer:
    """Records spans and boundary counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.coeff_bits: Counter = Counter()  # site -> max charpoly coefficient bits
        self.quotient_cells = 0
        self.root_hits = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, site: str, after=None, starts_op: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_op:
                tracer.op = args[0]
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, site, start, end, parent, tracer.op)
            if after is not None:
                after(site, result)
            return result

        return wrapper

    def _after(self, name: str):
        if name == "polynomial.char_poly_matrix":
            def bits(site, poly):
                top = max(abs(c).bit_length() for c in poly.coeffs)
                self.coeff_bits[site] = max(self.coeff_bits[site], top)
            return bits
        if name == "spectra.g2_quotient":
            def cells(site, q):
                self.quotient_cells += q.w
            return cells
        if name == "polynomial.IntPoly.divide_linear":
            def hit(site, result):
                self.root_hits += result[1] == 0
            return hit
        return None

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"comax.{m}") for m in LAYERS}
        for site, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or inspect.isgeneratorfunction(fn)
                    or not fn.__module__.startswith("comax.")
                ):
                    continue
                name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
                wrapper = self._wrap(
                    fn, name, site, self._after(name), starts_op=name == "scan.compute_record"
                )
                self._patch(mod, attr, wrapper)
        for module, cls_name, meth in METHODS:
            cls = getattr(mods[module], cls_name)
            raw = inspect.getattr_static(cls, meth)
            name = f"{module}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, module, self._after(name)))
            else:
                wrapped = self._wrap(raw, name, module, self._after(name))
            self._patch(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, site, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "site": site, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")

    def metrics(self, moduli: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; ``moduli`` is the number
        of moduli the traced pass worked on."""
        spans = self.spans
        own = self._self_times()

        def nearest(index: int, name: str) -> int:
            """Index of the closest ancestor called ``name``, or -1."""
            parent = spans[index][4]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][4]
            return parent

        calls = Counter()
        outer = Counter()  # inclusive time of spans not nested in one of the same name
        self_time = Counter()  # by defining module
        charpoly_s = Counter()
        bareiss = Counter()
        record_ms = []
        for i, (name, site, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_time[name.split(".")[0]] += own[i]
            if nearest(i, name) < 0:
                outer[name] += end - start
                if name == "polynomial.char_poly_matrix":
                    charpoly_s[site] += end - start
            if name == "polynomial.bareiss_det":
                cp = nearest(i, "polynomial.char_poly_matrix")
                if cp >= 0:
                    bareiss[spans[cp][1]] += 1
            elif name == "scan.compute_record":
                record_ms.append((end - start) * 1e3)
        write_self = sum(own[i] for i, span in enumerate(spans) if span[0] == "scan.write_csv")
        divisions = calls["polynomial.IntPoly.divide_linear"]
        out = {
            "polynomial.char_poly_matrix_s.quotient": charpoly_s["spectra"],
            "polynomial.char_poly_matrix_s.oracle": charpoly_s["oracle"],
            "polynomial.bareiss_det_calls.quotient": bareiss["spectra"],
            "polynomial.bareiss_det_calls.oracle": bareiss["oracle"],
            "polynomial.charpoly_max_coeff_bits.quotient": self.coeff_bits["spectra"],
            "polynomial.charpoly_max_coeff_bits.oracle": self.coeff_bits["oracle"],
            "polynomial.real_roots_numeric_s": outer["polynomial.real_roots_numeric"],
            "polynomial.extract_integer_roots_s": outer["polynomial.extract_integer_roots"],
            "polynomial.divide_linear_calls": divisions,
            "polynomial.root_hit_ratio": self.root_hits / divisions if divisions else 0.0,
            "spectra.g2_quotient_s": outer["spectra.g2_quotient"],
            "spectra.quotient_cells": self.quotient_cells,
            "spectra.full_spectrum_calls": calls["spectra.full_spectrum"],
            "spectra.full_spectrum_calls_per_modulus": calls["spectra.full_spectrum"] / moduli,
            "spectra.g2_spectrum_calls": calls["spectra.g2_spectrum"],
            "spectra.g2_spectrum_calls_per_modulus": calls["spectra.g2_spectrum"] / moduli,
            "ring_divisors.modulus_of_s": outer["ring_divisors.Modulus.of"],
            "ring_divisors.factorize_calls": calls["ring_divisors.factorize"],
            "ring_divisors.factorize_calls_per_modulus": calls["ring_divisors.factorize"] / moduli,
            "scan.compute_record_ms.p50": percentile(record_ms, 50),
            "scan.compute_record_ms.p99": percentile(record_ms, 99),
            "scan.write_csv_s": write_self,
        }
        for metric, names in ORACLE_TIMES.items():
            out[metric] = sum(outer[n] for n in names)
        out["connectivity.reports_s"] = self_time["connectivity"]
        out["cli.self_s"] = self_time["cli"]
        out["trace.spans"] = len(spans)
        return out

    def _self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def top_self_times(self, k: int = 8) -> list[tuple[str, float]]:
        """The k functions with the largest total self time."""
        total = Counter()
        for span, own in zip(self.spans, self._self_times()):
            total[span[0]] += own
        return total.most_common(k)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]

"""Command-line surface: spectrum, verify, scan, g2, graph.

Exit codes: 0 success, 1 verification disagreement or an n the exact
pipeline refuses (its ArithmeticError printed as one stderr line), 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, TextIO

from . import config, scan as scan_mod
from .comax_graph import class_summary, full_edges, g2_edges
from .connectivity import (
    TheoremReport,
    algebraic_connectivity,
    g2_connectivity_report,
    g2_kappa_bound_value,
    kappa_g2_bound,
    multiplicity_reports,
    second_largest_report,
    vertex_connectivity,
)
from .oracle import (
    OracleLimitExceeded,
    count_components,
    dense_spectrum,
    exact_char_poly_full,
    g2_adjacency,
    vertex_cut,
)
from .ring_divisors import Modulus
from .spectra import (
    SpectrumMultiset,
    closed_form_spectrum,
    full_spectrum,
    spectrum_json_dict,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_IO = 3

_SPECTRUM_TOL = 1e-6


def _modulus_or_exit(raw: int) -> Modulus:
    if raw < 3:
        print(f"n must be at least 3, got {raw}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return Modulus.of(raw)


def _render_pretty(m: Modulus) -> str:
    return " ".join(
        f"~{v:.6f}" if isinstance(v, float) else f"{v}^{c}" if c > 1 else f"{v}"
        for v, c in reversed(full_spectrum(m).ascending)
    )


def _render_csv(m: Modulus, out: TextIO) -> None:
    s = full_spectrum(m)
    out.write("value,multiplicity,exact\n")
    for v, c in s.integer_part:
        out.write(f"{v},{c},true\n")
    for r in s.residual_values:
        out.write(f"{r!r},1,false\n")


def cmd_spectrum(args: argparse.Namespace) -> int:
    m = _modulus_or_exit(args.n)
    if args.format == "json":
        data = spectrum_json_dict(m)
        # the residual's exact coefficients pass Python's default limit on
        # int-to-str digits from omega = 10 on; before 3.10.7 there is none
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            json.dump(data, sys.stdout, indent=1)
        else:
            limit = sys.get_int_max_str_digits()
            set_limit(0)
            try:
                json.dump(data, sys.stdout, indent=1)
            finally:
                set_limit(limit)
        sys.stdout.write("\n")
    elif args.format == "csv":
        _render_csv(m, sys.stdout)
    else:
        print(_render_pretty(m))
    return EXIT_OK


class _Verifier:
    def __init__(self) -> None:
        self.failed: list[str] = []

    def result(self, name: str, ok: bool, detail: str = "") -> None:
        tag = "ok " if ok else "FAIL"
        print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
        if not ok:
            self.failed.append(name)

    def skip(self, name: str, reason: str) -> None:
        print(f"[skip] {name}: {reason}")

    def report(self, rep: TheoremReport) -> None:
        detail = f"claimed {rep.claimed}, computed {rep.computed}"
        if rep.note:
            detail += f" ({rep.note})"
        self.result(rep.theorem, rep.agrees, detail)


def _first_difference(xs, ys, fill=None) -> tuple[int, object, object] | None:
    """(i, x, y) at the first index i where two (value, multiplicity) run lists
    differ once expanded, the shorter reading ``fill`` past its end; else None."""
    xs, ys = ((r for r in runs if r[1]) for runs in (xs, ys))
    end, i = (fill, math.inf), 0
    (x, cx), (y, cy) = next(xs, end), next(ys, end)
    while x == y and min(cx, cy) < math.inf:
        step = min(cx, cy)
        i, cx, cy = i + step, cx - step, cy - step
        x, cx = (x, cx) if cx else next(xs, end)
        y, cy = (y, cy) if cy else next(ys, end)
    return None if x == y else (i, x, y)


def _verify_spectrum_vs_oracle(v: _Verifier, m: Modulus, s: SpectrumMultiset) -> None:
    name = "spectrum-vs-dense-oracle"
    try:
        dense = dense_spectrum(m)
    except OracleLimitExceeded as exc:
        v.skip(name, str(exc))
        return
    ours = s.values_ascending()
    worst = max(abs(a - b) for a, b in zip(ours, dense))
    same = len(ours) == len(dense)
    v.result(name, same and worst <= _SPECTRUM_TOL, f"max deviation {worst:.2e}"
             if same else f"{len(ours)} eigenvalues, dense oracle {len(dense)}")


def _verify_char_poly(v: _Verifier, m: Modulus, s: SpectrumMultiset) -> None:
    name = "charpoly-join-identity"
    try:
        dense = exact_char_poly_full(m)
    except OracleLimitExceeded as exc:
        v.skip(name, str(exc))
        return
    diff = _first_difference(*([(c, 1) for c in p.coeffs] for p in (dense, s.polynomial())), 0)
    v.result(name, diff is None, "dense determinant equals join formula coefficient-for-coefficient"
             if diff is None else "coefficient of x^%d: dense determinant %d, join formula %d" % diff)


def _verify_closed_form(v: _Verifier, m: Modulus, s: SpectrumMultiset) -> None:
    name = "closed-form-spectrum"
    expected = closed_form_spectrum(m)
    if expected is None:
        v.skip(name, "no closed form for three or more distinct primes")
        return
    # residual roots as text, so that none equals an integer eigenvalue
    diff = _first_difference(*([(f"~{e:.6f}" if isinstance(e, float) else e, c)
                                for e, c in t.ascending] for t in (expected, s)))
    v.result(name, diff is None, "matches spectrum from the quotient pipeline" if diff is None
             else "at ascending index %d: closed form %s, quotient pipeline %s" % diff)


def _verify_connectivity(v: _Verifier, m: Modulus, s: SpectrumMultiset) -> None:
    if m.is_prime:
        v.skip("algebraic-connectivity", "complete graph for prime n")
    else:
        v.report(algebraic_connectivity(m, s))
    try:
        v.report(vertex_connectivity(m))
    except OracleLimitExceeded as exc:
        v.skip("vertex-connectivity", str(exc))
    if m.is_prime:
        v.skip("second-largest-eigenvalue", "complete graph for prime n")
        v.skip("g2-connected-iff-squarefree", "G2 is empty")
        v.skip("phi-multiplicity", "G2 is empty")
        radius, _ = multiplicity_reports(m, s)
        v.report(radius)
    else:
        v.report(second_largest_report(m, s))
        try:
            first, second = g2_connectivity_report(m)
        except OracleLimitExceeded as exc:
            v.skip("g2-connected-iff-squarefree", str(exc))
            v.skip("g2-complement-connected", str(exc))
        else:
            v.report(first)
            if second is not None:
                v.report(second)
            else:
                v.skip("g2-complement-connected", "claim stated for squarefree n only")
        radius, phi_mult = multiplicity_reports(m, s)
        v.report(radius)
        v.report(phi_mult)
    if m.is_squarefree and not m.is_prime:
        try:
            v.report(kappa_g2_bound(m))
        except OracleLimitExceeded as exc:
            v.skip("kappa-g2-bound", str(exc))
    else:
        v.skip("kappa-g2-bound", "bound stated for squarefree composite n")


def cmd_verify(args: argparse.Namespace) -> int:
    m = _modulus_or_exit(args.n)
    v = _Verifier()
    spectrum = full_spectrum(m)
    _verify_spectrum_vs_oracle(v, m, spectrum)
    _verify_char_poly(v, m, spectrum)
    _verify_closed_form(v, m, spectrum)
    _verify_connectivity(v, m, spectrum)
    if v.failed:
        print(f"verify {m.n}: FAILED ({', '.join(v.failed)})")
        return EXIT_DISAGREE
    print(f"verify {m.n}: all executed checks agree")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    if args.start < 3 or args.stop < args.start:
        print(f"invalid range {args.start}..{args.stop}", file=sys.stderr)
        return EXIT_USAGE
    if args.stop > config.SCAN_LIMIT:
        print(f"scan limit is {config.SCAN_LIMIT}", file=sys.stderr)
        return EXIT_USAGE
    records = scan_mod.apply_filter(
        scan_mod.scan_range(args.start, args.stop, args.workers, args.timing),
        args.filter,
    )
    writer: Callable = (
        scan_mod.write_json
        if args.out is not None and args.out.endswith(".json")
        else scan_mod.write_csv
    )
    try:
        if args.out is None:
            total, integral = writer(records, sys.stdout)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                total, integral = writer(records, fh)
    except OSError as exc:
        print(f"cannot write scan output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"scanned {args.start}..{args.stop}: {total} written, "
        f"{integral} integral, {total - integral} non-integral",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_g2(args: argparse.Namespace) -> int:
    m = _modulus_or_exit(args.n)
    if m.is_prime:
        print(f"G2 is empty for prime n={m.n}", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "export":
        for u, w in g2_edges(m):
            print(f"{u} {w}")
        return EXIT_OK
    try:
        if args.action == "components":
            print(count_components(g2_adjacency(m)))
            return EXIT_OK
        computed = vertex_cut(m, g2=True)
    except OracleLimitExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if m.is_squarefree:
        bound = g2_kappa_bound_value(m)
        tight = "tight" if computed == bound else "strict"
        print(f"kappa(G2) = {computed}, bound = {bound}, {tight}")
    else:
        print(f"kappa(G2) = {computed} (no bound: n is not squarefree)")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    m = _modulus_or_exit(args.n)
    if args.action == "edges":
        for u, w in full_edges(m):
            print(f"{u} {w}")
    else:
        json.dump(class_summary(m), sys.stdout, indent=1)
        sys.stdout.write("\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call of the process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="comax",
        description="Exact Laplacian spectra of comaximal graphs of Z_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="print the Laplacian spectrum of n")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="cross-check every law and oracle for n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="scan a range for Laplacian integrality")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output path (.json for JSON, else CSV)")
    p.add_argument("--filter", choices=scan_mod.FILTERS, default="all")
    p.add_argument(
        "--timing",
        action="store_true",
        help="record real per-n wall times (breaks byte determinism)",
    )
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("g2", help="inspect the induced subgraph on nonzero non-units")
    p.add_argument("n", type=int)
    p.add_argument("action", choices=("export", "kappa", "components"))
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("graph", help="export the full graph or its class structure")
    p.add_argument("n", type=int)
    p.add_argument("action", choices=("edges", "classes"))
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    raise SystemExit(main())

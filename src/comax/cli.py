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
import operator
import os
import sys
from collections import Counter
from typing import Callable, TextIO

from . import config, scan as scan_mod
from .comax_graph import class_summary, full_edges, g2_edges
from .connectivity import (
    NotApplicable,
    algebraic_connectivity,
    g2_complement_connected,
    g2_components,
    g2_connected,
    g2_kappa_bound_value,
    kappa_g2_bound,
    phi_multiplicity,
    radius_multiplicity,
    second_largest_report,
    vertex_connectivity,
)
from .oracle import (
    InvolutionSplit,
    OracleLimitExceeded,
    block_power_sums,
    count_components,
    dense_spectrum,
    exact_char_poly_full,
    g2_rows,
    involution_split,
    vertex_cut,
)
from .polynomial import IntPoly, extract_integer_roots
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
_IDENTITY_OK = "dense determinant equals join formula coefficient-for-coefficient"


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


def _spectrum_vs_oracle(
    m: Modulus, s: SpectrumMultiset, split: InvolutionSplit | None = None
) -> tuple[bool, str]:
    dense = dense_spectrum(m, split)
    ours = s.values_ascending()
    if len(ours) != len(dense):
        return False, f"{len(ours)} eigenvalues, dense oracle {len(dense)}"
    worst = max(abs(a - b) for a, b in zip(ours, dense))
    return worst <= _SPECTRUM_TOL, f"max deviation {worst:.2e}"


def _join_power_sums(
    s: SpectrumMultiset, roots: tuple[tuple[int, int], ...], size: int
) -> tuple[int, ...] | None:
    """The exact power sums p_1..p_size of the join formula's charpoly
    divided by prod (x - r)**mult over ``roots``: of prod (x - v)**c over
    the integer part of s less ``roots``, from integer powers, times the
    residual, from Newton's identities on its coefficients.  None where that
    quotient is not a monic polynomial of degree ``size``: some c is
    negative, the residual is not monic, or the degrees differ."""
    counts = Counter(dict(s.integer_part))
    counts.subtract(dict(roots))
    a = s.residual.coeffs[::-1]  # a[i]: the coefficient of x^(d - i)
    d = len(a) - 1
    if min(counts.values(), default=0) < 0 or sum(counts.values()) + d != size or a[0] != 1:
        return None
    # p_j = -j a_j - sum_(i < j) a_i p_(j-i), with a_j = 0 for j > d
    sums = []
    for j in range(1, size + 1):
        p = -j * a[j] if j <= d else 0
        sums.append(p - sum(a[i] * sums[j - i - 1] for i in range(1, min(j, d + 1))))
    for v, c in counts.items():
        power = 1
        for j in range(size):
            power *= v
            sums[j] += c * power
    return tuple(sums)


def _char_poly(
    m: Modulus, s: SpectrumMultiset, split: InvolutionSplit | None = None
) -> tuple[bool, str]:
    # over Q, monic polynomials of degree W are equal exactly when their
    # first W power sums are, so equal sums prove the identity; any other
    # outcome is decided, and named, by the factored comparison below
    roots, sums = block_power_sums(m, split)
    if _join_power_sums(s, roots, len(sums)) == sums:
        return True, _IDENTITY_OK
    dense = exact_char_poly_full(m, split)
    # factor by factor: each dense factor loses the integer eigenvalues of s,
    # and the roots counted and the product of what is left must be s's
    counts = Counter(dict(dense.roots))
    left = IntPoly.one()
    for factor in dense.factors:
        roots, rest = extract_integer_roots(factor, (r for r, _ in s.integer_part))
        counts.update(dict(roots))
        left = left * rest
    if sorted(counts.items(), reverse=True) != list(s.integer_part) or left != s.residual:
        # expanded only to name the first coefficient that differs
        whole = functools.reduce(operator.mul, dense.factors, IntPoly.from_roots(dense.roots))
        diff = _first_difference(*([(c, 1) for c in p.coeffs] for p in (whole, s.polynomial())), 0)
        if diff is not None:
            return False, "coefficient of x^%d: dense determinant %d, join formula %d" % diff
    return True, _IDENTITY_OK


def _closed_form(m: Modulus, s: SpectrumMultiset) -> tuple[bool, str]:
    expected = closed_form_spectrum(m)
    if expected is None:
        raise NotApplicable("no closed form for three or more distinct primes")
    # residual roots as text, so that none equals an integer eigenvalue
    diff = _first_difference(*([(f"~{e:.6f}" if isinstance(e, float) else e, c)
                                for e, c in t.ascending] for t in (expected, s)))
    if diff is None:
        return True, "matches spectrum from the quotient pipeline"
    return False, "at ascending index %d: closed form %s, quotient pipeline %s" % diff


def _law(law: Callable, skip_at_prime: str = "") -> Callable:
    """The check of a law of ``connectivity``; with ``skip_at_prime``, skipped
    at prime n for that reason, where the law returns its boundary value."""
    def check(m: Modulus, s: SpectrumMultiset) -> tuple[bool, str]:
        if skip_at_prime and m.is_prime:
            raise NotApplicable(skip_at_prime)
        r = law(m, s)
        note = f" ({r.note})" if r.note else ""
        return r.agrees, f"claimed {r.claimed}, computed {r.computed}{note}"
    return check


def cmd_verify(args: argparse.Namespace) -> int:
    m = _modulus_or_exit(args.n)
    spectrum = full_spectrum(m)
    # one split for both spectral oracles, taken where the dense limit
    # allows; above it each oracle refuses from n alone
    split = involution_split(m) if m.n <= config.DENSE_LIMIT else None
    # one G2 count for both G2 laws; where it is refused, each law
    # raises its own reason
    try:
        components = g2_components(m)
    except (NotApplicable, OracleLimitExceeded):
        components = None
    # every check in print order: it returns (ok, detail), or raises
    # NotApplicable or OracleLimitExceeded, whose text is the skip reason;
    # built per call, so each law is looked up by its name when verify runs
    checks = (
        ("spectrum-vs-dense-oracle", functools.partial(_spectrum_vs_oracle, split=split)),
        ("charpoly-join-identity", functools.partial(_char_poly, split=split)),
        ("closed-form-spectrum", _closed_form),
        ("algebraic-connectivity", _law(algebraic_connectivity, "complete graph for prime n")),
        ("vertex-connectivity", _law(vertex_connectivity)),
        ("second-largest-eigenvalue", _law(second_largest_report)),
        ("g2-connected-iff-squarefree",
         _law(functools.partial(g2_connected, components=components))),
        ("g2-complement-connected",
         _law(functools.partial(g2_complement_connected, components=components))),
        ("spectral-radius-multiplicity", _law(radius_multiplicity)),
        ("phi-multiplicity", _law(phi_multiplicity, "G2 is empty")),
        ("kappa-g2-bound", _law(kappa_g2_bound)),
    )
    failed = []
    for name, check in checks:
        try:
            ok, detail = check(m, spectrum)
        except (NotApplicable, OracleLimitExceeded) as exc:
            print(f"[skip] {name}: {exc}")
            continue
        print(f"[{'ok ' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"verify {m.n}: FAILED ({', '.join(failed)})")
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
    if args.out is None:
        total, integral = writer(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            total, integral = writer(records, fh)
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
            print(count_components(g2_rows(m)))
            return EXIT_OK
        try:
            r = kappa_g2_bound(m)
        except NotApplicable:
            print(f"kappa(G2) = {vertex_cut(m, g2=True)} (no bound: n is not squarefree)")
        else:
            print(f"kappa(G2) = {r.computed}, bound = {g2_kappa_bound_value(m)}, {r.note}")
    except OracleLimitExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except ArithmeticError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DISAGREE
    except OSError as exc:
        print(f"cannot write {args.command} output: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """The ``comax`` command: ``main``, after which the bytes a closed stdout
    still buffers go to devnull, so that the exit flush cannot fail."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()

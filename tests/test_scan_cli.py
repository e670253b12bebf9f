import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import Executor, Future
from pathlib import Path

import numpy as np
import pytest

from comax import cli, config, connectivity, oracle, polynomial, ring_divisors, scan, spectra
from comax.cli import main
from comax.polynomial import IntPoly
from comax.ring_divisors import Modulus
from comax.scan import ScanRecord, apply_filter, scan_range, write_csv, write_json
from reference import expanded

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "scan_3_2000.csv"


def run_cli(*argv: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "comax.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_compute_record():
    rec = next(scan_range(12, 12))
    assert rec.n == 12
    assert rec.factorization == "2^2*3"
    assert rec.laplacian_integral is True
    assert rec.distinct_prime_count == 2
    assert rec.residual_degree == 0
    assert rec.wall_time_ms == 0

    rec30 = next(scan_range(30, 30))
    assert rec30.laplacian_integral is False
    assert rec30.residual_degree == 4
    assert (rec30.residual_degree == 0) == rec30.laplacian_integral


def test_scan_range_validation():
    with pytest.raises(ValueError):
        list(scan_range(10, 3))
    with pytest.raises(ValueError):
        list(scan_range(2, 5))


def test_scan_filter():
    records = list(scan_range(3, 40))
    integral = list(apply_filter(records, "integral"))
    nonintegral = list(apply_filter(records, "nonintegral"))
    assert len(integral) + len(nonintegral) == len(records)
    assert all(r.laplacian_integral for r in integral)
    assert {r.n for r in nonintegral} == {30}  # the only 3-prime n <= 40


def test_scan_workers_deterministic():
    solo = io.StringIO()
    write_csv(scan_range(3, 120, workers=1), solo)
    multi = io.StringIO()
    write_csv(scan_range(3, 120, workers=4), multi)
    assert solo.getvalue() == multi.getvalue()


@pytest.fixture
def sync_pool(monkeypatch):
    """Replace the scan's process pool with one that runs each task when it
    is submitted and counts submissions; no process is started."""
    pools = []

    class SyncPool(Executor):
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.submitted = 0
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.submitted += 1
            future = Future()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SyncPool)
    return pools


def test_parallel_scan_submits_through_a_bounded_window(sync_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    records = scan_range(3, 5000, workers=2)
    assert next(records).n == 3
    (pool,) = sync_pool
    assert pool.max_workers == 2
    assert pool.submitted <= 2 * pool.max_workers
    records.close()
    sync_pool.clear()
    assert list(scan_range(3, 400, workers=2)) == list(scan_range(3, 400))
    (pool,) = sync_pool
    assert pool.submitted == math.ceil(398 / scan._CHUNK)


def test_parallel_scan_caps_workers(sync_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert list(scan_range(3, 400, workers=5000)) == list(scan_range(3, 400))
    assert [p.max_workers for p in sync_pool] == [2]
    sync_pool.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    list(scan_range(3, 6 + 2 * scan._CHUNK, workers=5000))  # 3 chunks, the last of 4 moduli
    assert [p.max_workers for p in sync_pool] == [3]
    sync_pool.clear()
    list(scan_range(3, 2 + scan._CHUNK, workers=8))  # one chunk: serial, no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    list(scan_range(3, 400, workers=8))  # CPU count unknown: serial
    assert sync_pool == []


def test_timed_scan_batches_one_modulus_at_a_time(sync_pool, monkeypatch):
    batches = []
    real = scan.g2_residual_degrees

    def recording(moduli):
        batches.append(len(moduli))
        return real(moduli)

    monkeypatch.setattr(scan, "g2_residual_degrees", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    untimed = list(scan_range(3, 300))
    assert max(batches) > 1
    for workers in (1, 2):
        batches.clear()
        timed = list(scan_range(3, 300, workers=workers, timing=True))
        assert batches == [1] * 181
        assert [dataclasses.replace(r, wall_time_ms=0) for r in timed] == untimed
        assert all(type(r.wall_time_ms) is int and r.wall_time_ms >= 0 for r in timed)
    assert [p.max_workers for p in sync_pool] == [2]


def test_window_above_three_matches_golden_rows(sync_pool, monkeypatch):
    # rows such as 1020 (radical 510) read a radical below the window, which
    # their own chunk computes; timed, every modulus is a chunk of its own
    header, *rows = GOLDEN.read_text().splitlines(keepends=True)
    want = header + "".join(r for r in rows if int(r.split(",")[0]) >= 1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        for timing in (False, True):
            records = scan_range(1000, 2000, workers=workers, timing=timing)
            buf = io.StringIO()
            write_csv((dataclasses.replace(r, wall_time_ms=0) for r in records), buf)
            assert buf.getvalue() == want
    assert [p.max_workers for p in sync_pool] == [2, 2]


def test_window_chunks_compute_their_own_radicals_below(monkeypatch):
    calls = []
    real = scan.g2_residual_degrees

    def recording(moduli):
        calls.append([m.n for m in moduli])
        return real(moduli)

    monkeypatch.setattr(scan, "g2_residual_degrees", recording)
    start = 1000
    window = range(start, 2001)
    chunks = [window[i : i + scan._CHUNK] for i in range(0, len(window), scan._CHUNK)]
    list(scan_range(start, 2000))
    assert len(calls) == len(chunks)
    for ns, chunk in zip(calls, chunks):
        assert all(Modulus.of(n).is_squarefree for n in ns)
        assert len(set(ns)) == len(ns)
        assert [n for n in ns if n >= start] == [
            n for n in chunk if Modulus.of(n).is_squarefree
        ]
    # 1020 = 2^2 * 3 * 5 * 17 reads 510, which the first chunk computes
    assert 510 in calls[0]


def test_chunk_factorizes_each_modulus_once(monkeypatch):
    # one sieve over the chunk; the radicals below the window are built from
    # the primes of their n
    calls = []
    real = scan.factorize_range

    def counting(lo, hi):
        calls.append((lo, hi))
        return real(lo, hi)

    def refused(n):
        raise AssertionError(f"the chunk factorized {n} on its own")

    monkeypatch.setattr(scan, "factorize_range", counting)
    monkeypatch.setattr(ring_divisors, "factorize", refused)
    ns = range(1000, 1000 + scan._CHUNK)
    rows = scan._compute_chunk(ns, 1000, False)
    monkeypatch.undo()
    assert calls == [(ns[0], ns[-1])]
    assert 510 in {rad for _, _, _, rad, _, _ in rows}  # 1020 = 2^2 * 3 * 5 * 17
    records = [ScanRecord(n, f, d == 0, omega, d, ms) for n, f, omega, _, d, ms in rows]
    assert records == [spectrum_record(n) for n in ns]


def test_scan_on_the_full_path_alone_matches_golden(monkeypatch):
    # no modulus decided from one prime: every residual degree comes from its
    # exact charpoly, as before the one-prime rule
    decided = []
    real = spectra._zero_is_the_only_integer_root

    def undecided(residues, prime, candidates):
        decided.append(int(real(residues, prime, candidates).sum()))
        return np.zeros(len(residues), dtype=bool)

    monkeypatch.setattr(spectra, "_zero_is_the_only_integer_root", undecided)
    buf = io.StringIO()
    write_csv(scan_range(3, 2000), buf)
    assert buf.getvalue() == GOLDEN.read_text()
    assert sum(decided) > 0


def spectrum_record(n: int) -> ScanRecord:
    """The scan record of n from its own G2 spectrum, no fill."""
    m = Modulus.of(n)
    s = spectra.g2_spectrum(m)
    return ScanRecord(
        n=n,
        factorization=m.factorization_str(),
        laplacian_integral=s.is_integral,
        distinct_prime_count=m.omega,
        residual_degree=s.residual.degree,
        wall_time_ms=0,
    )


def test_window_near_scan_limit_matches_each_spectrum():
    start = 999401
    records = list(scan_range(start, 1000000))
    assert records == [spectrum_record(n) for n in range(start, 1000001)]
    moduli = map(Modulus.of, range(start, 1000001))
    assert sum(m.omega > 2 and m.radical < start for m in moduli) == 188


def test_far_window_fill_table_is_sized_by_the_window(monkeypatch):
    # a window far above the scan limit keeps two bytes per n of the window,
    # not per n below its end.  The charpoly kernel's working set, a few
    # stacks of _BATCH_CELLS int64 entries (about 2 MiB at the default), is
    # shrunk so that the traced peak is the scan's own
    monkeypatch.setattr(polynomial, "_BATCH_CELLS", 1 << 12)
    start = 10**8
    tracemalloc.start()
    try:
        records = list(scan_range(start, start + 99))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert records == [spectrum_record(n) for n in range(start, start + 100)]


def test_fill_table_holds_degrees_above_255(monkeypatch):
    # squarefree n with omega >= 9 (from 223092870) have w = 510 and residual
    # degrees above one byte; 60 = 2^2 * 3 * 5 is filled from 30's entry
    def degree_300(moduli):
        return [300] * len(moduli)

    monkeypatch.setattr(scan, "g2_residual_degrees", degree_300)
    records = list(scan_range(30, 60))
    assert (records[0].n, records[0].residual_degree) == (30, 300)
    assert (records[-1].n, records[-1].residual_degree) == (60, 300)
    assert not records[-1].laplacian_integral


def test_integral_exactly_when_at_most_two_primes():
    # the paper proves omega(n) <= 2 integral; this checks the converse over 3..5000
    records = list(scan_range(3, 5000))
    assert len(records) == 4998
    assert sum(r.laplacian_integral for r in records) == 2897
    mismatches = [
        r.n for r in records if r.laplacian_integral != (r.distinct_prime_count <= 2)
    ]
    assert mismatches == []


def test_write_json_roundtrip():
    buf = io.StringIO()
    total, integral = write_json(scan_range(3, 12), buf)
    rows = json.loads(buf.getvalue())
    assert total == 10 and len(rows) == 10
    assert rows[0]["n"] == 3
    assert all(
        set(r) == {
            "n",
            "factorization",
            "laplacian_integral",
            "distinct_prime_count",
            "residual_degree",
            "wall_time_ms",
        }
        for r in rows
    )


def test_write_json_matches_one_dump():
    # the streamed layout is that of one json.dumps of the whole list, also
    # for an empty result (3..29 has no non-integral n)
    for records in (
        list(scan_range(3, 300)),
        list(apply_filter(scan_range(3, 300), "nonintegral")),
        list(apply_filter(scan_range(3, 29), "nonintegral")),
    ):
        buf = io.StringIO()
        counts = write_json(records, buf)
        rows = [dataclasses.asdict(r) for r in records]
        assert buf.getvalue() == json.dumps(rows, indent=1) + "\n"
        assert counts == (len(records), sum(r.laplacian_integral for r in records))
    assert records == []


def test_write_json_streams():
    buf = io.StringIO()
    records = list(scan_range(3, 5))

    def source():
        for i, rec in enumerate(records):
            if i == 1:
                assert '"n": 3' in buf.getvalue()  # the first record is out
            yield rec

    assert write_json(source(), buf) == (3, 3)


def test_cli_spectrum_pretty(capsys):
    assert main(["spectrum", "6", "--format", "pretty"]) == 0
    assert capsys.readouterr().out.strip() == "6^2 5 3 2 0"


def test_cli_spectrum_json(capsys):
    assert main(["spectrum", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["integer_eigenvalues"] == [[4, 2], [2, 1], [0, 1]]
    assert data["laplacian_integral"] is True
    assert data["residual_poly"] is None


def test_cli_spectrum_json_prints_coefficients_of_any_length(monkeypatch, capsys):
    # omega = 10 residuals have coefficients beyond Python's default limit
    # of 4300 digits for int-to-str conversion
    big = 7 * (10**5000 - 1) // 9
    monkeypatch.setattr(
        cli, "spectrum_json_dict", lambda m: {"n": m.n, "residual_poly": [big, 1]}
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["spectrum", "15", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert f'"residual_poly": [\n  {"7" * 5000},\n  1\n ]' in out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cli_spectrum_csv(capsys):
    assert main(["spectrum", "30", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "value,multiplicity,exact"
    assert lines[1] == "30,8,true"
    assert sum(1 for ln in lines[1:] if ln.endswith("false")) == 4


@pytest.fixture
def exact_charpolys(monkeypatch):
    """The sizes of the core stacks sent to the exact charpoly kernel
    through ``spectra``, one entry per call."""
    calls = []
    exact = spectra.char_polys

    def recording(stack, supports):
        calls.append(np.shape(stack))
        return exact(stack, supports)

    monkeypatch.setattr(spectra, "char_polys", recording)
    return calls


def test_printed_spectra_take_the_exact_charpoly_only_for_the_residual(exact_charpolys, capsys):
    # pretty and csv print the integer eigenvalues and the residual floats, which
    # the one-prime rule gives for 30030; JSON prints the exact residual, and
    # verify (n <= 64) compares it with the dense oracle's charpoly
    for fmt in ("pretty", "csv"):
        assert main(["spectrum", "30030", "--format", fmt]) == 0
        assert exact_charpolys == [], fmt
    assert main(["spectrum", "30030", "--format", "json"]) == 0
    assert exact_charpolys == [(1, 62, 62)]
    exact_charpolys.clear()
    assert main(["verify", "60"]) == 0
    assert exact_charpolys == [(1, 6, 6)]
    capsys.readouterr()


def test_undecided_moduli_take_the_exact_charpoly_eagerly(exact_charpolys):
    # 0 is not the only integer root of the quotients of 30 and 255
    spectra.g2_spectra([Modulus.of(n) for n in (30, 255, 2310)])
    assert exact_charpolys == [(2, 6, 6)]


def test_a_residual_failing_its_check_fails_where_it_is_read(monkeypatch, capsys):
    residues = polynomial._structured_residues
    m = Modulus.of(39270)
    [b] = [g[3][0] for g in spectra._size_groups([m])]

    def off_by_one_trace(stack, supports, primes):
        out = residues(stack, supports, primes)
        for i, core in enumerate(stack):
            if np.array_equal(core, b):
                rows = slice(i * len(primes), (i + 1) * len(primes))
                out[rows, -2] = (out[rows, -2] + 1) % np.array(primes)
        return out

    monkeypatch.setattr(polynomial, "_structured_residues", off_by_one_trace)
    s = spectra.g2_spectrum(m)  # decided: no charpoly yet
    with pytest.raises(ArithmeticError, match=r"^n=39270: x\^\(w-1\) coefficient"):
        s.residual
    assert main(["spectrum", "39270", "--format", "pretty"]) == 0
    capsys.readouterr()
    assert main(["spectrum", "39270", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "n=39270: x^(w-1) coefficient of the characteristic polynomial is not -trace\n"
    )


# a JSON and a pretty spectrum, a usage error and a verify
PARSER_RUNS = (
    ["spectrum", "30", "--format", "json"],
    ["spectrum", "30"],
    ["spectrum"],
    ["verify", "12"],
)


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_calls_share_one_parser_and_no_state(capsys):
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    shared = [_outcome(argv, capsys) for argv in PARSER_RUNS]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "usage: comax spectrum" in shared[2][2]
    fresh = []
    for argv in PARSER_RUNS:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert shared == fresh


def test_cli_spectrum_rejects_small_n():
    code, _, err = run_cli("spectrum", "2")
    assert code == 2
    assert "at least 3" in err


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_cli_refused_modulus_is_one_stderr_line(command, capsys):
    assert main([command, str(3 * 2**70)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "cannot separate integers" in err


@pytest.mark.parametrize(
    "n, bound",
    [
        (3 * 2**70, "1.57e+06"),
        # w * ||B||_inf = 3 * 2 * (2 * 3**699), beyond the float range once times eps
        (2 * 3**700, "8.58e+318"),
    ],
    ids=["3*2^70", "2*3^700"],
)
def test_cli_refusal_states_the_bound_at_any_size(n, bound, capsys):
    assert main(["spectrum", str(n)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"n={n}: eigensolver error bound {bound} cannot separate integers\n"


def test_cli_verify_composite():
    code, out, _ = run_cli("verify", "12")
    assert code == 0, out
    assert "all executed checks agree" in out


def test_cli_verify_matches_dense_oracle_at_2310(capsys):
    # degree-29 residual: its printed roots must meet the dense oracle at 1e-6
    assert main(["verify", "2310"]) == 0
    assert "[ok ] spectrum-vs-dense-oracle" in capsys.readouterr().out


def test_cli_verify_builds_the_g2_quotient_once(monkeypatch, capsys):
    calls = []
    real = spectra._cells

    def counting(m):
        calls.append(m.n)
        return real(m)

    monkeypatch.setattr(spectra, "_cells", counting)
    assert main(["verify", "30"]) == 0
    assert calls == [30]


def test_cli_verify_prime():
    code, out, _ = run_cli("verify", "7")
    assert code == 0, out
    assert "[skip] algebraic-connectivity" in out
    for line in [
        "[skip] second-largest-eigenvalue: complete graph for prime n",
        "[skip] g2-connected-iff-squarefree: G2 is empty",
        "[skip] g2-complement-connected: G2 is empty",
        "[skip] phi-multiplicity: G2 is empty",
        "[skip] kappa-g2-bound: bound stated for squarefree composite n",
    ]:
        assert f"\n{line}\n" in out


def test_cli_verify_prime_power_detects_multiplicity_failure():
    # the n/rad multiplicity law genuinely fails at prime powers; verify
    # must report the disagreement
    code, out, _ = run_cli("verify", "9")
    assert code == 1
    assert "phi-multiplicity" in out


VERIFY_CHECKS = [
    "spectrum-vs-dense-oracle",
    "charpoly-join-identity",
    "closed-form-spectrum",
    "algebraic-connectivity",
    "vertex-connectivity",
    "second-largest-eigenvalue",
    "g2-connected-iff-squarefree",
    "g2-complement-connected",
    "spectral-radius-multiplicity",
    "phi-multiplicity",
    "kappa-g2-bound",
]


@pytest.mark.parametrize("n", [4, 7, 9, 12, 30, 5460])
def test_verify_prints_every_check_in_one_order(n, capsys):
    main(["verify", str(n)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("] ")[1].split(":")[0] for line in lines[:-1]] == VERIFY_CHECKS


def test_verify_complement_skip_above_the_dense_cap_names_the_claim(monkeypatch, capsys):
    # 5460 = 2^2*3*5*7*13: G2 has 4307 vertices, above the dense cap, but the
    # complement claim is not stated for non-squarefree n in the first place
    monkeypatch.setattr(config, "DENSE_LIMIT", 100)
    assert main(["verify", "5460"]) == 0
    out = capsys.readouterr().out
    assert "\n[skip] g2-connected-iff-squarefree: |V(G2)|=4307 exceeds dense limit 100\n" in out
    assert "\n[skip] g2-complement-connected: claim stated for squarefree n only\n" in out


def test_cli_verify_rejects_small_n():
    code, _, _ = run_cli("verify", "2")
    assert code == 2


def plant_in_split(monkeypatch, plant) -> None:
    """The charpoly entry of ``cli`` reads ``plant`` of the split it is
    handed, or of ``twin_split(m)`` when handed none; the dense oracle
    reads the split itself."""
    real = cli.block_power_sums

    def planted(m, split=None):
        return real(m, plant(oracle.twin_split(m) if split is None else split))

    monkeypatch.setattr(cli, "block_power_sums", planted)


def test_verify_charpoly_failure_names_the_lowest_differing_power(monkeypatch, capsys):
    # the root -1 in the split: the dense determinant gains the factor (x + 1)
    plant_in_split(monkeypatch, lambda split: split._replace(roots=((-1, 1), *split.roots)))
    assert main(["verify", "12"]) == 1
    # times (x + 1), c_k becomes c_k + c_(k-1): c_0 = 0 (the eigenvalue 0)
    # and c_1 stay, and x^2 is the first power to move
    c = spectra.full_spectrum(Modulus.of(12)).polynomial().coeffs
    assert c[0] == 0 and c[1] != 0
    out = capsys.readouterr().out
    assert (f"[FAIL] charpoly-join-identity: coefficient of x^2: "
            f"dense determinant {c[2] + c[1]}, join formula {c[2]}\n") in out
    assert out.endswith("verify 12: FAILED (charpoly-join-identity)\n")


def moved_root(split: oracle.TwinSplit) -> oracle.TwinSplit:
    """The split's largest root loses one of its multiplicity, and the
    integer below it gains one."""
    roots = dict(split.roots)
    r = max(roots)
    roots[r] -= 1
    roots[r - 1] = roots.get(r - 1, 0) + 1
    return split._replace(roots=tuple(sorted(roots.items())))


def moved_multiplicity(monkeypatch) -> None:
    """The oracle's largest root loses one of its multiplicity, and the
    integer below it gains one, in the split of the charpoly entry."""
    plant_in_split(monkeypatch, moved_root)


def residual_off_by_one(monkeypatch) -> None:
    """The join formula's residual with its constant coefficient one higher."""
    real = cli.full_spectrum

    def shifted(m):
        s = real(m)
        c0, *rest = s.residual.coeffs
        residual = IntPoly((c0 + 1, *rest))
        return spectra.SpectrumMultiset(s.integer_part, residual, s.residual_values)

    monkeypatch.setattr(cli, "full_spectrum", shifted)


@pytest.mark.parametrize("plant", [moved_multiplicity, residual_off_by_one])
@pytest.mark.parametrize("n", [30, 42, 60])
def test_verify_charpoly_failure_from_a_planted_factor(monkeypatch, capsys, plant, n):
    # the n <= 64 whose residual is not 1; each side is expanded here, and
    # verify must name the first coefficient that differs
    plant(monkeypatch)
    m = Modulus.of(n)
    dense, join = expanded(*cli.block_power_sums(m)), cli.full_spectrum(m).polynomial()
    k, a, b = next((k, a, b) for k, (a, b) in enumerate(
        itertools.zip_longest(dense.coeffs, join.coeffs, fillvalue=0)) if a != b)
    assert main(["verify", str(n)]) == 1
    out = capsys.readouterr().out
    assert (f"\n[FAIL] charpoly-join-identity: coefficient of x^{k}: "
            f"dense determinant {shown(a)}, join formula {shown(b)}\n") in out
    assert out.endswith(f"verify {n}: FAILED (charpoly-join-identity)\n")


def shown(value: int) -> str:
    """A coefficient as a fail line prints it: in full up to 50 digits, else
    its first and last ten digits and its digit count."""
    digits = str(abs(value))
    if len(digits) <= 50:
        return str(value)
    return f"{'-' * (value < 0)}{digits[:10]}...{digits[-10:]} ({len(digits)} digits)"


def test_an_ok_charpoly_identity_expands_no_product(monkeypatch):
    spectra_by_n = {n: spectra.full_spectrum(Modulus.of(n)) for n in range(3, 65)}
    for s in spectra_by_n.values():
        s.residual  # taken on first read, here before the products are refused

    def refuse(*args):
        raise AssertionError("a degree-n product was expanded")

    monkeypatch.setattr(spectra.SpectrumMultiset, "polynomial", refuse)
    monkeypatch.setattr(IntPoly, "from_roots", classmethod(refuse))
    for n, s in spectra_by_n.items():
        assert cli._char_poly(Modulus.of(n), s) == (
            True, "dense determinant equals join formula coefficient-for-coefficient"), n


IDENTITY_OK = "dense determinant equals join formula coefficient-for-coefficient"


def test_an_ok_charpoly_identity_runs_no_charpoly_and_divides_no_root(monkeypatch, capsys):
    # the power sums decide every n <= 64: no Hessenberg charpoly, CRT of
    # its coefficients or synthetic division by a root is made
    spectra_by_n = {n: spectra.full_spectrum(Modulus.of(n)) for n in range(3, 65)}
    monkeypatch.setattr(cli, "full_spectrum", lambda m: spectra_by_n[m.n])
    calls = []

    def recorder(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for module, name in [(polynomial, "char_polys"), (polynomial, "_char_poly_mod"),
                         (polynomial, "extract_integer_roots")]:
        monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    for n in spectra_by_n:
        main(["verify", str(n)])
        assert f"\n[ok ] charpoly-join-identity: {IDENTITY_OK}\n" in capsys.readouterr().out, n
    assert calls == []


def changed_quotient_entry(split: oracle.TwinSplit) -> oracle.TwinSplit:
    """The split's quotient with its last diagonal entry, that of the class
    {0}, one lower, and with it its trace."""
    quotient = split.quotient.copy()
    quotient[-1, -1] -= 1
    return split._replace(quotient=quotient)


@pytest.mark.parametrize("n", [4, 12, 30, 42, 60, 62])
def test_the_power_sums_refuse_every_planted_defect(n):
    m = Modulus.of(n)
    s, split = spectra.full_spectrum(m), oracle.twin_split(m)
    roots, sums = oracle.block_power_sums(m, split)
    assert cli._join_power_sums(s, roots, len(sums)) == sums
    planted = [(s, moved_root(split)), (s, changed_quotient_entry(split))]
    if s.residual.degree:
        c0, *rest = s.residual.coeffs
        off = spectra.SpectrumMultiset(s.integer_part, IntPoly((c0 + 1, *rest)), s.residual_values)
        planted.append((off, split))
    assert len(planted) == (3 if n in (30, 42, 60) else 2)
    for spectrum, planted_split in planted:
        roots, sums = oracle.block_power_sums(m, planted_split)
        assert cli._join_power_sums(spectrum, roots, len(sums)) != sums
        ok, detail = cli._char_poly(m, spectrum, planted_split)
        assert not ok and detail.startswith("coefficient of x^"), detail


def test_the_power_sums_refuse_a_constant_coefficient_alone():
    # the whole charpoly as the residual, with its constant coefficient one
    # higher: by Newton's identities only p_W moves
    m = Modulus.of(30)
    split = oracle.twin_split(m)
    roots, sums = oracle.block_power_sums(m, split)
    factor = expanded((), sums)
    integer_part = tuple(sorted(split.roots, reverse=True))
    assert len(sums) == factor.degree == 8
    exact = spectra.SpectrumMultiset(integer_part, factor)
    assert cli._join_power_sums(exact, roots, len(sums)) == sums
    c0, *rest = factor.coeffs
    off = spectra.SpectrumMultiset(integer_part, IntPoly((c0 + 1, *rest)))
    join = cli._join_power_sums(off, roots, len(sums))
    assert join[:-1] == sums[:-1] and join[-1] != sums[-1]
    # the expanded comparison names the first differing coefficient
    dense, other = (IntPoly.from_roots(split.roots) * p for p in (factor, off.residual))
    k, a, b = next((k, a, b) for k, (a, b) in enumerate(zip(dense.coeffs, other.coeffs)) if a != b)
    assert cli._char_poly(m, off, split) == (
        False, f"coefficient of x^{k}: dense determinant {a}, join formula {b}")


@pytest.mark.parametrize("n", [12, 30, 60])
def test_a_root_moved_into_the_residual_keeps_the_identity(n):
    # every unit of the split's largest root r moved into the residual as
    # (x - r)^c: the spectrum's integer part no longer holds the split's
    # roots, so no power sums are compared, but the expanded charpoly is the
    # same and the identity holds
    m = Modulus.of(n)
    s = spectra.full_spectrum(m)
    roots, sums = oracle.block_power_sums(m)
    r = max(dict(roots))
    c = dict(s.integer_part)[r]
    rest = tuple(pair for pair in s.integer_part if pair[0] != r)
    moved = spectra.SpectrumMultiset(rest, s.residual * IntPoly.linear_power(r, c))
    assert cli._join_power_sums(moved, roots, len(sums)) is None
    assert cli._char_poly(m, moved) == (True, IDENTITY_OK)


def changed_quotient(monkeypatch) -> None:
    """The oracle's quotient with one entry changed, in the split of the
    charpoly entry."""
    plant_in_split(monkeypatch, changed_quotient_entry)


@pytest.mark.parametrize("plant", [moved_multiplicity, residual_off_by_one, changed_quotient])
@pytest.mark.parametrize("n", [30, 2310, 30030])
def test_verify_fails_the_identity_on_a_planted_defect(monkeypatch, capsys, plant, n):
    # at a small n, above the old exact limit of 64, and near the dense
    # limit, where the sides have degree 30030 and only their common
    # factor's lowest coefficients are expanded
    plant(monkeypatch)
    assert main(["verify", str(n)]) == 1
    out = capsys.readouterr().out
    assert "\n[FAIL] charpoly-join-identity: coefficient of x^" in out
    assert out.endswith(f"verify {n}: FAILED (charpoly-join-identity)\n")


def test_a_fail_line_at_30030_prints_long_coefficients_by_their_ends(monkeypatch, capsys):
    # the changed-quotient plant at 30030 differs at the constant
    # coefficient, whose dense value has over 127,000 digits: the line still
    # names x^0, and prints that value as its first and last ten digits and
    # its digit count
    changed_quotient(monkeypatch)
    assert main(["verify", "30030"]) == 1
    [line] = (ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]"))
    assert len(line) < 400, len(line)
    match = re.fullmatch(
        r"\[FAIL\] charpoly-join-identity: coefficient of x\^0: "
        r"dense determinant -?\d{10}\.\.\.\d{10} \((\d+) digits\), join formula 0", line)
    assert match and int(match[1]) > 127_000, line


def test_verify_checks_the_charpoly_identity_above_the_exact_limit(capsys):
    # omega = 4: residuals that no n up to 64, the exact oracle's old
    # limit, has; the identity now runs wherever the split runs
    for n in (420, 840, 1155):
        assert Modulus.of(n).omega == 4
        main(["verify", str(n)])
        assert ("\n[ok ] charpoly-join-identity: dense determinant equals join formula "
                "coefficient-for-coefficient\n") in capsys.readouterr().out, n


def test_verify_closed_form_failure_names_the_first_differing_eigenvalue(monkeypatch, capsys):
    def moved_zero(m):
        counts = spectra.closed_form_spectrum(m).as_counter()
        counts[0] -= 1
        counts[1] += 1
        return spectra.SpectrumMultiset.from_counter(counts)

    monkeypatch.setattr(cli, "closed_form_spectrum", moved_zero)
    assert main(["verify", "12"]) == 1
    out = capsys.readouterr().out
    assert ("[FAIL] closed-form-spectrum: at ascending index 0: "
            "closed form 1, quotient pipeline 0\n") in out
    assert out.endswith("verify 12: FAILED (closed-form-spectrum)\n")


def _traced_verify(n):
    """Exit code of ``comax verify n``, which must trace at most 4 MiB."""
    tracemalloc.start()
    try:
        code = main(["verify", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    return code


# 2^24 and the prime 2^24 + 43: one expanded list of eigenvalues alone would
# take 8n bytes, 128 MiB, where the closed-form check needs a few runs
@pytest.mark.parametrize("n, code", [(2**24, 1), (2**24 + 43, 0)])
def test_verify_closed_form_never_expands_the_spectrum(capsys, n, code):
    # at most two primes, so the closed form is checked; 2^24 fails phi-multiplicity
    assert _traced_verify(n) == code
    out = capsys.readouterr().out
    assert "[ok ] closed-form-spectrum: matches spectrum from the quotient pipeline\n" in out


def test_verify_closed_form_failure_inside_a_run_names_its_index(monkeypatch, capsys):
    # K_p: eigenvalue p with multiplicity p - 1; move its last copy to p + 1
    p = 2**24 + 43

    def moved_last(m):
        counts = spectra.closed_form_spectrum(m).as_counter()
        counts[p] -= 1
        counts[p + 1] += 1
        return spectra.SpectrumMultiset.from_counter(counts)

    monkeypatch.setattr(cli, "closed_form_spectrum", moved_last)
    assert _traced_verify(p) == 1
    out = capsys.readouterr().out
    assert (f"[FAIL] closed-form-spectrum: at ascending index {p - 1}: "
            f"closed form {p + 1}, quotient pipeline {p}\n") in out


@pytest.mark.parametrize("xs, ys, fill, want", [
    ([(0, 1), (2, 3)], [(0, 1), (2, 3)], None, None),
    ([(0, 1), (2, 3)], [(0, 1), (2, 2), (3, 1)], None, (3, 2, 3)),
    ([(0, 1), (2, 3)], [(0, 1), (2, 2)], None, (3, 2, None)),
    ([(2, 0)], [(0, 3), (1, 3)], 0, (3, 0, 1)),  # empty runs are skipped
    ([(5, 2), (0, 0)], [(5, 2), (0, 4)], 0, None),  # past the end reads fill
])
def test_first_difference_walks_runs_as_if_expanded(xs, ys, fill, want):
    assert cli._first_difference(xs, ys, fill) == want


def test_verify_dense_spectrum_failure_names_both_counts(monkeypatch, capsys):
    real = cli.dense_spectrum
    monkeypatch.setattr(cli, "dense_spectrum", lambda m, split: real(m, split)[:-1])
    assert main(["verify", "12"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] spectrum-vs-dense-oracle: 12 eigenvalues, dense oracle 11\n" in out
    assert out.endswith("verify 12: FAILED (spectrum-vs-dense-oracle)\n")


def test_verify_skip_lines_are_the_oracle_refusals(monkeypatch, capsys):
    monkeypatch.setattr(config, "DENSE_LIMIT", 64)
    assert main(["verify", "65"]) == 0
    assert "\n[skip] charpoly-join-identity: n exceeds dense limit 64\n" in capsys.readouterr().out
    # above the dense limit the spectrum is not expanded into floats
    monkeypatch.setattr(config, "DENSE_LIMIT", 60)

    def expand(self):
        raise AssertionError("spectrum expanded above the dense limit")

    monkeypatch.setattr(spectra.SpectrumMultiset, "values_ascending", expand)
    assert main(["verify", "65"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[skip] spectrum-vs-dense-oracle: n exceeds dense limit 60\n")


def test_verify_splits_once_and_builds_one_g2_adjacency(monkeypatch, capsys):
    splits, checks, handed = [], [], []

    def split(m):
        splits.append((m.n, real_split(m)))
        return splits[-1][1]

    def classes(m, verts):
        checks.append((m.n, len(verts)))
        return real_classes(m, verts)

    real_split, real_classes = oracle.twin_split, oracle.twin_classes
    # the oracles split through the module's own name when handed none
    monkeypatch.setattr(oracle, "twin_split", split)
    monkeypatch.setattr(cli, "twin_split", split)
    monkeypatch.setattr(oracle, "twin_classes", classes)
    for name in ("dense_spectrum", "block_power_sums"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda m, split, real=real: handed.append(split) or real(m, split)
        )
    ns = [*range(3, 65), 2310, 4080, 4093]
    for n in ns:
        main(["verify", str(n)])
    assert [n for n, _ in splits] == ns
    # both spectral oracles get the split itself
    assert [id(h) for h in handed] == [id(s) for _, s in splits for _ in (0, 1)]
    # every row is checked once, by the split: the cuts and the G2 laws read
    # its classes, and no G2 row source is built
    assert checks == [(n, n) for n in ns]
    # above the dense limit no split is made, and both oracles refuse; where
    # G2 is under it, its own rows are checked once for the three G2 laws:
    # 4097 = 17 * 241 has 256 of them, 5460 has 4307
    monkeypatch.setattr(config, "DENSE_LIMIT", 4096)
    splits.clear()
    checks.clear()
    capsys.readouterr()
    assert main(["verify", "5460"]) == 0
    assert main(["verify", "4097"]) == 0
    assert splits == []
    assert checks == [(4097, 256)]
    out = capsys.readouterr().out
    assert out.startswith(
        "[skip] spectrum-vs-dense-oracle: n exceeds dense limit 4096\n"
        "[skip] charpoly-join-identity: n exceeds dense limit 4096\n"
    )
    assert "\n[skip] g2-connected-iff-squarefree: |V(G2)|=4307 exceeds dense limit 4096\n" in out
    assert "\n[ok ] kappa-g2-bound: claimed <= 16, computed 16 (tight)\nverify 4097: " in out


def test_verify_counts_g2_components_again_after_the_dense_limit_moves(monkeypatch, capsys):
    main(["verify", "30"])
    assert "\n[ok ] g2-connected-iff-squarefree: claimed True, computed True\n" in (
        capsys.readouterr().out
    )
    monkeypatch.setattr(config, "DENSE_LIMIT", 10)
    main(["verify", "30"])
    out = capsys.readouterr().out
    assert "\n[skip] g2-connected-iff-squarefree: |V(G2)|=21 exceeds dense limit 10\n" in out
    assert "\n[skip] g2-complement-connected: |V(G2)|=21 exceeds dense limit 10\n" in out


def test_verify_output_of_the_bench_moduli_keeps_its_sha256(capsys):
    # the inputs of the verify benchmark at seed 0, concatenated
    codes = {n: main(["verify", str(n)]) for n in [*range(3, 65), 2310]}
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "7172b0df4f42b3d15c54d2840312a4f4fada5c250664d6f93608ed4164747919"
    # only the prime powers fail, on phi-multiplicity: their G2 is a null graph
    assert {n for n, code in codes.items() if code} == {4, 8, 9, 16, 25, 27, 32, 49, 64}
    assert set(codes.values()) == {0, 1}


def test_cli_scan_roundtrip(tmp_path: Path):
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        "scan", "--from", "3", "--to", "40", "--out", str(out)
    )
    assert code == 0
    assert "38 written" in err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "n,factorization,laplacian_integral,distinct_prime_count,"
        "residual_degree,wall_time_ms"
    )
    assert lines[1] == "3,3,true,1,0,0"
    row30 = next(ln for ln in lines if ln.startswith("30,"))
    assert row30 == "30,2*3*5,false,3,4,0"


def test_cli_scan_json(tmp_path: Path):
    out = tmp_path / "scan.json"
    code, _, _ = run_cli("scan", "--from", "3", "--to", "10", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())
    assert [r["n"] for r in rows] == list(range(3, 11))


def test_cli_scan_bad_range():
    code, _, _ = run_cli("scan", "--from", "10", "--to", "3")
    assert code == 2


def test_cli_scan_unwritable_path(tmp_path: Path):
    code, _, _ = run_cli(
        "scan", "--from", "3", "--to", "5", "--out",
        str(tmp_path / "missing" / "scan.csv"),
    )
    assert code == 3


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises, as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        *(["spectrum", "30", "--format", f] for f in ("json", "csv", "pretty")),
        ["graph", "12", "edges"],
        ["graph", "12", "classes"],
        *(["g2", "15", action] for action in ("export", "kappa", "components")),
        ["verify", "12"],
    ],
    ids="-".join,
)
def test_cli_closed_stdout_exits_3_with_one_line(capsys, argv):
    with contextlib.redirect_stdout(ClosedStdout()):
        code = main(argv)
    assert code == 3
    assert capsys.readouterr().err == f"cannot write {argv[0]} output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv, first",
    [
        # 879 kB of edges, far more than a pipe buffers: writes go on after
        # the reader has closed its end
        (["graph", "600", "edges"], "0 1\n"),
        # one short line, still in the buffer when the reader closes its end
        (["spectrum", "30"], None),
    ],
    ids=["graph-600-edges", "spectrum-30"],
)
@pytest.mark.parametrize("launch", [["-m", "comax.cli"], "entry point"], ids=["module", "script"])
def test_cli_stdout_closed_by_its_reader_exits_3(argv, first, launch):
    # stdout block-buffered, as it is on a pipe by default, so the short
    # output is still buffered when the command returns; run as a module
    # and as the `comax` script
    if launch == "entry point":
        launch = ["-c", entry_point_wrapper()]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, *launch, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    if first is not None:
        assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 3
    assert err == f"cannot write {argv[0]} output: [Errno 32] Broken pipe\n"


def test_cli_g2(capsys):
    assert main(["g2", "15", "kappa"]) == 0
    assert "kappa(G2) = 2, bound = 2, tight" in capsys.readouterr().out

    assert main(["g2", "105", "kappa"]) == 0
    out = capsys.readouterr().out
    assert "bound = 8" in out and "kappa(G2) = 8" in out

    assert main(["g2", "12", "components"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert main(["g2", "12", "export"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2 3"
    assert all(len(ln.split()) == 2 for ln in lines)


def test_cli_g2_prime_is_usage_error():
    code, _, err = run_cli("g2", "7", "export")
    assert code == 2
    assert "empty" in err


def test_cli_g2_kappa_nonsquarefree(capsys):
    assert main(["g2", "12", "kappa"]) == 0
    out = capsys.readouterr().out
    assert "kappa(G2) = 0" in out and "not squarefree" in out


def test_nonintegral_scan_hits_still_verify_clean():
    # non-integrality is about the nature of the roots, not an error: every
    # n a scan flags non-integral must still agree with the dense oracle
    for n in (30, 60, 210):
        assert not next(scan_range(n, n)).laplacian_integral
        code, out, _ = run_cli("verify", str(n))
        assert code == 0, (n, out)


def test_cli_graph_exports(capsys):
    assert main(["graph", "4", "edges"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0 1", "0 3", "1 2", "1 3", "2 3"]

    assert main(["graph", "12", "classes"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["divisor"] == 1 and rows[0]["size"] == 4


def entry_point_wrapper() -> str:
    """The callable that pyproject.toml declares as the `comax` script, run
    the way the generated wrapper runs it, so no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["comax"]
    module, _, func = target.partition(":")
    return f"import sys\nfrom {module} import {func}\nsys.exit({func}())"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c", entry_point_wrapper(), "spectrum", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "6^2 5 3 2 0"


@pytest.mark.skipif(
    shutil.which("comax") is None, reason="no installed comax executable on PATH"
)
def test_installed_console_script():
    proc = subprocess.run(
        ["comax", "spectrum", "6"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6^2 5 3 2 0"

"""Benchmark runner for comax.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--tag TAG]

A single workload prints a human-readable table and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from one traced serial pass (see
tracing.py).  ``--workload all`` runs every workload untraced and traced in
fresh interpreters, prints one summary table under the metric names of the
roadmap and writes ``.bench_out/BENCH_<tag>.json``.

The package is driven only through its public entry points
(``comax.cli.main``, ``comax.scan.scan_range`` / ``write_csv``) and loaded
from ``src/`` of the checkout; nothing is installed.  Workloads, seed rule
and metrics are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
from tracing import Tracer, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"

LADDER = (2310, 5040, 15120, 30030)
VERIFY_SMALL = tuple(range(3, 65))
VERIFY_LARGE = 2310
SCAN_START, SCAN_STOP = 3, 2000
SCAN_MODULI = SCAN_STOP - SCAN_START + 1
SCAN_WORKERS = (1, 2)
WORKLOADS = ("ladder", "scan", "verify")
SETUP_LAUNCHES = 15
REF_INTERVAL_S = 2.0  # timed work between two reference bursts


def substitute(n0: int, seed: int) -> int:
    """Seed rule for a named large modulus: itself at seed 0, otherwise the
    next larger modulus with the same prime-exponent signature (same w,
    different quotient entries)."""
    if seed == 0:
        return n0
    sig = gate.signature(n0)
    m = n0 + 1
    while gate.signature(m) != sig:
        m += 1
    return m


def reference_burst() -> float:
    """Wall time of a fixed pure-Python integer computation that never
    touches comax: fraction-free elimination of a fixed diagonally dominant
    36 x 36 matrix, 30 times (about 0.2 s on a 2.1 GHz Xeon core).

    Shared virtual machines change speed by half and more over minutes.
    Bursts interleaved with the timed work measure the speed the host gives
    this process at the time, and ``pass_ref`` divides it out."""
    k = 36
    start = time.perf_counter()
    for _ in range(30):
        a = [[200 if i == j else (7 * i + 13 * j) % 17 - 8 for j in range(k)] for i in range(k)]
        prev = 1
        for i in range(k - 1):
            row_i, piv = a[i], a[i][i]
            for row_r in a[i + 1:]:
                ari = row_r[i]
                for c in range(i + 1, k):
                    row_r[c] = (piv * row_r[c] - ari * row_i[c]) // prev
            prev = piv
    return time.perf_counter() - start


def load_package():
    """Import comax from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import comax.cli
        import comax.scan
    except ImportError as exc:
        sys.exit(f"bench: cannot import comax from {SRC}: {exc}")
    if SRC.resolve() not in Path(comax.cli.__file__).resolve().parents:
        sys.exit(f"bench: comax was imported from {comax.cli.__file__}, not {SRC}")
    return comax.cli, comax.scan


@dataclass
class Op:
    """One timed operation: a modulus, or for the scan its worker count."""

    key: int
    rc: int | None
    text: str
    seconds: float
    error: str | None = None


class Bench:
    """One workload at one seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.cli, self.scan = load_package()
        if name == "ladder":
            self.moduli = [substitute(n, seed) for n in LADDER]
        elif name == "verify":
            self.moduli = [*VERIFY_SMALL, substitute(VERIFY_LARGE, seed)]
        else:
            self.moduli = list(range(SCAN_START, SCAN_STOP + 1))
        self.reference: list[Op] = []
        self.bursts: list[float] | None = None  # reference bursts, timed runs only
        self._work_since_burst = 0.0

    def describe(self) -> str:
        if self.name == "ladder":
            return " ".join(map(str, self.moduli))
        if self.name == "verify":
            return f"3..64 and {self.moduli[-1]}"
        return f"{SCAN_START}..{SCAN_STOP}, workers {SCAN_WORKERS}"

    # -- passes -----------------------------------------------------------

    def _cli_ops(self, argv_of, tracer: Tracer | None) -> list[Op]:
        ops = []
        for n in self.moduli:
            if tracer is not None:
                tracer.op = n
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(argv_of(n))
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                rc, error = None, f"{type(exc).__name__}: {exc}"
            ops.append(Op(n, rc, buf.getvalue(), time.perf_counter() - start, error))
            self._tick(ops[-1].seconds)
        return ops

    def _tick(self, seconds: float) -> None:
        """After every REF_INTERVAL_S of timed work, take a reference burst."""
        if self.bursts is None:
            return
        self._work_since_burst += seconds
        if self._work_since_burst >= REF_INTERVAL_S:
            self.bursts.append(reference_burst())
            self._work_since_burst = 0.0

    def warm_up(self) -> None:
        """Untimed: the ladder's JSON spectra, which the gate needs for the
        exact residual polynomials."""
        if self.name == "ladder":
            self.reference = self._cli_ops(
                lambda n: ["spectrum", str(n), "--format", "json"], None
            )

    def run_pass(self, tracer: Tracer | None = None, workers=SCAN_WORKERS) -> list[Op]:
        if self.name == "ladder":
            return self._cli_ops(lambda n: ["spectrum", str(n), "--format", "pretty"], tracer)
        if self.name == "verify":
            return self._cli_ops(lambda n: ["verify", str(n)], tracer)
        ops = []
        for w in workers:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                self.scan.write_csv(self.scan.scan_range(SCAN_START, SCAN_STOP, workers=w), buf)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            ops.append(Op(w, 0, buf.getvalue(), time.perf_counter() - start, error))
            self._tick(ops[-1].seconds)
        return ops

    # -- correctness gate ---------------------------------------------------

    def check(self, passes: list[list[Op]]) -> tuple[int, int, dict]:
        """Gate the outputs of every pass.  Returns (attempted, failed,
        problems by operation key)."""
        if self.name == "scan":
            return self._check_scan(passes)
        first = passes[0]
        required = (json.loads((GOLDEN / "verify_checks.json").read_text(encoding="utf-8"))
                    if self.name == "verify" else {})
        problems: dict = {op.key: [] for op in first}
        for i, op in enumerate(first):
            if any(p[i].text != op.text or p[i].error != op.error for p in passes[1:]):
                problems[op.key].append((gate.OTHER, "output differs between passes"))
            if op.error is not None:
                problems[op.key].append((gate.OTHER, op.error))
            elif self.name == "ladder":
                ref = self.reference[i]
                if op.rc != 0 or ref.rc != 0:
                    problems[op.key].append(
                        (gate.OTHER, f"exit code {op.rc} / {ref.rc} {ref.error or ''}"))
                else:
                    problems[op.key] += gate.check_spectrum(op.key, op.text, ref.text)
            else:
                slot = str(op.key) if op.key in VERIFY_SMALL else "large"
                problems[op.key] += gate.check_verify(op.key, op.text, op.rc, required[slot])
        problems = {k: v for k, v in problems.items() if v}
        return len(first), len(problems), problems

    def _check_scan(self, passes: list[list[Op]]) -> tuple[int, int, dict]:
        """Every scan CSV, serial or parallel, must equal the golden one byte for
        byte; failed operations are the rows that differ in the worst CSV."""
        golden = (GOLDEN / "scan_3_2000.csv").read_text(encoding="utf-8")
        worst, problems = 0, {}
        for op in (op for p in passes for op in p):
            if op.error is not None:
                bad, msgs = SCAN_MODULI, [op.error]
            else:
                bad, msgs = gate.check_scan(op.text, golden)
            if bad > worst:
                worst = bad
                problems = {f"workers={op.key}": [(gate.OTHER, m) for m in msgs]}
        return SCAN_MODULI, worst, problems

    # -- measurement --------------------------------------------------------

    def measure_setup(self) -> list[float]:
        """Wall time for a fresh interpreter to import comax.cli, after one
        unmeasured launch that leaves the bytecode cache warm."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, "-c", "import comax.cli"]
        samples = []
        for i in range(SETUP_LAUNCHES + 1):
            start = time.perf_counter()
            done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                sys.exit(f"bench: fresh import of comax.cli failed: {done.stderr.decode()}")
            if i:
                samples.append(elapsed)
        return samples

    def timed_passes(self, seconds: float) -> list[list[Op]]:
        """Whole passes until the next one would end more than half a pass
        after ``seconds``, with reference bursts before, between and after."""
        passes, durations = [], []
        self.bursts = [reference_burst()]
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass())
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
                self.bursts.append(reference_burst())
                return passes


def spread_line(name: str, unit: str, samples: list[float]) -> str:
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    high = "-"
    if n >= 20:
        p = int(100 - 1000 / n)
        high = f"p{p}={percentile(samples, p):.6g}"
    return f"  {name:<34} {unit:<4} n={n:<4} median={statistics.median(samples):<11.6g} {high}"


def traced_run(bench: Bench) -> dict:
    """One untraced and one traced serial pass; per-layer metrics."""
    bench.warm_up()
    untraced = bench.run_pass(workers=(1,))
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.run_pass(tracer, workers=(1,))
    finally:
        tracer.uninstall()
    plain_s = sum(op.seconds for op in untraced)
    traced_s = sum(op.seconds for op in traced)
    metrics = tracer.metrics(len(bench.moduli))
    metrics.update({
        "trace.untraced_pass_s": plain_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{bench.name}-seed{bench.seed}.jsonl.gz")
    print("  per-layer metrics, one traced serial pass:")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:.6g}")
    print("  largest self times:")
    for name, own in tracer.top_self_times():
        print(f"  {name:<46} {own:.4f} s")
    return {"metrics": metrics, "passes": [untraced, traced]}


def timed_run(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, untraced."""
    setup = bench.measure_setup()
    bench.warm_up()
    passes = bench.timed_passes(seconds)
    rusage_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    per_pass = [sum(op.seconds for op in p) for p in passes]
    metrics = {
        # both means cover the same interleaved stretch of the run
        "pass_ref": statistics.mean(per_pass) / statistics.mean(bench.bursts),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rusage_kb / 1024,
    }
    print("  end-to-end metrics:")
    print(f"  {'pass_ref (mean pass / mean burst)':<34} {'ref':<4} {metrics['pass_ref']:.6g}")
    print(spread_line("setup_s", "s", setup))
    print(spread_line("pass_s (wall, not normalized)", "s", per_pass))
    print(spread_line("reference burst", "s", bench.bursts))
    samples = {"setup_s": setup, "pass_s": per_pass, "burst_s": bench.bursts}
    if bench.name == "scan":
        for i, w in enumerate(SCAN_WORKERS):
            name = "scan_moduli_per_s" + ("_2w" if w == 2 else "")
            samples[name] = [SCAN_MODULI / p[i].seconds for p in passes]
            print(spread_line(name, "1/s", samples[name]))
    else:
        samples["op_s"] = [op.seconds for p in passes for op in p]
        print(spread_line("op_s (one modulus)", "s", samples["op_s"]))
    print(f"  {'peak_rss_mb':<34} {'MB':<4} {metrics['peak_rss_mb']:.6g}")
    return {"metrics": metrics, "passes": passes, "samples": samples}


def run_workload(args) -> int:
    bench = Bench(args.workload, args.seed)
    print(f"workload {bench.name}, seed {bench.seed}, trace {args.trace}: {bench.describe()}")
    run = traced_run(bench) if args.trace else timed_run(bench, args.seconds)
    attempted, failed, problems = bench.check(run["passes"])
    correct = all(kind == gate.RESIDUAL for found in problems.values() for kind, _ in found)
    base = "rows" if bench.name == "scan" else "moduli"
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4g} (failed / attempted {base})")
    for key, found in problems.items():
        for kind, msg in found:
            print(f"    FAIL {key} [{kind}]: {msg}")
    if not correct:
        print("  INCORRECT: a failure other than the known residual-root defect")
    section = "per_layer" if args.trace else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {m["name"]: m["unit"] for m in spec}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{bench.name}-seed{bench.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": bench.name, "seed": bench.seed, "moduli": bench.describe(),
        "attempted": attempted, "failed": failed, "correct": correct,
        "problems": {str(k): v for k, v in problems.items()},
        "metrics": run["metrics"], "samples": run.get("samples", {}),
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
    }))
    return 0


# roadmap names of the raw wall-time metrics: (name, unit, workload, sample key)
SUMMARY = (
    ("ladder_s", "s", "ladder", "pass_s"),
    ("scan_moduli_per_s", "1/s", "scan", "scan_moduli_per_s"),
    ("scan_moduli_per_s_2w", "1/s", "scan", "scan_moduli_per_s_2w"),
    ("verify_s", "s", "verify", "pass_s"),
)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                sys.exit(f"bench: {' '.join(cmd)} failed")
            path = OUT / f"result-{name}-seed{args.seed}-trace{trace}.json"
            results[f"{name}/trace{trace}"] = json.loads(path.read_text(encoding="utf-8"))
    plain = {name: results[f"{name}/trace0"] for name in WORKLOADS}
    print(f"\nsummary: seed {args.seed}, {args.seconds:g} s per run")
    for name in WORKLOADS:
        print(spread_line(f"setup_s [{name}]", "s", plain[name]["samples"]["setup_s"]))
    for name in WORKLOADS:
        print(f"  {f'pass_ref [{name}]':<34} {'ref':<4} {plain[name]['metrics']['pass_ref']:.6g}")
    for metric, unit, name, key in SUMMARY:
        print(spread_line(f"{metric} [{name}]", unit, plain[name]["samples"][key]))
    for name in WORKLOADS:
        print(f"  {f'peak_rss_mb [{name}]':<34} {'MB':<4} "
              f"{plain[name]['metrics']['peak_rss_mb']:.6g}")
    for name in WORKLOADS:
        r = plain[name]
        print(f"  {f'fail_ratio [{name}]':<34} {'1':<4} {r['failed']}/{r['attempted']}"
              f" = {r['failed'] / r['attempted']:.4g}, correct {r['correct']}")
    path = OUT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "runs": results}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="run", help="BENCH file name for --workload all")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate the golden files the correctness gate compares against.

    python3 bench/make_golden.py

Writes golden/scan_3_2000.csv (the scan CSV of 3..2000),
golden/verify_checks.json (for each verify input of seed 0, the checks that
``comax verify n`` executes, keyed by n, with the large modulus under
"large") and golden/known_defects.json (for each large modulus of any seed
whose residual roots miss the reference by more than the gate's tolerance,
the deviation from each reference).  Run it only on a program whose outputs
are known to be right apart from the recorded defect: the files define what
the benchmark accepts.
"""

from __future__ import annotations

import json

import gate
from run import GOLDEN, VERIFY_SMALL, Bench


def known_defects() -> dict:
    """Deviations of the residual roots at the large moduli.  Seeds 0 and 1
    cover every input, since all seeds other than 0 share theirs."""
    spectrum, verify = {}, {}
    for seed in (0, 1):
        for op in Bench("ladder", seed).run_pass():
            values = gate.spectrum_values(*gate.parse_pretty(op.text))
            found = {ref: dev for ref, dev in gate.spectrum_deviations(op.key, values).items()
                     if dev > gate.TOL}
            if found:
                spectrum[str(op.key)] = found
        bench = Bench("verify", seed)
        bench.moduli = bench.moduli[-1:]
        for op in bench.run_pass():
            for check, detail in gate.parse_verify(op.text)[1]:
                if check == "spectrum-vs-dense-oracle":
                    verify[str(op.key)] = gate.verify_deviation(detail)
    return {"spectrum": spectrum, "verify": verify}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    scan = Bench("scan", 0).run_pass()[0]
    (GOLDEN / "scan_3_2000.csv").write_text(scan.text, encoding="utf-8")
    checks = {
        str(op.key) if op.key in VERIFY_SMALL else "large": gate.parse_verify(op.text)[0]
        for op in Bench("verify", 0).run_pass()
    }
    (GOLDEN / "verify_checks.json").write_text(json.dumps(checks, indent=1) + "\n")
    (GOLDEN / "known_defects.json").write_text(json.dumps(known_defects(), indent=1) + "\n")


if __name__ == "__main__":
    main()

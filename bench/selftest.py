"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Feeds the gate real program outputs and deliberately broken ones and checks
that it accepts the good and flags the bad.  Exits 1 if any case misbehaves.
Takes about fifteen seconds, most of it the spectrum of 30030.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import gate
from run import GOLDEN, load_package


def main() -> int:
    cli, _ = load_package()

    def run(*argv: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def spectrum(n: int) -> list[tuple[str, str]]:
        return gate.check_spectrum(n, run("spectrum", str(n))[1],
                                   run("spectrum", str(n), "--format", "json")[1])

    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"[{'ok ' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    def kinds(problems: list[tuple[str, str]]) -> set[str]:
        return {kind for kind, _ in problems}

    expect("n=210 passes", spectrum(210) == [])
    pretty = run("spectrum", "30030")[1]
    as_json = run("spectrum", "30030", "--format", "json")[1]
    expect("n=30030 is flagged as the residual-root defect",
           kinds(gate.check_spectrum(30030, pretty, as_json)) == {gate.RESIDUAL})
    tokens = pretty.split()
    low = min((k for k, t in enumerate(tokens) if t.startswith("~")),
              key=lambda k: float(tokens[k][1:]))
    worse = tokens[:low] + [f"~{float(tokens[low][1:]) - 1e4:.6f}"] + tokens[low + 1:]
    expect("n=30030 with a residual root 1e4 further off is flagged as a new defect",
           gate.OTHER in kinds(gate.check_spectrum(30030, " ".join(worse), as_json)))

    pretty = run("spectrum", "210")[1]
    as_json = run("spectrum", "210", "--format", "json")[1]
    tokens = pretty.split()
    value, mult = tokens[0].split("^")
    wrong_int = " ".join([f"{int(value) + 1}^{mult}", *tokens[1:]])
    expect("a shifted integer eigenvalue is flagged as a new defect",
           gate.OTHER in kinds(gate.check_spectrum(210, wrong_int, as_json)))
    i = next(k for k, t in enumerate(tokens) if t.startswith("~"))
    wrong_root = tokens[:i] + [f"~{float(tokens[i][1:]) + 1e-3:.6f}"] + tokens[i + 1:]
    expect("a residual root moved by 1e-3 is flagged",
           gate.check_spectrum(210, " ".join(wrong_root), as_json) != [])
    expect("a dropped eigenvalue is flagged as a new defect",
           gate.OTHER in kinds(gate.check_spectrum(210, " ".join(tokens[:-1]), as_json)))

    golden = (GOLDEN / "scan_3_2000.csv").read_text(encoding="utf-8")
    expect("the golden scan CSV passes", gate.check_scan(golden, golden) == (0, []))
    at = golden.index("\n100,") + 1
    flipped = golden[:at] + "9" + golden[at + 1:]
    expect("a scan CSV with one byte changed is flagged",
           gate.check_scan(flipped, golden)[0] == 1)

    required = json.loads((GOLDEN / "verify_checks.json").read_text(encoding="utf-8"))
    rc, text = run("verify", "4")
    expect("verify 4 passes: its failures are documented counterexamples",
           gate.check_verify(4, text, rc, required["4"]) == [])
    rc, text = run("verify", "2310")
    expect("verify 2310 is flagged as the residual-root defect",
           kinds(gate.check_verify(2310, text, rc, required["large"])) == {gate.RESIDUAL})
    worse = gate.VERIFY_DEVIATION.sub("max deviation 1.00e-03", text)
    expect("verify 2310 with a larger deviation is flagged as a new defect",
           gate.OTHER in kinds(gate.check_verify(2310, worse, rc, required["large"])))
    rc, text = run("verify", "12")
    flagged = text.replace("[ok ] closed-form-spectrum", "[FAIL] closed-form-spectrum")
    expect("an unexpected verify failure is flagged",
           gate.OTHER in kinds(gate.check_verify(12, flagged, 1, required["12"])))
    skipped = text.replace("[ok ] charpoly-join-identity", "[skip] charpoly-join-identity")
    expect("a skipped required verify check is flagged",
           gate.OTHER in kinds(gate.check_verify(12, skipped, rc, required["12"])))

    print(f"selftest: {len(failures)} of the cases misbehaved" if failures else "selftest: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

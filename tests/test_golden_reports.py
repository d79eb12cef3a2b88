"""Golden reports: a handful of fast CLI calls whose standard output must
stay byte-identical, apart from the `elapsed_ms` lines.

The files under tests/data/golden/ were frozen from the commit before the
formal-sum refactor, the three table_build ones (the benchmark's workload
of that name) from the commit before the tables were built by linearity,
the two S_k scans (`check_lpi_s4_t3f2`, `al_verify_n2f2_workers2`)
from the commit before one sweep took over both scan kernels, and the four
`check_gi_*` cases other than `check_gi_commutator_m2f2` from the commit
before check-gi became the identity search of 1 - w on the tables, and
the five random check-lpi and al-verify cases on M2, T2 and AL(2)
from the commit before random mode ran compiled programs on
matrices, `nilbound_m2f3_random` from the commit before every
family drew its right annihilators from kernels of b, and the two random
S_k cases on M3 (`check_lpi_s6_m3zz_random`, `check_lpi_s5_m3f2_random`)
from the commit before values took the last-syllable split in place of
the subset DP, `nilbound_t3f2_mmax1_random` from the commit before every
family placed its free entries through one helper, and the exhaustive
prefilter answer `check_lpi_prefilter_m2f3` from the commit before an
exhaustive counterexample took its value from its own scan, so a change
to the internals that alters any report text shows up here.

    python tests/test_golden_reports.py             # list the cases
    python tests/test_golden_reports.py NAME ...    # re-freeze these cases

Only the cases named are written. Freeze a new case from the commit
before the change it guards; when a report change is intended, re-freeze
that case alone and say in CHANGES.md which report changed and why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

# name -> (argv, exit status)
CASES = {
    "parse_s4": (["parse", "--expr", "S(4)"], 0),
    "parse_quotient": (["parse", "--context", "quotient", "--expr", "(x+y)^3 - 2*x*y*x + 3"], 0),
    "s3_expand": (["s3-expand"], 0),
    "witness": (["witness", "--expr", "1 - x1^-2 + x1^3"], 0),
    "annihilator_m2f2": (["annihilator", "--algebra", "M2@Fp:2"], 0),
    "check_lpi_s3_m2f2": (["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:2"], 1),
    "check_gi_commutator_m2f2": (
        ["check-gi", "--word", "x1*x2*x1^-1*x2^-1", "--algebra", "M2@Fp:2"], 1),
    "quotient_n2": (["quotient", "--n", "2", "--samples", "50", "--seed", "0"], 0),
    # the three table_build requests of the benchmark
    "check_lpi_comm_m3f2": (["check-lpi", "--expr", "x1*x2-x2*x1", "--algebra", "M3@Fp:2"], 1),
    "check_lpi_comm_t2f7": (["check-lpi", "--expr", "x1*x2-x2*x1", "--algebra", "T2@Fp:7"], 1),
    "check_lpi_x17_d2f17_workers2": (
        ["check-lpi", "--expr", "x1^17-x1", "--algebra", "D2@Fp:17", "--workers", "2"], 0),
    # S_k scans, which run the tables' staged program
    "check_lpi_s4_t3f2": (["check-lpi", "--expr", "S(4)", "--algebra", "T3@Fp:2"], 1),
    "al_verify_n2f2_workers2": (["al-verify", "--n", "2", "--field", "Fp:2", "--workers", "2"], 0),
    # check-gi: a positive word on the units, the benchmark's request, and
    # random mode with and without a hit
    "check_gi_x6_m2f2": (["check-gi", "--word", "x1^6", "--algebra", "M2@Fp:2"], 0),
    "check_gi_commutator_d2f11": (
        ["check-gi", "--word", "x1*x2*x1^-1*x2^-1", "--algebra", "D2@Fp:11"], 0),
    "check_gi_commutator_m2f3_random": (
        ["check-gi", "--word", "x1*x2*x1^-1*x2^-1", "--algebra", "M2@Fp:3", "--mode", "random",
         "--seed", "5", "--budget", "300"], 1),
    "check_gi_x6_m2f2_random": (
        ["check-gi", "--word", "x1^6", "--algebra", "M2@Fp:2", "--mode", "random", "--seed", "3",
         "--budget", "50"], 0),
    # random check-lpi and al-verify: S_k on matrices over ZZ and F_3, the
    # unit commutator with inverses over ZZ, a prefilter hit, and S_4
    "check_lpi_s4_m2zz_random": (
        ["check-lpi", "--expr", "S(4)", "--algebra", "M2@ZZ", "--mode", "random", "--seed", "1",
         "--budget", "20"], 0),
    "check_lpi_s3_m2f3_random": (
        ["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:3", "--mode", "random", "--seed", "1",
         "--budget", "20"], 1),
    "check_lpi_unit_commutator_m2zz_random": (
        ["check-lpi", "--expr", "x1*x2*x1^-1*x2^-1*x1*x2*x1^-1*x2^-1-2*x1*x2*x1^-1*x2^-1+1",
         "--algebra", "M2@ZZ", "--mode", "random", "--seed", "2", "--budget", "30"], 1),
    "check_lpi_mixed_t2f5_random": (
        ["check-lpi", "--expr", "2*x1^3*x2-x2^2+x1^-1*x2", "--algebra", "T2@Fp:5", "--mode",
         "random", "--seed", "4", "--budget", "40"], 1),
    "al_verify_n2f3_random": (
        ["al-verify", "--n", "2", "--field", "Fp:3", "--mode", "random", "--seed", "1",
         "--budget", "5"], 0),
    # random S_k on values: S_6 holds on M3 over ZZ, and S_5 on M3 over F_2
    # hits at the first evaluation, whose value the values program gives
    "check_lpi_s6_m3zz_random": (
        ["check-lpi", "--expr", "S(6)", "--algebra", "M3@ZZ", "--mode", "random", "--seed", "1",
         "--budget", "3"], 0),
    "check_lpi_s5_m3f2_random": (
        ["check-lpi", "--expr", "S(5)", "--algebra", "M3@Fp:2", "--mode", "random", "--seed",
         "1", "--budget", "20"], 1),
    # random nilbound on the full algebra, whose c is drawn from ker(b)
    "nilbound_m2f3_random": (
        ["nilbound", "--algebra", "M2@Fp:3", "--mode", "random", "--seed", "4", "--budget",
         "200"], 1),
    # random nilbound on T3, whose witness pins the strictly upper
    # square-zero draws, the T right annihilators and sample_element
    "nilbound_t3f2_mmax1_random": (
        ["nilbound", "--algebra", "T3@Fp:2", "--m-max", "1", "--mode", "random", "--seed",
         "5"], 1),
    # UniPoly in the report: a given polynomial and random ones, frozen
    # from the commit before UniPoly became a FormalSum; the idempotent
    # survey and a high power's confirmation from the same commit
    "counterexample_poly": (["counterexample", "--poly", "1,0,-3,2"], 0),
    "counterexample_random": (
        ["counterexample", "--count", "20", "--deg-max", "6", "--seed", "5"], 0),
    "idempotents_m2f2": (["idempotents", "--algebra", "M2@Fp:2"], 0),
    "check_lpi_x1e6_m2f2": (["check-lpi", "--expr", "x1^1000000-1", "--algebra", "M2@Fp:2"], 1),
    # the prefilter's answer in exhaustive mode: the identity tuple, whose
    # value is the coefficient sum times 1
    "check_lpi_prefilter_m2f3": (["check-lpi", "--expr", "1+x1*x2^-1", "--algebra", "M2@Fp:3"], 1),
}


def run_report(argv):
    """Run one CLI call; its exit status and its stdout without the
    elapsed_ms lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-m", "lpilab", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    lines = [ln for ln in proc.stdout.splitlines(keepends=True) if '"elapsed_ms"' not in ln]
    return proc.returncode, "".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    argv, status = CASES[name]
    code, text = run_report(argv)
    assert code == status, (argv, code)
    assert text == (GOLDEN / f"{name}.json").read_text(), argv


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    if not names:
        print("\n".join(sorted(CASES)))
        print("name the cases to re-freeze; nothing written", file=sys.stderr)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names:
        argv, status = CASES[name]
        code, text = run_report(argv)
        if code != status:
            raise SystemExit(f"{name}: exit status {code}, expected {status}")
        (GOLDEN / f"{name}.json").write_text(text)
        print(f"wrote {name}.json")

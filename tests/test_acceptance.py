"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when it gets to the end; pytest -v adds
its own verdict per test. Expected constants fall into three kinds: values
enumerated by independent brute-force scripts and frozen here, values
checked by hand against the underlying mathematics, and trivial identities
asserted directly. Everything is exact; there are no tolerances anywhere.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from lpilab.checkers import check_lpi, vandermonde_nil
from lpilab.freegroup import Word
from lpilab.group_algebra import LaurentElement, standard_polynomial
from lpilab.matrix_algebra import Matrix, evaluate, matrix_unit, parse_algebra
from lpilab.quotient_algebra import QuotientElement, sample_element
from lpilab.rings import ZZ, PrimeField, UniPoly, unipoly_eval

f2 = PrimeField(2)


def cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "lpilab", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == expect, (argv, proc.returncode, proc.stderr)
    return json.loads(proc.stdout) if proc.stdout.strip() else None, proc.stderr


def ok(n, msg):
    print(f"criterion {n:02d} PASS: {msg}")


def test_criterion_01_standard_identity_exhaustive():
    t0 = time.monotonic()
    report, _ = cli("al-verify", "--n", "2", "--field", "Fp:2", "--mode", "exhaustive")
    elapsed = time.monotonic() - t0
    assert report["outcome"] == "holds"
    assert report["evaluations"] == 65536
    assert report["details"]["tuple_space"] == 65536
    assert elapsed < 10, elapsed
    ok(1, f"S_4 holds on all 65536 tuples of M2(F2) in {elapsed:.2f}s")


def test_criterion_02_s3_negative_control():
    t0 = time.monotonic()
    report, _ = cli("check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:2",
                    "--mode", "exhaustive", expect=1)
    elapsed = time.monotonic() - t0
    assert report["outcome"] == "counterexample"
    witness = report["witness"]
    assignment = {
        int(k[1:]): Matrix(f2, rows) for k, rows in witness["assignment"].items()
    }
    revalue = evaluate(standard_polynomial(3), assignment)
    assert not revalue.is_zero()
    assert revalue == Matrix(f2, witness["value"])
    assert elapsed < 5, elapsed
    ok(2, f"S_3 fails on M2(F2) with an independently re-verified witness in {elapsed:.2f}s")


def test_criterion_03_celebrated_pair_is_not_nil():
    for ring in (f2, ZZ):
        a = matrix_unit(ring, 2, 2, 1)
        b = matrix_unit(ring, 2, 1, 2)
        assert a.mul(a).is_zero() and b.mul(b).is_zero()
        ba = b.mul(a)
        assert ba == matrix_unit(ring, 2, 1, 1)
        for k in range(1, 17):
            assert ba.power(k) == ba
            assert not ba.power(k).is_zero()
    ok(3, "a = e21, b = e12 gives ba = e11 with (ba)^k = e11 != 0 for k <= 16, over F2 and ZZ")


def test_criterion_04_witness_degrees():
    cases = [
        ("1 - x1*x2*x1^-1", 7),
        ("1 - x1^2 + x1^5", 23),
        ("1 - x1^-2 + x1^3", 23),
    ]
    for expr, want in cases:
        report, _ = cli("witness", "--expr", expr)
        assert report["details"]["d"] == want, (expr, report["details"])
    ok(4, "witness degrees 7, 23, 23 for the three reference inputs")


def test_criterion_05_normalization():
    report, _ = cli("witness", "--expr", "1 - x1*x2^-1")
    d = report["details"]
    assert d["substituted_variable"] == "x1"
    assert d["k"] == 2
    from lpilab.textio import parse_element

    normalized = parse_element(d["normalized"])
    for w in normalized.terms:
        if not w.is_identity():
            assert w.exp_sum_total() != 0
    proc = subprocess.run(
        [sys.executable, "-m", "lpilab", "witness", "--expr", "x1*x2*x1^-1*x2^-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "admissible" in proc.stderr.lower()
    ok(5, "x1 -> x1^2 normalization clears zero totals; the commutator exits 2 as inadmissible")


def test_criterion_06_vandermonde_round_trip():
    f101 = PrimeField(101)
    alg = parse_algebra("M3@Fp:101")
    rng = random.Random(20260816)
    for case in range(200):
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(101) for _ in range(deg)]
        coeffs.append(rng.randrange(1, 101))  # exact degree
        f = UniPoly(f101, coeffs)
        v = alg.sample_element(rng)
        u = alg.sample_element(rng)
        lambdas = [f101.coerce(x) for x in range(1, deg + 1)]
        comps, verdict = vandermonde_nil(f, v, u, lambdas)
        vu = v.mul(u)
        assert comps == [vu.power(i).scale(f.coeff(i)) for i in range(1, deg + 1)], case
        assert verdict.outcome == "holds"
    ok(6, "200 seeded component extractions over M3(F101) reproduce f_i (vu)^i exactly")


def test_criterion_07_nil_exponent_searches():
    t0 = time.monotonic()
    report, _ = cli("nilbound", "--algebra", "T2@Fp:2")
    assert report["outcome"] == "holds"
    assert report["details"]["minimal_m_nilpotent"] == 2
    assert report["details"]["non_nilpotent"] == 0
    assert time.monotonic() - t0 < 60

    t0 = time.monotonic()
    report, _ = cli("nilbound", "--algebra", "T3@Fp:2")
    assert report["outcome"] == "holds"
    assert report["details"]["minimal_m_nilpotent"] <= 3
    assert time.monotonic() - t0 < 60

    # the full 2x2 algebra contains non-nilpotent products bacu, so the
    # honest exhaustive answer is a counterexample plus skip counts; the
    # counts below were frozen from an independent enumeration
    t0 = time.monotonic()
    report, _ = cli("nilbound", "--algebra", "M2@Fp:2", expect=1)
    assert report["outcome"] == "counterexample"
    assert report["details"]["quadruples"] == 3712
    assert report["details"]["non_nilpotent"] == 432
    assert report["details"]["minimal_m_nilpotent"] == 2
    w = report["witness"]
    a, b = Matrix(f2, w["a"]), Matrix(f2, w["b"])
    c, u = Matrix(f2, w["c"]), Matrix(f2, w["u"])
    assert a.mul(a).is_zero() and b.mul(c).is_zero()
    bacu = b.mul(a).mul(c).mul(u)
    assert bacu == Matrix(f2, w["bacu"])
    assert not bacu.power(2).is_zero()  # 2x2: not nilpotent at all
    assert time.monotonic() - t0 < 60
    ok(7, "nil exponents: T2 m=2, T3 m<=3, M2 reports minimal m=2 plus 432 non-nilpotent products")


def test_criterion_08_finite_annihilator():
    report, _ = cli("annihilator", "--algebra", "M2@Fp:2")
    details = report["details"]
    assert details["degree"] > 0
    g = UniPoly(f2, [1])
    for t, r, _count in details["factors"]:
        g = g * (UniPoly.x_power(f2, r) - UniPoly.x_power(f2, t))
    assert g.format() == details["g"]
    assert not g.is_zero()
    alg = parse_algebra("M2@Fp:2")
    sq0 = list(alg.enumerate_square_zero())
    pairs = 0
    for a in sq0:
        for b in sq0:
            pairs += 1
            assert unipoly_eval(g, a.mul(b)).is_zero()
    assert pairs == 16 == details["pairs_checked"]
    ok(8, f"annihilator g of degree {details['degree']} kills all {pairs} square-zero products")


def test_criterion_09_no_integer_annihilator():
    report, _ = cli("counterexample", "--count", "50", "--deg-max", "6",
                    "--seed", "31415")
    d = report["details"]
    assert d["count"] == 50
    assert d["all_within_bound"] is True
    assert d["max_trials"] <= 7
    # spot-check the library path on explicit data too
    from lpilab.checkers import infinite_counterexample

    rng = random.Random(9)
    for _ in range(10):
        deg = rng.randint(0, 6)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.choice([1, -1, 2])]
        g = UniPoly(ZZ, coeffs)
        hit = infinite_counterexample(g)
        assert hit.trials <= g.degree + 1
        assert hit.a.mul(hit.a).is_zero() and hit.b.mul(hit.b).is_zero()
        assert not unipoly_eval(g, hit.a.mul(hit.b)).is_zero()
    ok(9, "50 seeded integer polynomials all defeated within deg(g) + 1 trials")


def test_criterion_10_quotient_identities():
    t0 = time.monotonic()
    report, _ = cli("quotient", "--n", "2", "--samples", "1000", "--seed", "77")
    assert report["outcome"] == "holds"
    assert report["evaluations"] == 1000
    d = report["details"]
    assert d["s2_nonzero"] is True
    assert d["s3_nonzero"] is True
    assert d["s2_at_units"] == "x*y - y*x"
    assert time.monotonic() - t0 < 30
    ok(10, "S_4 vanished on 1000 sampled quotient tuples while S_2 and S_3 stay nonzero at units")


def test_criterion_11_s3_expansion_report():
    proc1 = subprocess.run([sys.executable, "-m", "lpilab", "s3-expand"],
                           capture_output=True, text=True)
    proc2 = subprocess.run([sys.executable, "-m", "lpilab", "s3-expand"],
                           capture_output=True, text=True)
    assert proc1.returncode == 0 and proc2.returncode == 0
    assert proc1.stdout == proc2.stdout  # fully deterministic, no elapsed field
    report = json.loads(proc1.stdout)
    d = report["details"]
    assert d["match_over_ZZ"] is False
    assert d["match_mod2"] is True
    assert any(not row["agree"] for row in d["table"])
    ok(11, "S_3(X, Y, XY) expansion reported with its comparison; deterministic output")


def test_criterion_12_bounds_are_integers():
    report, _ = cli("bounds", "--d", "3")
    assert report["details"]["size_bound"] == 6
    assert report["details"]["dimension_bound"] == 7
    report, _ = cli("bounds", "--d", "1")
    assert report["details"]["size_bound"] == 2
    assert report["details"]["dimension_bound"] == 4
    raw = subprocess.run([sys.executable, "-m", "lpilab", "bounds", "--d", "3"],
                         capture_output=True, text=True).stdout
    for token in ("6", "7"):
        assert f" {token},\n" in raw or f" {token}\n" in raw
    assert "." not in json.dumps(json.loads(raw)["details"])
    ok(12, "bounds d=3 -> |K| <= 6, n <= 7 and d=1 -> |K| <= 2, n <= 4, integer arithmetic only")


def test_criterion_13_unit_group_identities():
    report, _ = cli("check-gi", "--word", "x1^6", "--algebra", "M2@Fp:2")
    assert report["outcome"] == "holds"
    assert report["evaluations"] == 6
    report, _ = cli("check-gi", "--word", "x1^2", "--algebra", "M2@Fp:2", expect=1)
    w = Matrix(f2, report["witness"]["assignment"]["x1"])
    assert w == Matrix(f2, [[0, 1], [1, 1]])
    assert w.mul(w) != parse_algebra("M2@Fp:2").identity()
    ok(13, "x1^6 holds on all 6 units of M2(F2); x1^2 fails at the frozen first witness")


def test_criterion_14_property_suites():
    """Five randomized suites, ten thousand seeded cases each."""
    t0 = time.monotonic()
    N = 10**4

    # 1. ring axioms across ZZ and two prime fields
    rng = random.Random(101)
    rings = [ZZ, PrimeField(2), PrimeField(97)]
    for _ in range(N):
        R = rng.choice(rings)
        draw = (lambda: rng.randint(-99, 99)) if R == ZZ else (lambda: rng.randrange(R.p))
        a, b, c = draw(), draw(), draw()
        assert R.add(a, R.add(b, c)) == R.add(R.add(a, b), c)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(a, b) == R.mul(b, a)
        assert R.add(a, R.neg(a)) == R.zero

    # 2. free word reduction: constructor is confluent with concatenation
    rng = random.Random(202)
    for _ in range(N):
        xs = tuple((rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 6)))
        ys = tuple((rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 6)))
        w = Word(xs) * Word(ys)
        assert w == Word(xs + ys)
        assert all(e != 0 for _, e in w.syllables)
        assert all(g1 != g2 for (g1, _), (g2, _) in zip(w.syllables, w.syllables[1:]))

    # 3. evaluation is multiplicative: (e1*e2)(A) = e1(A) * e2(A)
    rng = random.Random(303)
    alg = parse_algebra("M2@Fp:5")
    for _ in range(N):
        mats = {1: alg.sample_unit(rng)[0], 2: alg.sample_unit(rng)[0]}
        elems = []
        for _k in range(2):
            terms = []
            for _t in range(rng.randint(1, 2)):
                sylls = tuple(
                    (rng.randint(1, 2), rng.choice([-1, 1, 2]))
                    for _s in range(rng.randint(0, 2))
                )
                terms.append((Word(sylls), rng.randint(-2, 2)))
            elems.append(LaurentElement(ZZ, terms))
        e1, e2 = elems
        lhs = evaluate(e1 * e2, mats) if not (e1 * e2).is_zero() else None
        rhs = evaluate(e1, mats).mul(evaluate(e2, mats)) if not (e1.is_zero() or e2.is_zero()) else None
        if lhs is not None and rhs is not None:
            assert lhs == rhs
        elif e1.is_zero() or e2.is_zero():
            assert (e1 * e2).is_zero()

    # 4. the standard polynomial is alternating: a repeated argument kills it
    rng = random.Random(404)
    s3 = standard_polynomial(3)
    for _ in range(N):
        a = alg.sample_element(rng)
        b = alg.sample_element(rng)
        slot = rng.randrange(3)
        mats = [a, a, b]
        mats[2], mats[slot] = mats[slot], mats[2]
        assert evaluate(s3, tuple(mats)).is_zero()

    # 5. quotient product agrees with the junction-rule oracle
    rng = random.Random(505)
    for _ in range(N):
        e1 = sample_element(ZZ, rng, max_support=3, max_len=3)
        e2 = sample_element(ZZ, rng, max_support=3, max_len=3)
        out = {}
        for w1, c1 in e1.terms.items():
            for w2, c2 in e2.terms.items():
                if w1 and w2 and w1[-1] == w2[0]:
                    continue
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        assert e1.mul(e2) == QuotientElement(ZZ, list(out.items()))

    elapsed = time.monotonic() - t0
    assert elapsed < 120, elapsed
    ok(14, f"five property suites, {N} cases each, in {elapsed:.1f}s")


def test_criterion_15_seed_determinism():
    argv = ["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:2",
            "--mode", "random", "--budget", "400", "--seed", "12345"]
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "lpilab", *argv],
                              capture_output=True, text=True)
        lines = [l for l in proc.stdout.splitlines() if '"elapsed_ms"' not in l]
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]
    argv2 = ["quotient", "--n", "2", "--samples", "100", "--seed", "8"]
    outs2 = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "lpilab", *argv2],
                              capture_output=True, text=True)
        lines = [l for l in proc.stdout.splitlines() if '"elapsed_ms"' not in l]
        outs2.append("\n".join(lines))
    assert outs2[0] == outs2[1]
    ok(15, "repeated seeded runs are byte-identical apart from elapsed_ms")

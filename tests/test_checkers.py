import concurrent.futures
import copy
import functools
import itertools
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpilab import checkers, group_algebra, matrix_algebra
from lpilab.checkers import (
    al_verify,
    bounds_from_d,
    check_group_identity,
    check_lpi,
    finite_annihilator,
    idempotent_centrality,
    infinite_counterexample,
    minimal_polynomial,
    nil_exponent_search,
    quotient_pi_check,
    s3_expand,
    square_zero_nilpotency,
    vandermonde_nil,
)
from lpilab.errors import CapExceeded, PreconditionError, SolveError
from lpilab.freegroup import Word
from lpilab.group_algebra import (LaurentElement, OneVarLaurent, _Calls, gi_to_lpi,
                                  standard_polynomial)
from lpilab.matrix_algebra import Matrix, det, evaluate, matrix_unit, parse_algebra
from lpilab.quotient_algebra import QuotientElement
from lpilab.rings import QQ, ZZ, PrimeField, UniPoly, unipoly_eval
from lpilab.textio import parse_element, parse_word

f2 = PrimeField(2)
M2F2 = parse_algebra("M2@Fp:2")
T3F2 = parse_algebra("T3@Fp:2")


def test_check_lpi_standard_identity_holds():
    v = check_lpi(M2F2, standard_polynomial(4), mode="exhaustive")
    assert v.holds()
    assert v.evaluations == 16**4


def test_check_lpi_s3_counterexample_and_reverify():
    v = check_lpi(M2F2, standard_polynomial(3), mode="exhaustive")
    assert v.outcome == "counterexample"
    # first violating triple in enumeration order, found independently by
    # a brute-force sweep: (e22, e21, e12) evaluating to e11
    assert v.evaluations == 293
    assignment = v.witness["assignment"]
    assert assignment[1] == Matrix(f2, [[0, 0], [0, 1]])
    assert assignment[2] == matrix_unit(f2, 2, 2, 1)
    assert assignment[3] == matrix_unit(f2, 2, 1, 2)
    assert v.witness["value"] == matrix_unit(f2, 2, 1, 1)
    revalue = evaluate(standard_polynomial(3), assignment)
    assert revalue == v.witness["value"]


def test_check_lpi_units_ground_for_negative_exponents():
    # GL_2(F_2) has order 6, so u^-6 = 1 on every unit; the negative
    # exponent restricts the scan to the 6 units
    e = gi_to_lpi(Word.gen(1, -6))
    v = check_lpi(M2F2, e, mode="exhaustive")
    assert v.holds()
    assert v.details["ground"] == "units"
    assert v.evaluations == 6


def test_check_lpi_element_ground_without_negative_exponents():
    # without inverses the scan covers all 16 elements and 1 - x1^6
    # genuinely dies at x1 = 0
    e = gi_to_lpi(Word.gen(1, 6))
    v = check_lpi(M2F2, e, mode="exhaustive")
    assert v.outcome == "counterexample"
    assert v.details["ground"] == "elements"
    assert v.witness["assignment"][1].is_zero()


def test_check_lpi_prefilter_on_nonzero_coefficient_sum():
    e = LaurentElement(ZZ, [(Word(), 1), (Word.gen(1), -1), (Word.gen(1, 2), 1)])
    v = check_lpi(M2F2, e)
    assert v.outcome == "counterexample"
    assert v.evaluations == 1
    assert "prefilter" in v.details
    assert v.witness["value"] == M2F2.identity()


def test_check_lpi_random_mode_is_seeded():
    a = check_lpi(M2F2, standard_polynomial(3), mode="random", budget=200, seed=5)
    b = check_lpi(M2F2, standard_polynomial(3), mode="random", budget=200, seed=5)
    assert a.outcome == b.outcome
    assert a.evaluations == b.evaluations
    if a.outcome == "counterexample":
        assert a.witness["assignment"] == b.witness["assignment"]


def test_check_lpi_workers_agree_with_single_process():
    v1 = check_lpi(M2F2, standard_polynomial(3), workers=1)
    v2 = check_lpi(M2F2, standard_polynomial(3), workers=2)
    assert v1.outcome == v2.outcome == "counterexample"
    assert v1.witness["assignment"] == v2.witness["assignment"]
    # the count is the hit's canonical position, whatever the split
    assert v1.evaluations == v2.evaluations == 293


def test_check_lpi_zero_element():
    assert check_lpi(M2F2, LaurentElement.zero(ZZ)).holds()


def test_check_lpi_cap():
    with pytest.raises(CapExceeded):
        check_lpi(M2F2, standard_polynomial(4), cap=1000)


def _assert_tables_match(tb, pairs):
    """The listed mul and add entries, and every neg, inverse and unit
    entry, equal what Matrix arithmetic and Algebra.inverse give through
    tb.index."""
    A, E, index = tb.algebra, tb.elements, tb.index
    assert E == list(A.enumerate_elements())
    assert E[tb.zero] == A.zero() and E[tb.one] == A.identity()
    for a, b in pairs:
        assert tb.mul[a][b] == index[E[a].mul(E[b])], (A.descriptor(), a, b)
        assert tb.add[a][b] == index[E[a].add(E[b])], (A.descriptor(), a, b)
    inverses = [A.inverse(m) for m in E]
    assert tb.neg == [index[-m] for m in E]
    assert tb.inverse == [None if inv is None else index[inv] for inv in inverses]
    assert tb.units == [i for i, inv in enumerate(inverses) if inv is not None]


@pytest.mark.parametrize("descriptor",
                         ["M2@Fp:2", "M2@Fp:3", "T2@Fp:5", "T3@Fp:2", "D2@Fp:7", "D3@Fp:3"])
def test_tables_match_matrix_arithmetic(descriptor):
    tb = checkers._Tables(parse_algebra(descriptor))
    _assert_tables_match(tb, [(a, b) for a in range(tb.n) for b in range(tb.n)])


@pytest.mark.parametrize("descriptor", ["M3@Fp:2", "T2@Fp:7", "T3@Fp:3"])
def test_tables_match_matrix_arithmetic_sampled(descriptor):
    tb = checkers._Tables(parse_algebra(descriptor))
    rng = random.Random(descriptor)
    _assert_tables_match(tb, [(rng.randrange(tb.n), rng.randrange(tb.n)) for _ in range(2000)])
    # every entry is one of the n shared index objects, not a fresh int
    entries = {id(x) for rows in (tb.mul, tb.add) for row in rows for x in row}
    assert len(entries | {id(x) for x in tb.neg + tb.units}) <= tb.n


def test_tables_cross_check_catches_a_broken_recurrence(monkeypatch):
    linear_row = checkers._linear_row
    # the digit weights taken in the wrong order
    monkeypatch.setattr(checkers, "_linear_row",
                        lambda start, steps, p: linear_row(start, steps[::-1], p))
    for descriptor in ("M2@Fp:3", "T2@Fp:5"):
        tb = checkers._Tables(parse_algebra(descriptor))
        with pytest.raises(AssertionError):
            _assert_tables_match(tb, [(a, b) for a in range(tb.n) for b in range(tb.n)])


COMMUTATOR = parse_element("x1*x2-x2*x1")


def test_table_cap_admits_729_elements():
    # T3(F3) has 729 elements, over the old cap of 512
    algebra = parse_algebra("T3@Fp:3")
    v = check_lpi(algebra, COMMUTATOR)
    assert v.outcome == "counterexample"
    value = evaluate(COMMUTATOR, v.witness["assignment"], algebra)
    assert not value.is_zero() and value == v.witness["value"]


def test_table_cap_names_the_cap():
    assert checkers.TABLE_CAP == 1024
    with pytest.raises(CapExceeded, match="2401 elements indexed; table cap is 1024"):
        check_lpi(parse_algebra("M2@Fp:7"), COMMUTATOR)


def test_tables_name_the_limit_that_refused():
    with pytest.raises(PreconditionError, match="M2@ZZ is infinite; enumeration needs a prime"):
        check_lpi(parse_algebra("M2@ZZ"), COMMUTATOR)
    with pytest.raises(PreconditionError, match="M2@ZZ is infinite"):
        nil_exponent_search(parse_algebra("M2@ZZ"))
    with pytest.raises(CapExceeded, match="M2@Fp:2 has 16 elements, over the cap 10; use random"):
        al_verify(2, 2, cap=10)


def test_exhaustive_check_gi_keeps_to_the_table_cap():
    # GL_2(F_7) has exponent dividing 336, but M2(F_7) has 2401 elements
    m2f7, w = parse_algebra("M2@Fp:7"), Word.gen(1, 336)
    with pytest.raises(CapExceeded, match="2401 elements indexed; table cap is 1024; use random"):
        check_group_identity(m2f7, w)
    v = check_group_identity(m2f7, w, mode="random", budget=20, seed=1)
    assert v.holds() and v.evaluations == 20


def _refuse(monkeypatch, program):
    """Make building the named program fail, so a scan or an evaluation
    that runs it raises, in the parent and in forked workers alike."""
    def refused(*args):
        raise AssertionError(f"{program} was built")

    monkeypatch.setattr(group_algebra, program, refused)


def _standard_program(ops, k):
    """The S_k subset DP, the reference the last-syllable split must match.
    D[mask] is the standard polynomial on the variables in mask: a single
    variable is itself, and a larger mask has S(mask) = sum over its t-th
    variable j of (-1)**(|mask| - t) S(mask - j) x_j. Entering variable d
    sets its own mask and recomputes the larger masks whose highest
    variable is d, smaller masks first."""
    steps = [[] for _ in range(k)]
    for mask in sorted(range(1, 1 << k), key=lambda m: bin(m).count("1")):
        elems = [j for j in range(k) if mask >> j & 1]
        m = len(elems)
        if m > 1:
            steps[elems[-1]].append((mask, [(mask ^ (1 << j), 1 << j, (m - t) % 2 == 1)
                                            for t, j in enumerate(elems, start=1)]))
    MUL, ADD, NEG = ops.mul, ops.add, ops.neg
    D = [None] * (1 << k)

    def enter(d, idx):
        D[1 << d] = idx
        for mask, sums in steps[d]:
            acc = None
            for sub, bit, flip in sums:
                v = MUL[D[sub]][D[bit]]
                if flip:
                    v = NEG[v]
                acc = v if acc is None else ADD[acc][v]
            D[mask] = acc

    full = (1 << k) - 1
    return k, enter, lambda: D[full]


@pytest.mark.parametrize("k, descriptor", [
    (k, d) for k in (2, 3) for d in ("M2@Fp:2", "M2@Fp:3", "T2@Fp:3", "T3@Fp:2", "D2@Fp:3")
] + [(4, "M2@Fp:2"), (4, "D2@Fp:3")])
def test_subset_dp_matches_term_program(monkeypatch, k, descriptor):
    tb = checkers._Tables(parse_algebra(descriptor))
    ground = list(range(tb.n))
    staged = group_algebra._staged_program
    programs = (lambda tb, e: _standard_program(tb, k),
                staged,  # the leaf split, which the tables take
                lambda tb, e: staged(tb, e, last=True))
    half = round(tb.n / 2)
    # the whole scan, then split at the first variable as two workers split it
    for ranges in ([range(tb.n)], [range(half), range(half, tb.n)]):
        results = []
        for program in programs:
            monkeypatch.setattr(checkers, "_staged_program", program)
            results.append([checkers._scan(tb, standard_polynomial(k), ground, r)
                            for r in ranges])
        assert results[0] == results[1] == results[2], ranges


# every enumerable family and p = 2, 3, 5, 7, as in the table tests
SCAN_ALGEBRAS = ("M2@Fp:2", "M2@Fp:3", "T2@Fp:5", "T3@Fp:2", "D2@Fp:7", "D3@Fp:3")


@functools.lru_cache(maxsize=None)
def _scan_tables(descriptor):
    return checkers._Tables(parse_algebra(descriptor))


def _ground(tb, kind):
    return tb.units if kind == "units" else list(range(tb.n))


def _per_tuple_sweep(tb, e, ground, outer_range):
    """What _scan must return, from a sweep that enters every variable at
    every tuple and reads each tuple's value on its own."""
    nvars, enter, value = group_algebra._staged_program(tb, e)
    if nvars == 0:
        return (() if value() != tb.zero else None), 1
    count = 0
    for tup in itertools.product(outer_range, *[range(len(ground))] * (nvars - 1)):
        count += 1
        for d, pos in enumerate(tup):
            enter(d, ground[pos])
        if value() != tb.zero:
            return tuple(ground[pos] for pos in tup), count
    return None, count


def _assert_scan_is_the_sweep(tb, e, ground):
    """The whole scan, and the scan split in two at the first variable as
    two workers split it, each equal to the per-tuple sweep."""
    half = len(ground) // 2
    for ranges in ([range(len(ground))], [range(half), range(half, len(ground))]):
        for r in ranges:
            assert checkers._scan(tb, e, ground, r) == _per_tuple_sweep(tb, e, ground, r), \
                (tb.algebra.descriptor(), e.format(), r)


# (algebra, element, ground); each is affine in its last variable unless
# noted, and each mutation of the row leaf changes one of their answers
SCAN_CASES = [
    ("M2@Fp:2", "S(3)", "elements"),
    # the last variable vanishes from the image mod 2
    ("M2@Fp:2", "x1*x2-x2*x1+2*x3", "elements"),
    ("M2@Fp:3", "x1^-1*x2*x1-x2", "units"),
    ("T2@Fp:5", "x1^-1*x2*x1-x2", "units"),
    ("D2@Fp:7", "x1^-1*x2*x1-x2", "units"),
    ("T3@Fp:2", "x1*x2-x2*x1+x1*x1-x1", "elements"),
    ("T2@Fp:5", "x1*x2*x1-x2*x1*x1+x1-x1^2", "elements"),
    # terms without the last variable: f(0) is not zero on the rows
    ("M2@Fp:3", "x1^-1*x2*x1-x2+x1-1", "units"),
    ("T3@Fp:2", "x1*x2-x2+x1-1", "units"),
    ("T2@Fp:5", "(x1-1)*(x2-1)", "units"),
    ("D3@Fp:3", "(x1-1)*(x2-1)", "units"),
    ("M2@Fp:3", "x1-1", "elements"),
    # not affine in the last variable: the per-position leaf
    ("M2@Fp:3", "x1*x2^2-x2^2*x1", "elements"),
    ("T3@Fp:2", "x1*x2*x1*x2-x2*x1*x2*x1", "elements"),
    ("T2@Fp:5", "x1*x2^-1-x2^-1*x1", "units"),
]


@pytest.mark.parametrize("descriptor, expr, kind", SCAN_CASES)
def test_scan_is_the_per_tuple_sweep(descriptor, expr, kind):
    tb = _scan_tables(descriptor)
    _assert_scan_is_the_sweep(tb, parse_element(expr), _ground(tb, kind))


def _scan_case_words(draw, last, inverses, affine):
    """Words over x1..x{last}. The first holds x{last}: once, as x^1, when
    affine, else twice or with another exponent. Each other word holds it
    at most once, as x^1."""
    exponents = [1, 2, -1] if inverses else [1, 2]
    earlier = st.tuples(st.integers(1, last - 1), st.sampled_from(exponents))
    own = [[(last, 1)]] if affine else [[(last, 2)], [(last, 1), (1, 1), (last, 1)]]
    if inverses and not affine:
        own.append([(last, -1)])
    words = []
    for i in range(draw(st.integers(1, 4))):
        syllables = draw(st.lists(earlier, max_size=3))
        if i == 0 or draw(st.booleans()):
            at = draw(st.integers(0, len(syllables)))
            syllables[at:at] = draw(st.sampled_from(own)) if i == 0 else [(last, 1)]
        words.append(Word(syllables))
    return words


@st.composite
def _scan_cases(draw, affine):
    """(tables, element, ground, last variable) on one of SCAN_ALGEBRAS; the
    ground is the units when the element has an inverse."""
    descriptor = draw(st.sampled_from(SCAN_ALGEBRAS))
    tb = _scan_tables(descriptor)
    # at most about 20,000 tuples, so the per-tuple sweep stays quick
    last = 3 if tb.n <= 27 else 2
    inverses = draw(st.booleans())
    words = _scan_case_words(draw, last, inverses, affine)
    coefficients = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=len(words),
                                 max_size=len(words)))
    terms = list(zip(words, coefficients))
    if draw(st.booleans()):
        # each word minus its mirror image: zero on the diagonal algebras,
        # so their rows hold and the sweep runs to the end
        terms += [(Word(w.syllables[::-1]), -c) for w, c in terms]
    if draw(st.booleans()):
        terms.append((Word(), draw(st.integers(1, 3))))
    e = LaurentElement(ZZ, terms)
    kind = "units" if e.has_negative_exponent() else draw(st.sampled_from(["elements", "units"]))
    return tb, e, _ground(tb, kind), last


@settings(max_examples=60, deadline=None)
@given(_scan_cases(affine=True))
def test_scan_is_the_per_tuple_sweep_on_affine_elements(case):
    tb, e, ground, last = case
    assume(last in e.variables())
    assert checkers._affine_in(e, last)
    _assert_scan_is_the_sweep(tb, e, ground)


@settings(max_examples=30, deadline=None)
@given(_scan_cases(affine=False))
def test_scan_is_the_per_tuple_sweep_on_other_elements(case):
    tb, e, ground, last = case
    # unless the words that break affinity cancel, the per-position leaf runs
    assume(not checkers._affine_in(e, last))
    _assert_scan_is_the_sweep(tb, e, ground)


def test_scan_cross_check_catches_a_broken_row(monkeypatch):
    linear_row = checkers._linear_row
    cases = [(_scan_tables(d), parse_element(expr), kind) for d, expr, kind in SCAN_CASES]
    mutations = [
        # the basis steps taken in the wrong order
        lambda tb: lambda start, steps, p: linear_row(start, steps[::-1], p),
        # steps of f(e_t) rather than f(e_t) - f(0): steps[t][f(0)] is f(e_t)
        lambda tb: lambda start, steps, p: linear_row(
            start, [tb.add[step[start]] for step in steps], p),
    ]
    for mutation in mutations:
        with pytest.raises(AssertionError):
            for tb, e, kind in cases:
                # the tables are built, so the mutation reaches only the scan
                monkeypatch.setattr(checkers, "_linear_row", mutation(tb))
                _assert_scan_is_the_sweep(tb, e, _ground(tb, kind))
        monkeypatch.undo()


class _CountedRows:
    """tb.mul with every product counted: self[a][b] is tb.mul[a][b]."""

    def __init__(self, rows):
        self.rows, self.products = rows, 0

    def __getitem__(self, a):
        return _Calls(lambda b: self._product(a, b))

    def _product(self, a, b):
        self.products += 1
        return self.rows[a][b]


def _leaf_products(tb, e, program):
    """The products that entering the last variable and reading the value
    take once every other variable is entered."""
    rng = random.Random(e.format())
    counted = _CountedRows(tb.mul)
    tb = copy.copy(tb)
    tb.mul = counted
    nvars, enter, value = program(tb, e)
    for d in range(nvars - 1):
        enter(d, rng.randrange(tb.n))
    counted.products = 0
    enter(nvars - 1, rng.randrange(tb.n))
    value()
    return counted.products


def _full_pass_counts(e, like, program):
    """The products, sums and negations that one full pass of e's program
    over values of the kind of like takes, every variable set to like."""
    counts = {"mul": 0, "add": 0, "neg": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    ops = group_algebra._value_ops(like)
    ops.mul = _Calls(lambda a: _Calls(counted("mul", a.mul)))
    ops.add = _Calls(lambda a: _Calls(counted("add", a.add)))
    ops.neg = _Calls(counted("neg", lambda a: -a))
    nvars, enter, value = program(ops, e)
    for d in range(nvars):
        enter(d, like)
    value()
    return counts


def test_staged_program_takes_its_products_above_the_leaf():
    tb = checkers._Tables(parse_algebra("M2@Fp:3"))
    square = parse_element("(x1*x2-x2*x1)^2*x3-x3*(x1*x2-x2*x1)^2")
    # A = [x1, x2]^2 is computed once per (x1, x2), so the leaf takes only
    # A*x3 and x3*A
    assert _leaf_products(tb, square, group_algebra._staged_program) <= 2
    # on S_k the tables' split takes fewer leaf products than the subset DP,
    # which the last-syllable split reproduces and values take for its
    # cheaper full pass
    last = functools.partial(group_algebra._staged_program, last=True)
    for k, dp in zip(range(2, 7), (2, 7, 19, 47, 111)):
        s = standard_polynomial(k)
        assert _leaf_products(tb, s, group_algebra._staged_program) == 2**k - 2
        assert _leaf_products(tb, s, lambda ops, e: _standard_program(ops, k)) == dp
        assert _leaf_products(tb, s, last) == dp


def test_values_take_the_subset_dp_products_on_standard_polynomials():
    like = parse_algebra("M2@Fp:3").identity()
    for k in range(2, 9):
        s = standard_polynomial(k)
        values = _full_pass_counts(s, like, group_algebra._staged_program)
        dp = _full_pass_counts(s, like, lambda ops, e: _standard_program(ops, k))
        assert values["mul"] == dp["mul"] == k * 2**(k - 1) - k, k
        assert values["add"] == dp["add"] and values["neg"] <= dp["neg"], k


def test_values_take_the_last_syllable_split_and_tables_the_leaf_split():
    s4 = standard_polynomial(4)
    tb = checkers._Tables(T3F2)
    # the kind of ops chooses the split: on S_4 the leaf split takes 14
    # products at the scan leaf and 26 a full pass, the last-syllable split
    # 19 and 28
    programs = [functools.partial(group_algebra._staged_program, **split)
                for split in ({}, {"last": False}, {"last": True})]
    assert [_leaf_products(tb, s4, program) for program in programs] == [14, 14, 19]
    assert [_full_pass_counts(s4, T3F2.identity(), program)["mul"]
            for program in programs] == [28, 26, 28]
    # the tables: a scan, and two workers
    hit, count = checkers._scan(tb, s4, list(range(tb.n)), range(tb.n))
    assert count == 270609
    v = al_verify(2, 2, workers=2)
    assert v.holds() and v.evaluations == 65536
    # values: evaluate, which gives an exhaustive hit its value, and random
    # mode
    assignment = dict(enumerate((tb.elements[i] for i in hit), 1))
    value = evaluate(s4, assignment)
    assert not value.is_zero() and value == checkers._plain_eval(s4, assignment)
    v = check_lpi(T3F2, s4, mode="random", budget=2000, seed=5)
    assert v.outcome == "counterexample" and v.evaluations == 5
    v = al_verify(2, 2, mode="random", budget=50, seed=1)
    assert v.holds() and v.evaluations == 50
    # S_3 with the sign of x3*x2*x1 flipped: S_3 again mod 2, where it fails
    flipped = parse_element("S(3) + 2*x3*x2*x1")
    assert flipped.coefficient(Word(((3, 1), (2, 1), (1, 1)))) == 1
    v = check_lpi(M2F2, flipped, mode="random", budget=200, seed=5)
    assert v.outcome == "counterexample" and v.evaluations == 5


def test_compiling_values_never_builds_a_standard_polynomial(monkeypatch):
    s4 = standard_polynomial(4)
    # S_4 vanishes on M_2, here at the four matrix units
    assignment = dict(enumerate((matrix_unit(f2, 2, i, j) for i in (1, 2) for j in (1, 2)), 1))
    monkeypatch.setattr(group_algebra, "standard_polynomial", lambda *args: pytest.fail(
        "standard_polynomial was built"))
    assert evaluate(s4, assignment).is_zero()


def test_workers_rebuild_the_element_over_its_own_ring():
    # 2*x3 vanishes mod 2, yet the tuples still have three variables
    e = parse_element("x1*x2-x2*x1+2*x3")
    v1, v2 = check_lpi(M2F2, e), check_lpi(M2F2, e, workers=2)
    assert v1.witness == v2.witness and v1.evaluations == v2.evaluations == 289
    assert set(v2.witness["assignment"]) == {1, 2, 3}


def test_workers_build_no_tables(monkeypatch):
    # the parent builds the tables once; forked workers scan that object,
    # so a second construction anywhere fails the scan
    built = []
    init = checkers._Tables.__init__

    def once(self, *args):
        if built:
            raise AssertionError("the tables were built twice")
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(checkers._Tables, "__init__", once)
    monkeypatch.setattr(checkers.os, "cpu_count", lambda: 2)  # a pool even on one CPU
    # forked workers inherit the wrapper, whatever the default start method
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    v = check_lpi(M2F2, standard_polynomial(3), workers=2)
    assert v.outcome == "counterexample" and v.evaluations == 293
    built.clear()
    v = al_verify(2, 2, workers=2)
    assert v.holds() and v.evaluations == 65536


SPAWNED_SCAN = """
import multiprocessing, os
from lpilab import checkers
from lpilab.matrix_algebra import parse_algebra
from lpilab.textio import parse_element

multiprocessing.set_start_method("spawn")
os.cpu_count = lambda: 2  # a pool even on one CPU
for expr, algebra in (("x1*x2-x2*x1+2*x3", "M2@Fp:2"), ("2*x1*x2-2*x2*x1", "M2@Fp:5")):
    e, a = parse_element(expr), parse_algebra(algebra)
    one, two = (checkers.check_lpi(a, e, workers=w) for w in (1, 2))
    assert (one.outcome, one.witness, one.evaluations) == (
        two.outcome, two.witness, two.evaluations), (expr, algebra)
    print(expr, algebra, two.outcome, two.evaluations)
"""


def test_spawned_workers_match_one_process():
    # spawned workers import nothing of the parent's state: the tables, the
    # element and its ring reach them pickled
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", SPAWNED_SCAN], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.split("\n")[:2] == ["x1*x2-x2*x1+2*x3 M2@Fp:2 counterexample 289",
                                   "2*x1*x2-2*x2*x1 M2@Fp:5 counterexample 631"]


def test_values_pickle_as_themselves():
    f5 = PrimeField(5)
    values = [Matrix(f5, [[1, 2], [3, 4]]), Word(((1, 2), (2, -1))), parse_element("x1*x2^-1 - 3*x3"),
              QuotientElement.letter(QQ, "x").add(QuotientElement.one(QQ).scale(2)),
              OneVarLaurent(f5, [(-2, 3), (1, 1)])]
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v) and back == v and hash(back) == hash(v)
        with pytest.raises(AttributeError, match="immutable"):
            back.ring = ZZ
    hit = check_lpi(M2F2, standard_polynomial(3))
    back = pickle.loads(pickle.dumps(hit))
    assert back == hit and back.witness["value"] == matrix_unit(f2, 2, 1, 1)


def test_al_verify_holds_exactly():
    v = al_verify(2, 2)
    assert v.holds()
    assert v.evaluations == 65536
    assert v.details["tuple_space"] == 65536


def test_al_verify_random():
    v = al_verify(2, 3, mode="random", budget=50, seed=1)
    assert v.holds()
    assert v.evaluations == 50


def test_al_verify_workers_match():
    v = al_verify(2, 2, workers=2)
    assert v.holds()
    assert v.evaluations == 65536


def test_check_group_identity():
    v = check_group_identity(M2F2, Word.gen(1, 6))
    assert v.holds() and v.evaluations == 6
    v = check_group_identity(M2F2, Word.gen(1, 2))
    assert v.outcome == "counterexample"
    # first unit whose square is not the identity, by enumeration order
    assert v.witness["assignment"][1] == Matrix(f2, [[0, 1], [1, 1]])
    assert check_group_identity(M2F2, Word()).holds()


def _reference_group_identity(algebra, w):
    """Every unit tuple in canonical order, the word folded by _plain_eval
    and compared with the identity: the outcome, the evaluations and the
    witness check_group_identity must report."""
    word = LaurentElement(ZZ, [(w, 1)])
    vars_sorted = sorted(w.variables())
    units = list(algebra.enumerate_units())
    tuples = itertools.product(units, repeat=len(vars_sorted))
    for count, combo in enumerate(tuples, start=1):
        assignment = dict(zip(vars_sorted, combo))
        value = checkers._plain_eval(word, assignment)
        if value != algebra.identity():
            return "counterexample", count, {"assignment": assignment, "value": value}
    return "holds", count, None


@pytest.mark.parametrize("word, descriptor, outcome, evaluations", [
    ("x1*x2*x1^-1*x2^-1", "M2@Fp:2", "counterexample", 2),
    ("x1*x2*x1^-1*x2^-1", "T3@Fp:3", "counterexample", 219),
    ("x1*x2*x1^-1*x2^-1", "D2@Fp:5", "holds", 256),
    # [[x1, x2], x3]
    ("x1*x2*x1^-1*x2^-1*x3*x2*x1*x2^-1*x1^-1*x3^-1", "T3@Fp:2", "holds", 512),
    ("x1^6", "M2@Fp:2", "holds", 6),
    ("x1^48", "M2@Fp:3", "holds", 48),
    ("x1^2*x2^-1", "T2@Fp:3", "counterexample", 2),
])
def test_check_group_identity_matches_a_plain_unit_loop(word, descriptor, outcome, evaluations):
    algebra, w = parse_algebra(descriptor), parse_word(word)
    v = check_group_identity(algebra, w)
    assert (v.outcome, v.evaluations, v.witness) == _reference_group_identity(algebra, w)
    assert (v.outcome, v.evaluations) == (outcome, evaluations)
    assert v.details == {"units": len(checkers._Tables(algebra).units)}


def test_check_group_identity_random():
    v = check_group_identity(M2F2, Word.gen(1, 2), mode="random", budget=400, seed=3)
    assert v.outcome == "counterexample"
    w = v.witness["assignment"][1]
    assert w.mul(w) != M2F2.identity()


def test_minimal_polynomial_cases():
    e11 = matrix_unit(f2, 2, 1, 1)
    assert minimal_polynomial(e11) == UniPoly(f2, [0, 1, 1])       # X^2 + X
    ident = M2F2.identity()
    assert minimal_polynomial(ident) == UniPoly(f2, [1, 1])        # X + 1
    e12 = matrix_unit(f2, 2, 1, 2)
    assert minimal_polynomial(e12) == UniPoly(f2, [0, 0, 1])       # X^2
    m = Matrix(f2, [[0, 1], [1, 1]])
    assert minimal_polynomial(m) == UniPoly(f2, [1, 1, 1])
    z = Matrix(ZZ, [[2, 1], [0, 2]])
    mu = minimal_polynomial(z)
    assert mu == UniPoly(ZZ, [4, -4, 1])  # (X - 2)^2
    assert unipoly_eval(mu, z).is_zero()


def test_minimal_polynomial_annihilates_seeded():
    rng = random.Random(17)
    alg = parse_algebra("M3@Fp:5")
    for _ in range(40):
        m = alg.sample_element(rng)
        mu = minimal_polynomial(m)
        assert unipoly_eval(mu, m).is_zero()
        assert mu.coeff(mu.degree) == 1


def _powers_independent(m, k):
    """Are I, m, ..., m^(k-1) linearly independent? Over F_p their p**k
    combinations must be distinct; over ZZ and QQ their Gram matrix must be
    nonsingular."""
    vecs = [[x for row in m.power(i).entries for x in row] for i in range(k)]
    p = getattr(m.ring, "p", None)
    if p is None:
        gram = [[sum(Fraction(a) * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
        return det(Matrix(QQ, gram)) != 0
    span = {tuple([0] * len(vecs[0]))}
    for v in vecs:
        span = {tuple((a + c * b) % p for a, b in zip(s, v)) for s in span for c in range(p)}
    return len(span) == p**k


def test_minimal_polynomial_is_least_and_annihilates():
    rng = random.Random(2024)
    rings = [ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
    for i in range(3000):
        R = rings[i % 5]
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if R is QQ
                 else R.coerce(0 if rng.random() < 0.4 else rng.randint(-3, 3))
                 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            rows = [rows[0][:] for _ in range(n)]
        m = Matrix(R, rows)
        mu = minimal_polynomial(m)
        assert mu.coeff(mu.degree) == R.one and unipoly_eval(mu, m).is_zero(), m
        assert _powers_independent(m, mu.degree), m
        if R is ZZ:
            assert all(type(c) is int for c in mu.coeffs)


def test_nilbound_triangular_families_hold():
    v = nil_exponent_search(parse_algebra("T2@Fp:2"))
    assert v.holds()
    assert v.details["minimal_m_nilpotent"] == 2
    assert v.details["non_nilpotent"] == 0
    assert v.details["quadruples"] == 416
    v3 = nil_exponent_search(parse_algebra("T3@Fp:2"))
    assert v3.holds()
    assert v3.details["minimal_m_nilpotent"] == 2
    assert v3.details["quadruples"] == 242688


def test_nilbound_full_matrices_find_non_nilpotent_products():
    """The full 2x2 algebra genuinely contains quadruples with a^2 = bc = 0
    whose product bacu is not nilpotent (b = c = e12, a = e21, u = e21
    gives bacu = e11 up to ordering), so the verdict must be a
    counterexample with the skipped products counted."""
    v = nil_exponent_search(M2F2)
    assert v.outcome == "counterexample"
    assert v.details["non_nilpotent"] == 432
    assert v.details["minimal_m_nilpotent"] == 2
    assert v.details["quadruples"] == 3712
    w = v.witness
    assert w["a"].mul(w["a"]).is_zero()
    assert w["b"].mul(w["c"]).is_zero()
    product = w["b"].mul(w["a"]).mul(w["c"]).mul(w["u"])
    assert product == w["bacu"]
    assert not product.power(2).is_zero()


def test_nilbound_m_max_cutoff():
    # T3 contains nilpotent products; with m_max below their index the
    # verdict flips to a counterexample carrying an index witness
    v = nil_exponent_search(parse_algebra("T3@Fp:2"), m_max=1)
    assert v.outcome == "counterexample"
    w = v.witness
    assert not w["bacu"].is_zero()  # index above 1


def test_nilbound_random_m_max_counterexample_has_witness():
    v = nil_exponent_search(parse_algebra("T3@Fp:2"), m_max=1, mode="random", seed=1)
    assert v.outcome == "counterexample"
    assert v.evaluations == v.details["samples"] == 1000
    w = v.witness
    assert w["a"].mul(w["a"]).is_zero()
    assert w["b"].mul(w["c"]).is_zero()
    assert w["b"].mul(w["a"]).mul(w["c"]).mul(w["u"]) == w["bacu"]
    assert not w["bacu"].is_zero()  # nil index above m_max = 1
    assert w["bacu"].power(3).is_zero()


def test_nilbound_random_mode():
    v = nil_exponent_search(parse_algebra("T2@Fp:2"), mode="random", budget=300, seed=8)
    assert v.holds()
    assert v.details["minimal_m_nilpotent"] <= 2


def _nil_survey_per_quadruple(algebra, m_max):
    """The exhaustive nil survey one quadruple at a time, classifying every
    product bac*u on its own: (outcome, evaluations, details, witness)."""
    n = algebra.n
    bound = n if m_max is None else min(m_max, n)
    tb = checkers._Tables(algebra)
    MUL, E = tb.mul, tb.elements
    sq0 = [i for i in range(tb.n) if MUL[i][i] == tb.zero]
    pairs = [(b, c) for b in range(tb.n) for c in range(tb.n) if MUL[b][c] == tb.zero]
    examined = non_nilpotent = 0
    minimal_m = 1
    first_bad = over_mmax = m_witness = None
    for a in sq0:
        for b, c in pairs:
            bac = MUL[MUL[b][a]][c]
            for u in range(tb.n):
                v = MUL[bac][u]
                quad = (E[a], E[b], E[c], E[u], E[v])
                k = checkers._nil_index(tb, v, n)
                examined += 1
                if k is None:
                    non_nilpotent += 1
                    if first_bad is None:
                        first_bad = quad
                else:
                    if k > minimal_m:
                        minimal_m = k
                        m_witness = quad
                    if k > bound and over_mmax is None:
                        over_mmax = quad
    details = {"square_zero": len(sq0), "annihilating_pairs": len(pairs),
               "non_nilpotent": non_nilpotent, "minimal_m_nilpotent": minimal_m,
               "m_max": bound, "quadruples": examined}
    if m_witness is not None:
        details["index_witness"] = checkers._quad_witness(m_witness)
    witness = first_bad if first_bad is not None else over_mmax
    if witness is None:
        return "holds", examined, details, None
    return "counterexample", examined, details, checkers._quad_witness(witness)


NIL_ROW_CASES = [(descriptor, m_max)
                 for descriptor in ("M2@Fp:2", "M2@Fp:3", "T2@Fp:2", "T2@Fp:3", "T2@Fp:5",
                                    "T3@Fp:2", "D2@Fp:5", "D2@Fp:7")
                 for m_max in (None, 1, 2)]


@pytest.mark.parametrize("descriptor, m_max", NIL_ROW_CASES)
def test_nil_search_by_rows_is_the_per_quadruple_survey(descriptor, m_max):
    # the search surveys each distinct row bac once and folds the surveys;
    # every count, the index witness and the witness must be those of the
    # survey that classifies each quadruple in canonical order
    algebra = parse_algebra(descriptor)
    v = nil_exponent_search(algebra, m_max=m_max)
    assert (v.outcome, v.evaluations, v.details, v.witness) == _nil_survey_per_quadruple(
        algebra, m_max)


def test_exhaustive_nil_search_classifies_each_element_once(monkeypatch):
    # T3@Fp:2 has 64 elements and 242,688 quadruples, which fall into 6 rows
    calls = []
    nil_index = checkers._nil_index
    monkeypatch.setattr(checkers, "_nil_index",
                        lambda *args: calls.append(args) or nil_index(*args))
    v = nil_exponent_search(T3F2)
    assert v.holds() and v.evaluations == 242688
    assert 0 < len(calls) <= 64


def test_square_zero_nilpotency():
    v = square_zero_nilpotency(M2F2, 1)
    assert v.holds()
    assert v.details["checked"] == 10
    assert v.details["skipped_non_nilpotent"] == 6
    v3 = square_zero_nilpotency(parse_algebra("T3@Fp:2"), 1)
    assert v3.holds()
    vr = square_zero_nilpotency(M2F2, 1, mode="random", budget=50, seed=2)
    assert vr.holds()
    assert vr.details["checked"] + vr.details["skipped_non_nilpotent"] == 50


def test_vandermonde_nil_components():
    f101 = PrimeField(101)
    f = UniPoly(f101, [7, 2, 0, 5])
    v = Matrix(f101, [[1, 2, 3], [0, 1, 4], [5, 0, 1]])
    u = Matrix(f101, [[2, 1, 0], [1, 0, 1], [3, 2, 1]])
    comps, verdict = vandermonde_nil(f, v, u, [1, 2, 3])
    vu = v.mul(u)
    assert comps == [vu.power(i).scale(f.coeff(i)) for i in (1, 2, 3)]
    assert verdict.holds()


def test_vandermonde_nil_detects_nilpotent_product():
    # vu = e12 is nilpotent of index 2, so with f = X^2 both positive
    # components vanish and the closing check (vu)^2 = 0 fires
    f = UniPoly(ZZ, [0, 0, 1])
    v = matrix_unit(ZZ, 2, 1, 2)
    u = Matrix(ZZ, [[0, 0], [0, 1]])
    comps, verdict = vandermonde_nil(f, v, u, [1, 2])
    assert all(c.is_zero() for c in comps)
    assert verdict.holds()
    assert verdict.details["vu_power_zero"] is True


def test_vandermonde_nil_rejects_bad_lambdas():
    f = UniPoly(f2, [1, 1])
    v = u = matrix_unit(f2, 2, 1, 2)
    with pytest.raises(PreconditionError):
        vandermonde_nil(f, v, u, [0])
    with pytest.raises(PreconditionError):
        vandermonde_nil(f, v, u, [1, 1])
    with pytest.raises(PreconditionError):
        vandermonde_nil(f, v, u, [1, 2])  # only one nonzero scalar in F2


def test_finite_annihilator_m2f2():
    res = finite_annihilator(M2F2)
    # enumerated independently: distinct cycle shapes (1,2) (1,3) (1,4) (2,3)
    assert res.g == UniPoly(f2, [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1])
    assert res.g.degree == 12
    assert [f for f, _ in res.factors] == [(1, 2), (1, 3), (1, 4), (2, 3)]
    assert dict(res.factors) == {(1, 2): 8, (1, 3): 3, (1, 4): 2, (2, 3): 3}
    assert res.pairs_checked == 16


def test_finite_annihilator_without_merging():
    res = finite_annihilator(M2F2, merge_duplicates=False)
    assert res.g.degree == 42  # every element contributes its own factor
    sq0 = list(M2F2.enumerate_square_zero())
    for a in sq0:
        for b in sq0:
            assert unipoly_eval(res.g, a.mul(b)).is_zero()


def test_infinite_counterexample_within_trial_bound():
    g = UniPoly(ZZ, [0, 2, 1])
    hit = infinite_counterexample(g)
    assert hit.trials <= g.degree + 1
    assert hit.a.mul(hit.a).is_zero()
    assert hit.b.mul(hit.b).is_zero()
    assert not unipoly_eval(g, hit.a.mul(hit.b)).is_zero()
    # constant g succeeds immediately
    assert infinite_counterexample(UniPoly(ZZ, [3])).trials == 1
    with pytest.raises(PreconditionError):
        infinite_counterexample(UniPoly(ZZ))


def test_bounds_from_d():
    assert bounds_from_d(3) == (6, 7)
    assert bounds_from_d(1) == (2, 4)
    assert bounds_from_d(3, q=4) == (6, 4)
    assert bounds_from_d(1, q=3) == (2, 3)
    with pytest.raises(PreconditionError):
        bounds_from_d(0)
    with pytest.raises(PreconditionError):
        bounds_from_d(3, q=1)


def test_s3_expand_report():
    rec = s3_expand()
    assert rec["match_over_ZZ"] is False
    assert rec["match_mod2"] is True
    # the expansion itself, computed by brute force over ZZ
    exp = rec["expansion"]
    assert exp.coefficient(Word(((1, 1), (2, 1), (1, 1), (2, 1)))) == 2
    assert exp.coefficient(Word(((2, 1), (1, 1), (2, 1), (1, 1)))) == 1
    assert exp.coefficient(Word(((1, 2), (2, 2)))) == -1
    assert exp.coefficient(Word(((2, 1), (1, 2), (2, 1)))) == -1
    assert exp.coefficient(Word(((1, 1), (2, 2), (1, 1)))) == -1
    disagreements = [row for row in rec["table"] if not row["agree"]]
    assert disagreements  # the two forms differ over ZZ


def test_idempotent_centrality():
    violators = idempotent_centrality(M2F2)
    idems = {e for e, _ in violators}
    assert len(violators) == 6
    assert matrix_unit(f2, 2, 1, 1) in idems
    assert M2F2.identity() not in idems
    assert M2F2.zero() not in idems
    for e, m in violators:
        assert e.mul(e) == e
        assert e.mul(m) != m.mul(e)


def test_quotient_pi_check():
    v = quotient_pi_check(2, samples=300, seed=21)
    assert v.holds()
    assert v.details["s2_nonzero"] and v.details["s3_nonzero"]
    assert v.details["s2_at_units"] == "x*y - y*x"
    v1 = quotient_pi_check(1, seed=21)
    assert v1.outcome == "counterexample"


def test_verdict_timing_and_seed_fields():
    v = check_lpi(M2F2, standard_polynomial(3), mode="random", budget=10, seed=99)
    assert v.seed == 99
    assert v.mode == "random"
    assert isinstance(v.elapsed_ms, int)


def test_verdict_is_a_plain_record():
    v = checkers.Verdict(outcome="holds")
    assert (v.witness, v.evaluations, v.mode, v.seed, v.elapsed_ms, v.details) == (
        None, 0, "exhaustive", None, 0, {})
    assert checkers.Verdict("holds").details is not v.details
    assert v == checkers.Verdict("holds", None, 0, "exhaustive", None, 0, {})
    assert v != checkers.Verdict("holds", evaluations=1) and v != "holds"
    v.details = {"units": 6}
    assert repr(v) == ("Verdict(outcome='holds', witness=None, evaluations=0, mode='exhaustive', "
                       "seed=None, elapsed_ms=0, details={'units': 6})")
    assert pickle.loads(pickle.dumps(v)) == v
    with pytest.raises(TypeError):
        hash(v)


def _some_value(assignment):
    values = assignment.values() if isinstance(assignment, dict) else assignment
    return next(iter(values))


def _zero_value(e, assignment):
    return _some_value(assignment).zero_like()


def _one_program(ops, e):
    """A program that reports the identity, a nonzero value, everywhere."""
    return len(e.variables()), lambda d, idx: None, lambda: ops.one


S3 = standard_polynomial(3)

# (checker and mode, what to break in lpilab.checkers, or in the module
# named, its stand-in, the call). Either the
# confirming evaluator is broken, or, where the identity holds (al_verify,
# quotient_pi_check for n >= 2), the search is broken into a false hit;
# search and confirmation then disagree, so no verdict may come back.
GATE_CASES = [
    ("check_lpi/prefilter", "_plain_eval", _zero_value,
     lambda: check_lpi(M2F2, gi_to_lpi(Word.gen(1, 2)) + LaurentElement.one(ZZ))),
    ("check_lpi/exhaustive", "evaluate", _zero_value, lambda: check_lpi(M2F2, S3)),
    ("check_lpi/exhaustive/workers", "evaluate", _zero_value,
     lambda: check_lpi(M2F2, S3, workers=2)),
    ("check_lpi/random", "_plain_eval", _zero_value,
     lambda: check_lpi(M2F2, S3, mode="random", budget=200, seed=5)),
    ("check_lpi/exhaustive/generic", "evaluate", _zero_value,
     lambda: check_lpi(M2F2, parse_element("x1*x2^2-x2^2*x1"))),
    # the program for S_k, on the tables or on values, reports a nonzero
    # value at the first tuple or sample
    ("al_verify/exhaustive", "_staged_program", _one_program, lambda: al_verify(1, 2)),
    ("al_verify/random", "group_algebra._staged_program", _one_program,
     lambda: al_verify(1, 2, mode="random", budget=5, seed=1)),
    ("check_group_identity/exhaustive", "_plain_eval", _zero_value,
     lambda: check_group_identity(M2F2, Word.gen(1, 2))),
    ("check_group_identity/random", "_plain_eval", _zero_value,
     lambda: check_group_identity(M2F2, Word.gen(1, 2), mode="random", budget=400, seed=3)),
    # x1^6 = 1 on GL_2(F_2); the staged program reports 1 - x1^6 as 1 at once
    ("check_group_identity/exhaustive/false-hit", "_staged_program", _one_program,
     lambda: check_group_identity(M2F2, Word.gen(1, 6))),
    ("nil_exponent_search/exhaustive", "_reverify_quad", lambda w, power: False,
     lambda: nil_exponent_search(M2F2)),
    ("nil_exponent_search/exhaustive/m_max", "_reverify_quad", lambda w, power: False,
     lambda: nil_exponent_search(T3F2, m_max=1)),
    ("nil_exponent_search/random", "_reverify_quad", lambda w, power: False,
     lambda: nil_exponent_search(M2F2, mode="random", budget=100, seed=4)),
    ("nil_exponent_search/random/m_max", "_reverify_quad", lambda w, power: False,
     lambda: nil_exponent_search(T3F2, m_max=1, mode="random", budget=100, seed=1)),
    ("quotient_pi_check/n=1", "_plain_eval", _zero_value, lambda: quotient_pi_check(1)),
    ("quotient_pi_check/random", "group_algebra._staged_program", _one_program,
     lambda: quotient_pi_check(2, samples=5, seed=3)),
]


@pytest.mark.parametrize("name, target, stand_in, call", GATE_CASES,
                         ids=[c[0] for c in GATE_CASES])
def test_counterexample_needs_independent_confirmation(monkeypatch, name, target,
                                                       stand_in, call):
    monkeypatch.setattr("lpilab." + (target if "." in target else "checkers." + target), stand_in)
    with pytest.raises(SolveError):
        call()


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_square_zero_counterexample_needs_confirmation(monkeypatch, mode):
    # a^2 = b^2 = 0 with ab nilpotent forces (ab)^2 = 0 on M2(F2), so a
    # search that sees (ab)^2 != 0 is wrong, and confirmation, which takes
    # its powers by Horner evaluation, must refuse the hit
    monkeypatch.setattr(Matrix, "power", lambda self, k: self.one_like())
    with pytest.raises(SolveError):
        square_zero_nilpotency(M2F2, 1, mode=mode, budget=50, seed=2)


def test_unknown_mode_is_rejected():
    for call in (
        lambda: check_lpi(M2F2, S3, mode="basis"),
        lambda: al_verify(1, 2, mode="basis"),
        lambda: check_group_identity(M2F2, Word.gen(1, 2), mode="basis"),
        lambda: nil_exponent_search(M2F2, mode="basis"),
        lambda: square_zero_nilpotency(M2F2, 1, mode="basis"),
        # calls that have their answer before the search starts
        lambda: check_lpi(M2F2, LaurentElement(ZZ, [(Word(), 1), (Word.gen(1), 1),
                                                     (Word.gen(1, 2), 1)]), mode="bogus"),
        lambda: check_lpi(M2F2, LaurentElement.zero(ZZ), mode="bogus"),
        lambda: check_group_identity(M2F2, Word(), mode="bogus"),
    ):
        with pytest.raises(PreconditionError):
            call()


M2F3 = parse_algebra("M2@Fp:3")
ONE_PLUS_X1 = parse_element("1+x1")


def test_random_mode_refuses_a_budget_below_one():
    # with no draw at all a random search would report holds untested
    comm = parse_element("x1*x2-x2*x1")
    for budget in (0, -5):
        for call in (
            lambda: check_lpi(M2F2, comm, mode="random", budget=budget, seed=1),
            # early answers: a nonzero coefficient sum and the empty word
            lambda: check_lpi(M2F3, ONE_PLUS_X1, mode="random", budget=budget, seed=1),
            lambda: check_group_identity(M2F2, Word(), mode="random", budget=budget, seed=1),
            lambda: al_verify(1, 2, mode="random", budget=budget, seed=1),
            lambda: check_group_identity(M2F2, Word.gen(1, 2), mode="random",
                                         budget=budget, seed=1),
            lambda: nil_exponent_search(M2F2, mode="random", budget=budget, seed=1),
            lambda: square_zero_nilpotency(M2F2, 1, mode="random", budget=budget, seed=1),
            lambda: quotient_pi_check(2, samples=budget, seed=1),
        ):
            with pytest.raises(PreconditionError, match="budget of at least 1"):
                call()
    # exhaustive mode has no budget to refuse
    assert check_lpi(M2F2, comm, budget=0).witness == check_lpi(M2F2, comm).witness


def test_workers_below_one_are_refused():
    for workers in (0, -3):
        with pytest.raises(PreconditionError, match="workers must be at least 1"):
            check_lpi(M2F2, S3, workers=workers)
        with pytest.raises(PreconditionError, match="workers must be at least 1"):
            al_verify(1, 2, mode="random", budget=5, seed=1, workers=workers)
        # an early answer, from the nonzero coefficient sum
        with pytest.raises(PreconditionError, match="workers must be at least 1"):
            check_lpi(M2F3, ONE_PLUS_X1, workers=workers)


def test_workers_are_bounded_by_the_cpu_count(monkeypatch):
    # no real pool is started: the stand-in records its size and runs the
    # chunks in this process
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            payloads = list(payloads)
            self.chunks = len(payloads)
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    one = check_lpi(M2F2, S3)
    monkeypatch.setattr(checkers.os, "cpu_count", lambda: 3)
    many = check_lpi(M2F2, S3, workers=700)
    assert [(p.max_workers, p.chunks) for p in pools] == [(3, 3)]
    assert (many.witness, many.evaluations) == (one.witness, one.evaluations)
    v = al_verify(1, 3, workers=700)
    assert (pools[-1].max_workers, pools[-1].chunks) == (3, 3)
    assert v.holds() and v.evaluations == 9
    # an unknown CPU count runs the scan in this process
    monkeypatch.setattr(checkers.os, "cpu_count", lambda: None)
    again = check_lpi(M2F2, S3, workers=700)
    assert len(pools) == 2 and again.evaluations == one.evaluations


def test_random_units_are_inverted_once(monkeypatch):
    # each sampled unit is inverted by the draw that tested it, and again
    # only by _plain_eval when it confirms the hit
    calls = []
    inverse = matrix_algebra.mat_inverse

    def counted(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(matrix_algebra, "mat_inverse", counted)
    monkeypatch.setattr(checkers, "mat_inverse", counted)
    e = parse_element("x1*x2*x1^-1*x2^-1 - 1")
    v = check_lpi(parse_algebra("M2@Fp:5"), e, mode="random", budget=20, seed=1)
    assert v.outcome == "counterexample" and v.evaluations == 1
    assert len(calls) == 4

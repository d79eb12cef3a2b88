import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpilab.checkers import _Tables, _plain_eval
from lpilab.errors import CapExceeded, NonUnit, PreconditionError, RingMismatch, SolveError
from lpilab.freegroup import Word
from lpilab.group_algebra import LaurentElement, gi_to_lpi, standard_polynomial
from lpilab.matrix_algebra import (
    INT_SAMPLE_BOUND,
    SAMPLE_RETRIES,
    Algebra,
    Matrix,
    det,
    evaluate,
    identity,
    mat_inverse,
    matrix_unit,
    parse_algebra,
    zeros,
)
from lpilab.quotient_algebra import QuotientElement, sample_element
from lpilab.rings import (MAX_PRODUCT_BITS, QQ, ZZ, PrimeField, _kernel,
                          ring_from_descriptor)
from lpilab.textio import parse_element

f2 = PrimeField(2)
f3 = PrimeField(3)


def test_matrix_basic_arithmetic():
    a = Matrix(ZZ, [[1, 2], [3, 4]])
    b = Matrix(ZZ, [[0, 1], [1, 0]])
    assert a.add(b).entries == ((1, 3), (4, 4))
    assert a.mul(b).entries == ((2, 1), (4, 3))
    assert (-a).entries == ((-1, -2), (-3, -4))
    assert (a - a).is_zero()
    assert a.scale(2).entries == ((2, 4), (6, 8))
    assert a.power(0) == identity(ZZ, 2)
    assert a.power(3) == a.mul(a).mul(a)
    with pytest.raises(PreconditionError):
        a.power(-1)


def test_integer_products_are_bounded():
    # the first entry is a sum of two equal products: 2^(B-1), of B bits,
    # just below the bound B, and 2^B, of B + 1 bits, just past it
    below = Matrix(ZZ, [[2 ** (MAX_PRODUCT_BITS - 2)] * 2, [0, 0]])
    past = Matrix(ZZ, [[2 ** (MAX_PRODUCT_BITS - 1)] * 2, [0, 0]])
    b = Matrix(ZZ, [[1, 0], [1, 0]])
    assert below.mul(b).entries == ((2 ** (MAX_PRODUCT_BITS - 1), 0), (0, 0))
    assert (-below).mul(b).entries == ((-2 ** (MAX_PRODUCT_BITS - 1), 0), (0, 0))
    for m in (past, -past):
        with pytest.raises(PreconditionError, match=f"more than {MAX_PRODUCT_BITS} bits"):
            m.mul(b)


def _triple_loop_product(a, b):
    """The reference product: one ring add and one ring mul per term."""
    R, n = a.ring, a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = R.zero
            for k in range(n):
                acc = R.add(acc, R.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


PRODUCT_SCALARS = [
    (ZZ, st.integers(-2**70, 2**70)),
    (QQ, st.fractions(min_value=-50, max_value=50, max_denominator=30)),
    (f2, st.integers(-4, 4)),
    (f3, st.integers(-9, 9)),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRODUCT_SCALARS), st.integers(1, 4), st.data())
def test_matrix_products_match_the_triple_loop(ring_scalars, n, data):
    ring, scalars = ring_scalars
    square = st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = Matrix(ring, data.draw(square)), Matrix(ring, data.draw(square))
    product = a.mul(b)
    assert product.entries == _triple_loop_product(a, b)
    # each entry is reduced, and of the ring's own type
    assert product.entries == Matrix(ring, product.entries).entries
    assert all(type(x) is type(ring.zero) for row in product.entries for x in row)


def test_matrix_validation():
    with pytest.raises(PreconditionError):
        Matrix(ZZ, [[1, 2]])
    with pytest.raises(PreconditionError):
        Matrix(ZZ, [])
    with pytest.raises(RingMismatch):
        Matrix(ZZ, [[1, 2], [3, 4]]).add(Matrix(f2, [[1, 0], [0, 1]]))
    for ring in (ZZ, QQ, f2):
        for bad in (True, 0.5):
            with pytest.raises(RingMismatch):
                Matrix(ring, [[1, 0], [0, bad]])
            with pytest.raises(RingMismatch):
                identity(ring, 2).scale(bad)
    with pytest.raises(RingMismatch):
        identity(f3, 2).scale(Fraction(1, 3))


def test_matrix_units_and_parse():
    e21 = matrix_unit(ZZ, 2, 2, 1)
    assert e21.entries == ((0, 0), (1, 0))


def test_det_and_inverse_field():
    m = Matrix(f3, [[1, 2], [1, 1]])
    assert det(m) == 2
    inv = mat_inverse(m)
    assert m.mul(inv) == identity(f3, 2)
    assert inv.mul(m) == identity(f3, 2)
    assert mat_inverse(Matrix(f3, [[1, 2], [2, 1]])) is None  # det = 0


def test_inverse_over_integers_needs_unit_det():
    m = Matrix(ZZ, [[2, 1], [1, 1]])  # det 1
    inv = mat_inverse(m)
    assert m.mul(inv) == identity(ZZ, 2)
    assert mat_inverse(Matrix(ZZ, [[2, 0], [0, 1]])) is None  # det 2
    swap = Matrix(ZZ, [[0, 1], [1, 0]])  # det -1
    assert mat_inverse(swap) == swap


def test_det_three_by_three():
    m = Matrix(ZZ, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    assert det(m) == 2 * (1 * 1 - 0 * 3) - 0 + 1 * (1 * 3 - 0)


def test_algebra_descriptors():
    alg = parse_algebra("M2@Fp:2")
    assert alg.family == "M" and alg.n == 2 and alg.ring == f2
    assert alg.descriptor() == "M2@Fp:2"
    assert parse_algebra("T3@Fp:3").positions() == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
    ]
    assert parse_algebra("D2@ZZ").positions() == [(0, 0), (1, 1)]
    for bad in ("X2@Fp:2", "M@Fp:2", "M2", "M2@", "M2@Fp:4"):
        with pytest.raises(PreconditionError):
            parse_algebra(bad)


def test_contains_respects_family():
    t2 = parse_algebra("T2@Fp:2")
    assert t2.contains(Matrix(f2, [[1, 1], [0, 1]]))
    assert not t2.contains(Matrix(f2, [[1, 0], [1, 1]]))
    assert not t2.contains(Matrix(f3, [[1, 0], [0, 1]]))


def test_enumeration_counts_and_order():
    m2 = parse_algebra("M2@Fp:2")
    elems = list(m2.enumerate_elements())
    assert len(elems) == 16
    assert m2.size() == 16
    assert elems[0].is_zero()
    # row-major lexicographic: the second element flips the last position
    assert elems[1] == matrix_unit(f2, 2, 2, 2)
    assert parse_algebra("T2@Fp:2").size() == 8
    assert parse_algebra("T3@Fp:2").size() == 64
    with pytest.raises(PreconditionError):
        list(parse_algebra("M2@ZZ").enumerate_elements())
    with pytest.raises(CapExceeded):
        list(parse_algebra("M3@Fp:101").enumerate_elements(cap=1000))


def test_unit_group_orders():
    # |GL_n(F_q)| = prod (q^n - q^i); enumerated counts must match
    assert len(list(parse_algebra("M2@Fp:2").enumerate_units())) == 6
    assert len(list(parse_algebra("M2@Fp:3").enumerate_units())) == 48
    assert len(list(parse_algebra("M3@Fp:2").enumerate_units())) == 168
    # triangular units: invertible diagonal, so (p-1)^n * p^(strict)
    assert len(list(parse_algebra("T2@Fp:3").enumerate_units())) == 12


def test_square_zero_enumeration():
    m2 = parse_algebra("M2@Fp:2")
    sq0 = list(m2.enumerate_square_zero())
    expect = {
        zeros(f2, 2),
        matrix_unit(f2, 2, 1, 2),
        matrix_unit(f2, 2, 2, 1),
        Matrix(f2, [[1, 1], [1, 1]]),
    }
    assert set(sq0) == expect
    t2 = parse_algebra("T2@Fp:2")
    assert set(t2.enumerate_square_zero()) == {zeros(f2, 2), matrix_unit(f2, 2, 1, 2)}


def test_sampling_is_seeded_and_valid():
    alg = parse_algebra("M2@Fp:5")
    rng1, rng2 = random.Random(3), random.Random(3)
    assert all(alg.sample_element(rng1) == alg.sample_element(rng2) for _ in range(20))
    rng = random.Random(4)
    for _ in range(50):
        u, inv = alg.sample_unit(rng)
        assert mat_inverse(u) == inv and u.mul(inv) == alg.identity()
        z = alg.sample_square_zero(rng)
        assert z.mul(z).is_zero()
    t3 = parse_algebra("T3@Fp:2")
    for _ in range(20):
        z = t3.sample_square_zero(rng)
        assert z.mul(z).is_zero() and t3.contains(z)
    # the diagonal family has no strictly upper entry to draw
    d2 = parse_algebra("D2@Fp:3")
    state = rng.getstate()
    assert d2.sample_square_zero(rng).is_zero()
    assert rng.getstate() == state


def test_a_square_zero_construction_that_fails_is_a_bug(monkeypatch):
    # the rank-one draw squares to zero by construction, so a draw that
    # does not is the package's fault, not the request's
    monkeypatch.setattr(Algebra, "_place", lambda self, values, positions=None: self.identity())
    with pytest.raises(SolveError, match="implementation bug"):
        parse_algebra("M2@Fp:3").sample_square_zero(random.Random(1))


@pytest.mark.parametrize("desc", [f"{f}{n}@Fp:{p}" for f in "MTD" for n in (2, 3)
                                  for p in (2, 3)])
def test_right_annihilator_draws_lie_in_the_algebra(desc):
    alg = parse_algebra(desc)
    rng = random.Random(desc)
    for b in [alg.zero(), alg.identity()] + [alg.sample_element(rng) for _ in range(40)]:
        c = alg.sample_right_annihilator(b, rng)
        assert alg.contains(c) and b.mul(c).is_zero(), (b, c)


@pytest.mark.parametrize("desc", ["M2@Fp:2", "T2@Fp:3", "D2@Fp:3"])
def test_right_annihilator_draws_reach_every_annihilator(desc):
    alg = parse_algebra(desc)
    tb = _Tables(alg)
    singular = next(i for i in range(1, tb.n) if tb.inverse[i] is None)
    rng = random.Random(desc)
    for b in (tb.zero, tb.one, singular):
        want = {tb.elements[c] for c in range(tb.n) if tb.mul[b][c] == tb.zero}
        draws = {alg.sample_right_annihilator(tb.elements[b], rng) for _ in range(600)}
        assert draws == want, tb.elements[b]


def test_evaluate_words_and_inverses():
    alg = parse_algebra("M2@Fp:2")
    a = Matrix(f2, [[0, 1], [1, 1]])  # a unit
    e = gi_to_lpi(Word.gen(1, 2))     # 1 - x1^2
    assert evaluate(e, (a,)) == identity(f2, 2) - a.mul(a)
    # inverse exponents demand units
    w = LaurentElement(f2, [(Word.gen(1, -1), 1)])
    assert evaluate(w, (a,)) == mat_inverse(a)
    with pytest.raises(NonUnit):
        evaluate(w, (matrix_unit(f2, 2, 1, 2),))


def test_evaluate_embeds_integer_coefficients():
    e = LaurentElement(ZZ, [(Word.gen(1), 3)])
    a = Matrix(f2, [[1, 0], [0, 1]])
    assert evaluate(e, (a,)) == a  # 3 = 1 mod 2
    # and rejects unembeddable coefficient rings
    e3 = LaurentElement(f3, [(Word.gen(1), 1)])
    with pytest.raises(RingMismatch):
        evaluate(e3, (a,))


def test_evaluate_checks_assignment():
    e = LaurentElement(ZZ, [(Word.gen(2), 1)])
    with pytest.raises(PreconditionError):
        evaluate(e, (Matrix(ZZ, [[1, 0], [0, 1]]),))  # x2 unassigned
    with pytest.raises(PreconditionError):
        evaluate(e, ())
    m = Matrix(ZZ, [[1, 0], [0, 1]])
    for values in ((1, 2), (m, 2), (QuotientElement.one(ZZ), m)):
        with pytest.raises(PreconditionError, match="expected a Matrix"):
            evaluate(parse_element("x1*x2"), values)
    alg = parse_algebra("T2@Fp:2")
    with pytest.raises(PreconditionError):
        evaluate(
            LaurentElement(ZZ, [(Word.gen(1), 1)]),
            (Matrix(f2, [[1, 0], [1, 1]]),),
            algebra=alg,
        )


def test_evaluate_matches_manual_product():
    rng = random.Random(99)
    alg = parse_algebra("M2@Fp:5")
    w = Word(((1, 2), (2, 1), (1, -1)))
    e = LaurentElement(ZZ, [(w, 2)])
    for _ in range(25):
        a = alg.sample_unit(rng)[0]
        b = alg.sample_element(rng)
        manual = a.mul(a).mul(b).mul(mat_inverse(a)).scale(alg.ring.from_int(2))
        assert evaluate(e, (a, b)) == manual


def counting_mul(monkeypatch):
    """Count Matrix.mul calls from here on: the list gets one item a call."""
    calls = []
    mul = Matrix.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counted)
    return calls


def test_evaluate_takes_no_product_by_the_identity(monkeypatch):
    algebra = parse_algebra("M2@Fp:3")
    rng = random.Random(3)
    xs = [algebra.sample_element(rng) for _ in range(3)]
    s3 = standard_polynomial(3)
    expected = _plain_eval(s3, dict(enumerate(xs, start=1)))
    mul = Matrix.mul
    calls = counting_mul(monkeypatch)
    assert evaluate(s3, xs) == expected
    # the subset DP: the singletons are the variables, each pair takes
    # two products and the triple three (6 words of 3 letters took 12)
    assert len(calls) == 9
    calls.clear()
    m = xs[0]
    assert m.power(1) is m and len(calls) == 0
    assert m.power(0) == identity(f3, 2)
    assert m.power(5) == mul(mul(mul(mul(m, m), m), m), m)
    # square-and-multiply: m^2, m^4 and m^4 * m
    assert len(calls) == 3


def test_arithmetic_revalidates_nothing(monkeypatch):
    rng = random.Random(9)
    qa, qb = (sample_element(ZZ, rng) for _ in range(2))
    algebra = parse_algebra("M3@Fp:5")
    ma, mb = algebra.sample_element(rng), algebra.sample_element(rng)
    calls = []
    check = QuotientElement._check_key
    init = Matrix.__init__
    monkeypatch.setattr(QuotientElement, "_check_key",
                        staticmethod(lambda w: calls.append(w) or check(w)))
    monkeypatch.setattr(Matrix, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    for a, b in ((qa, qb), (ma, mb)):
        a.mul(b), a.add(b), -a, a.scale(2)
    assert calls == []
    # the public constructors still validate, and are counted
    QuotientElement(ZZ, [("xy", 1)]), Matrix(ZZ, [[1]])
    assert len(calls) == 2


def test_evaluate_counts_for_s6_and_a_power(monkeypatch):
    algebra = parse_algebra("M3@ZZ")
    rng = random.Random(6)
    xs = [algebra.sample_element(rng) for _ in range(6)]
    s6 = standard_polynomial(6)
    expected = _plain_eval(s6, dict(enumerate(xs, start=1)))
    calls = counting_mul(monkeypatch)
    # the subset DP takes |mask| products for every mask of two or more
    # variables: 6 * 2**5 - 6 = 186, where 720 words of 6 letters took 3600
    assert evaluate(s6, xs) == expected
    assert len(calls) == 186
    calls.clear()
    e = parse_element("x1^17 - x1")
    assert evaluate(e, xs[:1]) == xs[0].power(17) - xs[0]
    calls.clear()
    evaluate(e, xs[:1])
    # x1^17 by square-and-multiply: four squarings and one product
    assert len(calls) <= 5


def _power_cost(k):
    """Products that square-and-multiply takes for x**k from x."""
    return k.bit_length() + bin(k).count("1") - 2


def _word_fold_cost(e):
    """The products of a term-by-term fold that starts each term from its
    first factor and takes each power by square-and-multiply."""
    return sum(len(w.syllables) - 1 + sum(_power_cost(abs(x)) for _, x in w.syllables)
               for w in e.terms if w.syllables)


def _zz_unit(rng):
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    return Matrix(ZZ, [[1, a], [0, 1]]).mul(Matrix(ZZ, [[1, 0], [b, 1]]))


def test_evaluate_takes_no_more_products_than_a_word_fold(monkeypatch):
    # every Laurent line of the parser corpus, at units of M2 over its
    # ring; _word_fold_cost is what evaluate took when it folded words
    path = Path(__file__).parent / "data" / "expressions.txt"
    checked = 0
    for line in path.read_text().splitlines():
        ring_text, context, text = line.split("|", 2)
        if context != "laurent":
            continue
        ring = ring_from_descriptor(ring_text)
        e = parse_element(text, ring, "laurent")
        rng = random.Random(line)
        n = max(e.variables(), default=1)
        if ring == ZZ:
            xs = [_zz_unit(rng) for _ in range(n)]
        else:
            algebra = parse_algebra(f"M2@{ring_text}")
            xs = [algebra.sample_unit(rng)[0] for _ in range(n)]
        calls = counting_mul(monkeypatch)
        evaluate(e, xs)
        monkeypatch.undo()
        assert len(calls) <= _word_fold_cost(e), line
        checked += 1
    assert checked > 60


ARITHMETIC_ALGEBRAS = [Algebra(family, n, ring) for family in "MTD" for n in (2, 3)
                       for ring in (ZZ, QQ, f2, f3)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ARITHMETIC_ALGEBRAS), st.randoms(use_true_random=False),
       st.integers(-3, 3), st.integers(0, 4))
def test_matrix_arithmetic_results_equal_their_revalidated_copies(algebra, rng, c, k):
    # arithmetic builds its results with the trusted constructor, so each
    # result must be what the validating constructor makes of its entries
    a, b = algebra.sample_element(rng), algebra.sample_element(rng)
    for x in (a.add(b), -a, a - b, a - a, a.mul(b), a.scale(c), a.power(k)):
        assert Matrix(x.ring, x.entries) == x
        assert type(x.entries) is tuple and all(type(row) is tuple for row in x.entries)


DRAW_ALGEBRAS = [Algebra(family, n, ring) for family in "MTD" for n in (1, 2, 3)
                 for ring in (ZZ, QQ, f2, f3, PrimeField(5))]


def _as_validated(algebra, m):
    """Whether m is what the validating constructor makes of its entries,
    with every entry of the ring's own type, and lies in the algebra."""
    zero_type = type(algebra.ring.zero)
    return (Matrix(m.ring, m.entries) == m and type(m.entries) is tuple
            and all(type(row) is tuple for row in m.entries)
            and all(type(x) is zero_type for row in m.entries for x in row)
            and algebra.contains(m))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DRAW_ALGEBRAS), st.randoms(use_true_random=False))
def test_drawn_matrices_equal_their_revalidated_copies(algebra, rng):
    # the draws build their matrices with the trusted constructor
    b = algebra.sample_element(rng)
    a = algebra.sample_square_zero(rng)
    assert _as_validated(algebra, b) and _as_validated(algebra, a)
    assert a.mul(a).is_zero()
    if algebra.ring.is_field:
        c = algebra.sample_right_annihilator(b, rng)
        assert _as_validated(algebra, c) and b.mul(c).is_zero()


@pytest.mark.parametrize("descriptor", ["M1@Fp:7", "M2@Fp:2", "M2@Fp:3", "T2@Fp:5", "T3@Fp:2",
                                        "D2@Fp:7", "D3@Fp:3"])
def test_enumerated_matrices_equal_their_revalidated_copies(descriptor):
    algebra = parse_algebra(descriptor)
    elements = list(algebra.enumerate_elements())
    assert len(set(elements)) == algebra.size()
    assert all(_as_validated(algebra, m) for m in elements)


UNIT_ALGEBRAS = [Algebra(family, n, ring) for family in "MTD" for n in (1, 2, 3)
                 for ring in (f2, f3, PrimeField(5))]


@pytest.mark.parametrize("algebra", [a for a in UNIT_ALGEBRAS if a.size() <= 3**9],
                         ids=Algebra.descriptor)
def test_enumerated_units_have_their_inverses_in_the_algebra(algebra):
    # M, T and D are closed under mat_inverse, so nothing that asks it who
    # is a unit needs to test the inverse's membership
    units = 0
    for m in algebra.enumerate_elements():
        inv = mat_inverse(m)
        if inv is not None:
            units += 1
            assert algebra.contains(inv) and m.mul(inv) == algebra.identity(), m
    assert units > 0


def _zz_generated_unit(algebra, rng, steps):
    """A unit of the algebra over ZZ: a product of elementary matrices
    1 + a*e_ij at the family's off-diagonal positions and a diagonal of
    signs, which together generate its whole unit group."""
    n = algebra.n
    off_diagonal = [(i, j) for i, j in algebra.positions() if i != j]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = Matrix(ZZ, [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)])
    for _ in range(steps if off_diagonal else 0):
        i, j = rng.choice(off_diagonal)
        step = [[int(r == c) for c in range(n)] for r in range(n)]
        step[i][j] = rng.randint(-3, 3)
        u = u.mul(Matrix(ZZ, step))
    return u


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Algebra(family, n, ZZ) for family in "MTD" for n in (1, 2, 3)]),
       st.randoms(use_true_random=False), st.integers(0, 8))
def test_drawn_integer_units_have_their_inverses_in_the_algebra(algebra, rng, steps):
    # a unit over ZZ has det 1 or -1, so its inverse, a polynomial in it,
    # is integral and stays in the family
    draws = [algebra.sample_element(rng) for _ in range(40)]
    units = [m for m in draws if mat_inverse(m) is not None]
    units.append(_zz_generated_unit(algebra, rng, steps))
    for m in units:
        inv = mat_inverse(m)
        assert algebra.contains(m) and inv is not None and algebra.contains(inv), m
        assert m.mul(inv) == algebra.identity()


# ---------------------------------------------------------------------------
# the family layer against the loops it replaced: each family's positions,
# membership, enumeration order and random streams, draw by draw


def _ref_positions(alg):
    n = alg.n
    if alg.family == "M":
        return [(i, j) for i in range(n) for j in range(n)]
    if alg.family == "T":
        return [(i, j) for i in range(n) for j in range(n) if j >= i]
    return [(i, i) for i in range(n)]


def _ref_contains(alg, m):
    if not isinstance(m, Matrix) or m.ring != alg.ring or m.n != alg.n:
        return False
    free = set(_ref_positions(alg))
    z = alg.ring.zero
    return all(m.entries[i][j] == z for i in range(alg.n) for j in range(alg.n)
               if (i, j) not in free)


def _ref_scalar(alg, rng):
    if isinstance(alg.ring, PrimeField):
        return rng.randrange(alg.ring.p)
    return alg.ring.from_int(rng.randint(-INT_SAMPLE_BOUND, INT_SAMPLE_BOUND))


def _ref_enumerate(alg):
    pos, n, zero = _ref_positions(alg), alg.n, alg.ring.zero
    for vals in itertools.product(range(alg.ring.p), repeat=len(pos)):
        rows = [[zero] * n for _ in range(n)]
        for (i, j), v in zip(pos, vals):
            rows[i][j] = v
        yield Matrix(alg.ring, rows)


def _ref_sample_element(alg, rng):
    n = alg.n
    rows = [[alg.ring.zero] * n for _ in range(n)]
    for i, j in _ref_positions(alg):
        rows[i][j] = _ref_scalar(alg, rng)
    return Matrix(alg.ring, rows)


def _ref_sample_square_zero(alg, rng):
    R, n = alg.ring, alg.n
    if alg.family == "M" and R.is_field:
        v = [_ref_scalar(alg, rng) for _ in range(n)]
        if all(x == R.zero for x in v):
            return zeros(R, n)
        i = next(k for k, x in enumerate(v) if x != R.zero)
        w = [_ref_scalar(alg, rng) for _ in range(n)]
        acc = R.zero
        for k in range(n):
            if k != i:
                acc = R.add(acc, R.mul(w[k], v[k]))
        w[i] = R.neg(R.mul(acc, R.inv(v[i])))
        return Matrix(R, [[R.mul(v[r], w[c]) for c in range(n)] for r in range(n)])
    for _ in range(SAMPLE_RETRIES):
        rows = [[R.zero] * n for _ in range(n)]
        for i, j in _ref_positions(alg):
            if j > i:
                rows[i][j] = _ref_scalar(alg, rng)
        m = Matrix(R, rows)
        if m.mul(m).is_zero():
            return m
    raise AssertionError("no square-zero draw")


def _ref_sample_right_annihilator(alg, b, rng):
    R, n = alg.ring, alg.n
    pos = _ref_positions(alg)
    rows = [[R.zero] * n for _ in range(n)]
    kernels = {}
    for j in range(n):
        free = tuple(i for i, c in pos if c == j)
        if free not in kernels:
            kernels[free] = _kernel(R, [[r[i] for i in free] for r in b.entries], len(free))
        col = [R.zero] * len(free)
        for vec in kernels[free]:
            c = _ref_scalar(alg, rng)
            col = [R.add(x, R.mul(c, v)) for x, v in zip(col, vec)]
        for i, x in zip(free, col):
            rows[i][j] = x
    return Matrix(R, rows)


def _full_ring_matrix(ring, n, rng):
    """A matrix of the whole ring, half its entries zero, so that the
    families' members and non-members are both drawn."""
    def entry():
        return 0 if rng.random() < 0.5 else rng.randint(-INT_SAMPLE_BOUND, INT_SAMPLE_BOUND)
    return Matrix(ring, [[entry() for _ in range(n)] for _ in range(n)])


REFERENCE_ALGEBRAS = [Algebra(family, n, ring) for family in "MTD" for n in (1, 2, 3)
                      for ring in (ZZ, f2, f3, PrimeField(5))]


def _projected(alg, m):
    """m with every entry outside the family's free positions made zero."""
    free = set(_ref_positions(alg))
    return Matrix(alg.ring, [[x if (i, j) in free else 0 for j, x in enumerate(row)]
                             for i, row in enumerate(m.entries)])


@pytest.mark.parametrize("alg", REFERENCE_ALGEBRAS, ids=Algebra.descriptor)
def test_family_layer_matches_the_reference_loops(alg):
    assert alg.positions() == _ref_positions(alg)
    if alg.size() is not None and alg.size() <= 125:
        assert list(alg.enumerate_elements()) == list(_ref_enumerate(alg))
    rng = random.Random(alg.descriptor())
    others = [_full_ring_matrix(alg.ring, alg.n, rng) for _ in range(200)]
    assert [alg.contains(m) for m in others] == [_ref_contains(alg, m) for m in others]
    if alg.family != "M" and alg.n > 1:
        assert not all(alg.contains(m) for m in others)
    bs = [alg.zero(), alg.identity()] + [_projected(alg, m) for m in others[:48]]
    for seed in (0, 7, 2024):
        streams = [(alg.sample_element, _ref_sample_element),
                   (alg.sample_square_zero, _ref_sample_square_zero)]
        for draw, ref in streams:
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert draw(got) == ref(alg, want)
            assert got.random() == want.random()
        if alg.ring.is_field:
            got, want = random.Random(seed), random.Random(seed)
            for b in bs:
                assert (alg.sample_right_annihilator(b, got)
                        == _ref_sample_right_annihilator(alg, b, want))
            assert got.random() == want.random()

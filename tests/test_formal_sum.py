"""The formal-sum base shared by Laurent, quotient, one-variable Laurent
and polynomial elements, and the compiled programs that evaluate and q_evaluate run,
checked against the plain re-verifier of the checkers."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpilab.checkers import _Tables, _plain_eval
from lpilab.errors import PreconditionError, RingMismatch
from lpilab.freegroup import IDENTITY, Word
from lpilab import checkers, group_algebra
from lpilab.group_algebra import LaurentElement, OneVarLaurent, standard_polynomial
from lpilab.matrix_algebra import Matrix, evaluate, mat_inverse, parse_algebra
from lpilab.quotient_algebra import QuotientElement, q_evaluate, q_unit, sample_element
from lpilab.rings import QQ, ZZ, FormalSum, PrimeField, UniPoly

f2 = PrimeField(2)


def samples(ring):
    """Two elements of each subclass over ring."""
    x1, x2 = (LaurentElement.from_word(ring, Word.gen(i)) for i in (1, 2))
    x, y = (QuotientElement.letter(ring, s) for s in "xy")
    t = OneVarLaurent(ring, [(1, ring.one), (-2, ring.one)])
    return {
        LaurentElement: (x1.add(x2.scale(ring.from_int(3))), x1.mul(x2)),
        QuotientElement: (x.add(y), x.mul(y).add(QuotientElement.one(ring))),
        OneVarLaurent: (t, OneVarLaurent(ring, [(0, ring.one)])),
        UniPoly: (UniPoly(ring, [1, 0, 3]), UniPoly(ring, [0, 1])),
    }


@pytest.mark.parametrize("cls", [LaurentElement, QuotientElement, OneVarLaurent, UniPoly],
                         ids=lambda c: c.__name__)
def test_formal_sum_contract(cls):
    a, b = samples(ZZ)[cls]
    assert isinstance(a, FormalSum)
    for name in ("ring", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert (a - a).is_zero() and (a - a) == cls.zero(ZZ)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a.scale(2) == a + a and (-a).scale(-1) == a
    assert cls.one(ZZ).format() == "1" and cls.zero(ZZ).format() == "0"
    assert a.one_like() == cls.one(ZZ) and a.zero_like() == cls.zero(ZZ)
    with pytest.raises(RingMismatch):
        a.add(samples(f2)[cls][0])


def test_different_subclasses_never_equal():
    kinds = list(samples(ZZ))
    for i, k1 in enumerate(kinds):
        for k2 in kinds[i + 1:]:
            assert k1.zero(ZZ) != k2.zero(ZZ)
            assert k1.one(ZZ) != k2.one(ZZ)
            with pytest.raises(RingMismatch):
                k1.one(ZZ).add(k2.one(ZZ))
    x1 = LaurentElement.from_word(ZZ, Word.gen(1))
    with pytest.raises(RingMismatch):
        x1.mul(LaurentElement.from_word(f2, Word.gen(1)))
    with pytest.raises(RingMismatch):
        QuotientElement.letter(ZZ, "x").mul(x1)


def test_keys_are_checked():
    with pytest.raises(PreconditionError):
        LaurentElement(ZZ, [("x1", 1)])
    with pytest.raises(PreconditionError):
        QuotientElement(ZZ, [("xx", 1)])
    with pytest.raises(PreconditionError):
        OneVarLaurent(ZZ, [("t", 1)])


@pytest.mark.parametrize("ring", [ZZ, QQ, f2, PrimeField(3)], ids=repr)
def test_public_constructors_refuse_invalid_input(ring):
    for word in ("xx", "xyy", "xz", "yxa"):
        with pytest.raises(PreconditionError):
            QuotientElement(ring, [(word, 1)])
    with pytest.raises(PreconditionError):
        QuotientElement.letter(ring, "z")
    with pytest.raises(PreconditionError):
        LaurentElement(ring, [(((1, 1),), 1)])
    for cls, unit in ((LaurentElement, IDENTITY), (QuotientElement, ""), (OneVarLaurent, 0)):
        for bad in (True, 0.5):
            with pytest.raises(RingMismatch):
                cls(ring, [(unit, bad)])
            with pytest.raises(RingMismatch):
                cls.one(ring).scale(bad)
    if ring != QQ:
        with pytest.raises(RingMismatch):
            QuotientElement.one(ring).scale(Fraction(1, 2))


def test_laurent_power():
    e = LaurentElement(ZZ, [(Word(), 1), (Word.gen(1, -1), 2)])
    assert e.power(0) == LaurentElement.one(ZZ)
    assert e.power(3) == e.mul(e).mul(e)
    # the first factor starts the product: no product by the identity
    assert e.power(1) is e
    with pytest.raises(PreconditionError):
        e.power(-1)


def _k_fold(x, k, one):
    acc = one
    for _ in range(k):
        acc = acc.mul(x)
    return acc


_small = st.integers(-3, 3)
_words = st.lists(st.tuples(st.integers(1, 3), _small), max_size=4).map(Word)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_power_is_the_k_fold_product(data, k, seed):
    # the square-and-multiply that every value kind shares, against k products
    f3 = PrimeField(3)
    rows = data.draw(st.lists(st.lists(_small, min_size=2, max_size=2), min_size=2, max_size=2))
    m = Matrix(f3, rows)
    assert m.power(k) == _k_fold(m, k, m.one_like())
    # up to 3 terms: k = 12 would take 531,441 terms, k = 8 takes 6,561
    e = LaurentElement(ZZ, data.draw(st.lists(st.tuples(_words, _small), max_size=3)))
    assert e.power(min(k, 8)) == _k_fold(e, min(k, 8), e.one_like())
    q = sample_element(f3, random.Random(seed), max_support=3, max_len=3)
    assert q.power(k) == _k_fold(q, k, q.one_like())
    w = data.draw(_words)
    assert w ** k == _k_fold(w, k, IDENTITY)
    assert w ** -k == _k_fold(w.inverse(), k, IDENTITY)


# ---------------------------------------------------------------------------
# evaluate and q_evaluate against _plain_eval


def test_plain_eval_takes_logarithmically_many_products(monkeypatch):
    f3 = PrimeField(3)
    calls = []
    mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda a, b: calls.append(1) or mul(a, b))
    value = _plain_eval(LaurentElement.from_word(ZZ, Word.gen(1, 1000)),
                        {1: Matrix(f3, [[1, 1], [0, 1]])})
    assert value == Matrix(f3, [[1, 1000], [0, 1]])
    assert 0 < len(calls) <= 2 * 10 + 1  # 2 * ceil(log2(1000)) + 1


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-64, 64), seed=st.integers(0, 2**16))
def test_plain_eval_powers_are_the_k_fold_product(k, seed):
    rng = random.Random(seed)
    x1k = LaurentElement.from_word(ZZ, Word.gen(1, k) if k else IDENTITY)
    # negative powers on units of M2(ZZ), the others on M2(F_3) and on F
    m = zz_unit(rng) if k < 0 else parse_algebra("M2@Fp:3").sample_element(rng)
    base = mat_inverse(m) if k < 0 else m
    assert _plain_eval(x1k, {1: m}) == _k_fold(base, abs(k), m.one_like())
    if k >= 0:
        q = sample_element(ZZ, rng, max_support=3, max_len=3)
        assert _plain_eval(x1k, {1: q}) == _k_fold(q, k, q.one_like())


def random_word(rng, nvars):
    return Word(tuple((rng.randint(1, nvars), rng.choice([-3, -2, -1, 1, 2, 3]))
                      for _ in range(rng.randint(0, 4))))


def random_laurent(rng, nvars=3, negative=True):
    terms = []
    for _ in range(rng.randint(1, 5)):
        w = random_word(rng, nvars)
        if not negative:
            w = Word(tuple((g, abs(x)) for g, x in w.syllables))
        terms.append((w, rng.randint(-3, 3)))
    return LaurentElement(ZZ, terms)


def zz_unit(rng):
    """A unit of M2(ZZ): a product of two elementary matrices and a sign."""
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    s = rng.choice([1, -1])
    return (Matrix(ZZ, [[1, a], [0, 1]]).mul(Matrix(ZZ, [[1, 0], [b, 1]]))
            .mul(Matrix(ZZ, [[s, 0], [0, 1]])))


def shifted(e, by):
    """e with every variable x_g renamed to x_(g+by)."""
    return LaurentElement(e.ring, [
        (Word(tuple((g + by, x) for g, x in w.syllables)), c) for w, c in e.terms.items()
    ])


# S_2..S_5, on which the last-syllable split that values take is the subset
# DP, and S_3 on x2, x3, x4
STANDARD_INPUTS = [standard_polynomial(k) for k in (2, 3, 4, 5)] + [
    shifted(standard_polynomial(3), 1)]


@pytest.mark.parametrize("descriptor", ["M2@Fp:3", "T2@Fp:5", "T3@Fp:2", "M2@ZZ"])
def test_evaluate_matches_plain_eval(descriptor):
    algebra = parse_algebra(descriptor)
    rng = random.Random(f"evaluate/{descriptor}")
    draw = zz_unit if descriptor.endswith("ZZ") else algebra.sample_unit
    checked = 0
    for _ in range(60):
        e = random_laurent(rng)
        mats = tuple(draw(rng) for _ in range(3))
        value = evaluate(e, mats)
        assert value == _plain_eval(e, dict(enumerate(mats, start=1)))
        checked += e.has_negative_exponent()
    assert checked > 30
    for e in STANDARD_INPUTS:
        for _ in range(3):
            mats = tuple(algebra.sample_element(rng) for _ in range(5))
            assert evaluate(e, mats) == _plain_eval(e, dict(enumerate(mats, start=1)))


def test_q_evaluate_matches_plain_eval():
    rng = random.Random("q_evaluate")
    for ring in (ZZ, PrimeField(5)):
        for _ in range(40):
            e = random_laurent(rng, negative=False)
            args = tuple(sample_element(ring, rng, max_support=3, max_len=3)
                         for _ in range(3))
            assert q_evaluate(e, args) == _plain_eval(e, dict(enumerate(args, start=1)))
    for e in STANDARD_INPUTS:
        for _ in range(3):
            args = tuple(sample_element(ZZ, rng, max_support=3, max_len=3) for _ in range(5))
            assert q_evaluate(e, args) == _plain_eval(e, dict(enumerate(args, start=1)))


def rename_inverses(e, shift):
    """e with every negative syllable x_g^-k renamed to x_(g+shift)^k."""
    return LaurentElement(e.ring, [
        (Word(tuple((g + shift, -x) if x < 0 else (g, x) for g, x in w.syllables)), c)
        for w, c in e.terms.items()
    ])


def test_q_evaluate_at_units_matches_plain_eval():
    # _plain_eval inverts no quotient element, so each inverse is assigned
    # to a fresh variable: the certified inverse of the q_unit
    rng = random.Random("q_evaluate/units")
    checked = 0
    for _ in range(40):
        e = random_laurent(rng)
        units = [q_unit(ZZ, [(rng.randint(-2, 2), rng.choice("xy"))
                             for _ in range(rng.randint(0, 3))]) for _ in range(3)]
        plain = {g: u.value for g, u in enumerate(units, start=1)}
        plain.update({g + 3: u.inverse for g, u in enumerate(units, start=1)})
        assert q_evaluate(e, units) == _plain_eval(rename_inverses(e, 3), plain)
        checked += e.has_negative_exponent()
    assert checked > 20


def test_plain_eval_stays_apart_from_the_fold(monkeypatch):
    # the compiled programs are what the searches and evaluate run, so the
    # re-verifier must not reach them by any of their names
    def refused(*args):
        raise AssertionError("_plain_eval went through a compiled program")

    rng = random.Random("apart")
    e = random_laurent(rng)
    mats = {g: zz_unit(rng) for g in (1, 2, 3)}
    expected = evaluate(e, mats)
    s4 = standard_polynomial(4)
    qargs = {g: sample_element(ZZ, rng, max_support=3, max_len=3) for g in (1, 2, 3, 4)}
    q_expected = q_evaluate(s4, qargs)
    monkeypatch.setattr(LaurentElement, "at", refused)
    monkeypatch.setattr(LaurentElement, "compiled", refused)
    monkeypatch.setattr(group_algebra, "_staged_program", refused)
    monkeypatch.setattr(checkers, "_staged_program", refused)
    assert _plain_eval(e, mats) == expected
    assert _plain_eval(s4, qargs) == q_expected


# both splits on both kinds of ops, so that neither is tested only on the
# ops it serves
SPLITS = (False, True)


def compiled_program(ops, e, last=None):
    """e's program over ops, with the split last chooses, as run(values):
    the value with the variables entered at values in generator order."""
    nvars, enter, value = group_algebra._staged_program(ops, e, last)

    def run(values):
        for d, x in enumerate(values):
            enter(d, x)
        return value()

    return run


def run_program(ops, e, values, last=None):
    return compiled_program(ops, e, last)(values)


TABLE_CASES = {d: _Tables(parse_algebra(d))
               for d in ("M2@Fp:2", "M2@Fp:3", "T2@Fp:5", "T3@Fp:2", "D2@Fp:3")}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TABLE_CASES)), st.randoms(use_true_random=False))
def test_compiled_value_on_the_tables_is_the_plain_value(descriptor, rng):
    tb = TABLE_CASES[descriptor]
    e = random_laurent(rng)
    ground = tb.units if e.has_negative_exponent() else range(tb.n)
    variables = sorted(e.variables()) or [1]
    for _ in range(4):
        tup = [rng.choice(ground) for _ in variables]
        plain = _plain_eval(e, {g: tb.elements[i] for g, i in zip(variables, tup)})
        for last in SPLITS:
            assert tb.elements[run_program(tb, e, tup[:len(e.variables())], last)] == plain


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compiled_value_on_matrices_and_quotient_elements_is_the_plain_value(rng):
    e = random_laurent(rng)
    variables = sorted(e.variables()) or [1]
    mats = {g: zz_unit(rng) for g in variables}
    ops = group_algebra._value_ops(mats[variables[0]])
    ops.inverse.update({m: mat_inverse(m) for m in mats.values()})
    plain = _plain_eval(e, mats)
    for last in SPLITS:
        assert run_program(ops, e, [mats[g] for g in sorted(e.variables())], last) == plain
    # _plain_eval inverts no quotient element: each inverse is the certified
    # inverse of a q_unit, assigned to a fresh variable
    units = {g: q_unit(ZZ, [(rng.randint(-2, 2), rng.choice("xy"))
                            for _ in range(rng.randint(0, 3))]) for g in (1, 2, 3)}
    ops = group_algebra._value_ops(units[1].value)
    ops.inverse.update({u.value: u.inverse for u in units.values()})
    plain = {g: u.value for g, u in units.items()}
    plain.update({g + 3: u.inverse for g, u in units.items()})
    plain = _plain_eval(rename_inverses(e, 3), plain)
    for last in SPLITS:
        assert run_program(ops, e, [units[g].value for g in sorted(e.variables())], last) == \
            plain


def test_words_longer_than_the_recursion_limit_compile():
    """The compiler keeps its own stack, so a word of thousands of syllables
    compiles: here the left factor u0 and the right sum R of x3 each have
    3,000 syllables."""
    tb = TABLE_CASES["M2@Fp:3"]
    zigzag = Word(((1, 1), (2, -1)) * 1500)
    x3 = Word.gen(3)
    e = LaurentElement(ZZ, [(zigzag * x3 * Word(((2, 1), (1, 1)) * 1500), 1),
                            (x3 * zigzag, -1), (zigzag, 2)])
    ops = group_algebra._value_ops(tb.elements[0])
    runs = [(compiled_program(tb, e, last), compiled_program(ops, e, last)) for last in SPLITS]
    rng = random.Random(12)
    for _ in range(3):
        tup = [rng.choice(tb.units) for _ in range(3)]
        mats = {g: tb.elements[i] for g, i in zip((1, 2, 3), tup)}
        plain = _plain_eval(e, mats)
        ops.inverse.update({m: mat_inverse(m) for m in mats.values()})
        for on_tables, on_values in runs:
            assert tb.elements[on_tables(tup)] == plain
            assert on_values([mats[g] for g in (1, 2, 3)]) == plain


# ---------------------------------------------------------------------------
# arithmetic builds its results with the trusted constructor, so each result
# must be exactly what the validating constructor makes of its terms


def _coefficients(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(-3, 3)


def _keys(cls):
    if cls is LaurentElement:
        return st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)), max_size=3).map(Word)
    if cls is QuotientElement:
        return st.builds(lambda first, n: "".join("xy"[(first + i) % 2] for i in range(n)),
                         st.integers(0, 1), st.integers(0, 4))
    return st.integers(-3, 3)


@st.composite
def operands(draw):
    """Two elements of one subclass over one ring, a scalar and an
    exponent. The second element is sometimes the first or its negative,
    so sums and products cancel."""
    cls = draw(st.sampled_from([LaurentElement, QuotientElement, OneVarLaurent]))
    ring = draw(st.sampled_from([ZZ, QQ, f2, PrimeField(3)]))
    terms = st.lists(st.tuples(_keys(cls), _coefficients(ring)), max_size=4)
    a = cls(ring, draw(terms))
    b = draw(st.sampled_from([
        cls(ring, draw(terms)), a, cls(ring, [(k, ring.neg(c)) for k, c in a.terms.items()])]))
    return a, b, draw(_coefficients(ring)), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_arithmetic_results_equal_their_revalidated_copies(args):
    a, b, c, k = args
    results = [a.add(b), -a, a - b, a.scale(c), a.mul(b), a.power(k)]
    for x in results:
        assert type(x)(x.ring, x.terms) == x
        assert x.ring.zero not in x.terms.values()


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_polynomial_words_equal_their_revalidated_copies(n):
    for w in standard_polynomial(n).terms:
        assert Word(w.syllables) == w


# the print order as one sort key per monomial, the order format had when
# it sorted the items by a single key
REFERENCE_SORT_KEY = {
    LaurentElement: Word.sort_key,
    QuotientElement: lambda w: (len(w), w),
    OneVarLaurent: int,
    UniPoly: lambda e: -e,
}


def reference_format(e):
    """format as it read with one sort of the items and one join."""
    R, unit, text = e.ring, e.UNIT, e._key_text
    parts = []
    for key, c in sorted(e.terms.items(), key=lambda t: REFERENCE_SORT_KEY[type(e)](t[0])):
        neg = R.is_neg(c)
        mag = R.neg(c) if neg else c
        if key == unit:
            body = R.format(mag)
        elif mag == R.one:
            body = text(key)
        else:
            body = f"{R.format(mag)}*{text(key)}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts) or "0"


def random_key(cls, rng):
    if cls is LaurentElement:
        # exponents up to 150 in up to 4 syllables: words of more than 256
        # letters, and many words of one length that the syllables order
        return Word(tuple((rng.randint(1, 3), rng.choice([-1, 1]) * rng.choice([1, 2, 150]))
                          for _ in range(rng.randint(0, 4))))
    if cls is QuotientElement:
        first = rng.randint(0, 1)
        return "".join("xy"[(first + i) % 2] for i in range(rng.randint(0, 700)))
    return rng.randint(-1500, 1500) if cls is OneVarLaurent else rng.randint(0, 1500)


def random_sum(cls, ring, size, rng):
    """An element of cls over ring with exactly size terms."""
    keys = set()
    while len(keys) < size:
        keys.add(random_key(cls, rng))
    terms = []
    for key in keys:
        c = ring.zero
        while c == ring.zero:
            c = ring.coerce(rng.choice([-3, -1, 1, 2]) if ring != QQ else
                            Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2])))
        terms.append((key, c))
    if cls is UniPoly:
        coeffs = [ring.zero] * (max(keys, default=-1) + 1)
        for key, c in terms:
            coeffs[key] = c
        return UniPoly(ring, coeffs)
    return cls(ring, terms)


@pytest.mark.parametrize("cls", [LaurentElement, QuotientElement, OneVarLaurent, UniPoly],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("ring", [ZZ, QQ, PrimeField(5)], ids=repr)
def test_format_keeps_the_single_key_print_order(cls, ring):
    # sizes around the join's chunk of 512 terms, and the empty sum
    rng = random.Random(f"{cls.__name__} {ring!r}")
    for size in (0, 1, 2, 511, 512, 513, 1025):
        e = random_sum(cls, ring, size, rng)
        assert len(e.terms) == size
        assert e.format() == reference_format(e), size
        ordered = sorted(e.terms, key=REFERENCE_SORT_KEY[cls])
        assert [k for k, _ in e.terms_sorted()] == ordered
        if cls is LaurentElement:
            assert e.support() == ordered
    assert cls.zero(ring).format() == "0"


def test_a_negative_term_opening_a_chunk_keeps_its_space():
    # X^512 down to X^0: the constant is the 513th term, the first of the
    # second chunk, and the only term with a bare minus is the first
    p = UniPoly(ZZ, [-1] + [1] * 511 + [-2])
    text = p.format()
    assert text == reference_format(p)
    assert text.startswith("-2*X^512 + X^511 + ") and text.endswith(" + X^2 + X - 1")
    assert text.count("-") == 2


def test_format_holds_little_beyond_its_result():
    # about the text's size in chunks, and a list of keys; a sort of
    # (key, coeff) items, a sort-key tuple per word and one join of every
    # part hold about 4.3 times the text on S_7
    e = standard_polynomial(7)
    tracemalloc.start()
    try:
        text = e.format()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000
    assert peak - held < 2 * len(text)

import random

import pytest

from lpilab.errors import NonUnit, PreconditionError
from lpilab.freegroup import Word
from lpilab.group_algebra import standard_polynomial
from lpilab.quotient_algebra import (
    QuotientElement,
    QuotientUnit,
    q_evaluate,
    q_unit,
    sample_element,
)
from lpilab.rings import ZZ, PrimeField

f2 = PrimeField(2)


def qe(*pairs):
    return QuotientElement(ZZ, list(pairs))


def monoid_mul(w1, w2):
    """Independent multiplication rule used as an oracle: the product word
    survives only when no equal letters meet at the junction."""
    if w1 and w2 and w1[-1] == w2[0]:
        return None
    return w1 + w2


def oracle_mul(ring, e1, e2):
    out = {}
    for w1, c1 in e1.terms.items():
        for w2, c2 in e2.terms.items():
            w = monoid_mul(w1, w2)
            if w is None:
                continue
            out[w] = out.get(w, 0) + c1 * c2
    return QuotientElement(ring, [(w, c) for w, c in out.items()])


def test_word_validation():
    with pytest.raises(PreconditionError):
        qe(("xx", 1))
    with pytest.raises(PreconditionError):
        qe(("xz", 1))
    assert qe(("xyx", 1)).support_size() == 1


def test_junction_products():
    x = QuotientElement.letter(ZZ, "x")
    y = QuotientElement.letter(ZZ, "y")
    assert x.mul(y) == qe(("xy", 1))
    assert x.mul(x).is_zero()
    assert qe(("xy", 1)).mul(qe(("yx", 1))).is_zero()
    assert qe(("xy", 1)).mul(qe(("xy", 1))) == qe(("xyxy", 1))
    one = QuotientElement.one(ZZ)
    assert one.mul(x) == x and x.mul(one) == x


def test_scale_add_and_format():
    x = QuotientElement.letter(ZZ, "x")
    y = QuotientElement.letter(ZZ, "y")
    e = x.add(y.scale(-2))
    assert e.format() == "x - 2*y"
    assert (e - e).is_zero()
    assert QuotientElement.zero(ZZ).format() == "0"
    assert QuotientElement.one(ZZ).add(x).format() == "1 + x"


def test_power():
    x = QuotientElement.letter(ZZ, "x")
    y = QuotientElement.letter(ZZ, "y")
    assert x.add(y).power(0) == QuotientElement.one(ZZ)
    assert x.add(y).power(2) == qe(("xy", 1), ("yx", 1))
    with pytest.raises(PreconditionError):
        x.power(-1)


def test_mul_matches_oracle_seeded():
    # over F_2 and F_3 coefficients cancel, so products drop zero terms
    rng = random.Random(2024)
    for ring in (ZZ, f2, PrimeField(3)):
        dropped = 0
        for _ in range(300):
            a = sample_element(ring, rng, max_support=4, max_len=4)
            b = sample_element(ring, rng, max_support=4, max_len=4)
            product = a.mul(b)
            assert product == oracle_mul(ring, a, b)
            words = {monoid_mul(w1, w2) for w1 in a.terms for w2 in b.terms} - {None}
            dropped += len(words) - len(product.terms)
        assert dropped > 0, ring


def test_mul_is_associative_seeded():
    rng = random.Random(11)
    for _ in range(200):
        a = sample_element(ZZ, rng, max_support=3, max_len=3)
        b = sample_element(ZZ, rng, max_support=3, max_len=3)
        c = sample_element(ZZ, rng, max_support=3, max_len=3)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_unit_construction():
    u = q_unit(ZZ, [(1, "x")])
    assert u.value == QuotientElement.one(ZZ).add(QuotientElement.letter(ZZ, "x"))
    assert u.value.mul(u.inverse) == QuotientElement.one(ZZ)
    assert u.inverse.mul(u.value) == QuotientElement.one(ZZ)
    # longer products stay units, inverse reverses the factors
    v = q_unit(ZZ, [(1, "x"), (-2, "y"), (3, "x")])
    assert v.value.mul(v.inverse) == QuotientElement.one(ZZ)
    with pytest.raises(PreconditionError):
        q_unit(ZZ, [(1, "z")])


def test_unit_squares_simplify():
    # (1 + x)^2 = 1 + 2x because x*x dies at the junction
    u = q_unit(ZZ, [(1, "x")])
    sq = u.value.mul(u.value)
    assert sq == qe(("", 1), ("x", 2))


def test_q_evaluate_s2_at_units():
    ux = q_unit(ZZ, [(1, "x")])
    uy = q_unit(ZZ, [(1, "y")])
    val = q_evaluate(standard_polynomial(2), (ux.value, uy.value))
    assert val == qe(("xy", 1), ("yx", -1))
    assert not val.is_zero()


def test_q_evaluate_negative_exponents_need_units():
    e = standard_polynomial(2).substitute(1, Word.gen(1, -1))
    ux = q_unit(ZZ, [(1, "x")])
    uy = q_unit(ZZ, [(1, "y")])
    out = q_evaluate(e, (ux, uy.value))
    assert out == ux.inverse.mul(uy.value) - uy.value.mul(ux.inverse)
    with pytest.raises(NonUnit):
        q_evaluate(e, (ux.value, uy.value))


def test_sample_element_is_seeded():
    a = sample_element(ZZ, random.Random(5))
    b = sample_element(ZZ, random.Random(5))
    assert a == b
    for _ in range(50):
        e = sample_element(f2, random.Random(_))
        assert all(c != 0 for c in e.terms.values())
        assert 1 <= e.support_size() <= 8

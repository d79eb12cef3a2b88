import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpilab.errors import PreconditionError
from lpilab.freegroup import IDENTITY, Word


def test_reduction_merges_and_cancels():
    w = Word(((1, 2), (1, -2)))
    assert w.is_identity()
    w = Word(((1, 1), (1, 1), (2, -1)))
    assert w.syllables == ((1, 2), (2, -1))
    # cascade: x1 x2 x2^-1 x1^-1 collapses completely
    w = Word(((1, 1), (2, 1), (2, -1), (1, -1)))
    assert w == IDENTITY


def test_constructor_validates():
    with pytest.raises(PreconditionError):
        Word(((0, 1),))
    with pytest.raises(PreconditionError):
        Word([(0, 1)])
    with pytest.raises(PreconditionError):
        Word(((1, "2"),))
    # bool is an int, but x_True would print apart from its equal x1
    for syllables in (((True, 2),), ((2, True),), ((True, 2), (2, True)), ((1, False),)):
        with pytest.raises(PreconditionError):
            Word(syllables)
    assert Word(((1, 0),)) == IDENTITY


def test_words_share_their_syllables():
    a, b = (1, 2), (2, -1)
    w = Word([a, b])
    assert w.syllables[0] is a and w.syllables[1] is b
    # a product and a substitution keep the syllables they do not merge
    p = w * Word.gen(3)
    assert p.syllables[0] is a and p.syllables[1] is b
    assert w.substitute(2, Word.gen(4)).syllables[0] is a
    # a merge, a list or a tuple subclass makes a new plain tuple
    merged = Word([a, (1, 1)])
    assert merged.syllables == ((1, 3),)
    listed = Word([[1, 2]])
    assert listed.syllables == ((1, 2),) and type(listed.syllables[0]) is tuple

    class Pair(tuple):
        pass

    sub = Word([Pair((1, 2))])
    assert type(sub.syllables[0]) is tuple and sub == listed


def test_multiplication_and_inverse():
    a = Word.gen(1)
    b = Word.gen(2)
    w = a * b * a**-1
    assert w.syllables == ((1, 1), (2, 1), (1, -1))
    assert (w * w.inverse()).is_identity()
    assert w**0 == IDENTITY
    assert (a**3).syllables == ((1, 3),)
    assert ~w == w.inverse()


def test_exp_sums():
    w = Word(((1, 2), (2, -1), (1, 1)))
    assert w.exp_sum(1) == 3
    assert w.exp_sum(2) == -1
    assert w.exp_sum(3) == 0
    assert w.exp_sum_total() == 2
    assert w.letter_length() == 4
    assert w.variables() == {1, 2}


def test_substitute_powers_each_occurrence():
    w = Word(((1, 1), (2, 1), (1, -1)))
    out = w.substitute(1, Word.gen(1, 2))
    assert out.syllables == ((1, 2), (2, 1), (1, -2))
    # substitution by the same generator to a power is injective: no merging
    s = Word(((1, 1), (2, 1))) * Word(((1, -1), (2, 1)))
    out = s.substitute(2, Word.gen(2, 3))
    assert out.exp_sum(2) == 6


def test_sort_key_orders_by_length_then_syllables():
    words = [Word.gen(2), Word.gen(1, 2), Word.gen(1), IDENTITY, Word.gen(1, -2)]
    ordered = sorted(words, key=lambda w: w.sort_key())
    assert ordered[0] == IDENTITY
    assert ordered[1] == Word.gen(1)
    assert ordered[2] == Word.gen(2)
    # a negative exponent counts by its absolute value
    assert ordered[3] == Word.gen(1, -2)
    assert ordered[4] == Word.gen(1, 2)


def test_format():
    assert IDENTITY.format() == "1"
    assert Word(((1, 2), (2, -1))).format() == "x1^2*x2^-1"
    assert Word.gen(3).format() == "x3"


def test_immutability():
    w = Word.gen(1)
    with pytest.raises(AttributeError):
        w.syllables = ()


syllable = st.tuples(st.integers(min_value=1, max_value=4),
                     st.integers(min_value=-3, max_value=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(syllable, max_size=12))
def test_reduced_invariants(sylls):
    w = Word(tuple(sylls))
    for gen, exp in w.syllables:
        assert exp != 0
        assert gen >= 1
    for (g1, _), (g2, _) in zip(w.syllables, w.syllables[1:]):
        assert g1 != g2


@settings(max_examples=200, deadline=None)
@given(st.lists(syllable, max_size=10), st.lists(syllable, max_size=10))
def test_concatenation_equals_constructor(xs, ys):
    """Reducing the concatenation agrees with multiplying the reductions;
    this is the confluence property that makes Word well defined."""
    assert Word(tuple(xs)) * Word(tuple(ys)) == Word(tuple(xs) + tuple(ys))


@settings(max_examples=200, deadline=None)
@given(st.lists(syllable, max_size=10))
def test_inverse_cancels(sylls):
    w = Word(tuple(sylls))
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


def test_exp_sum_is_a_homomorphism_seeded():
    rng = random.Random(7)
    for _ in range(500):
        xs = tuple((rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8)))
        ys = tuple((rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8)))
        a, b = Word(xs), Word(ys)
        for v in (1, 2, 3):
            assert (a * b).exp_sum(v) == a.exp_sum(v) + b.exp_sum(v)
        assert (a * b).exp_sum_total() == a.exp_sum_total() + b.exp_sum_total()

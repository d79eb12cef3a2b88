import itertools
import tracemalloc
from pathlib import Path

import pytest

from lpilab.errors import CapExceeded, DiagonalCollapse, Inadmissible, PreconditionError
from lpilab.freegroup import Word
from lpilab.group_algebra import (
    LaurentElement,
    al_f1,
    al_f2,
    diagonal_specialize,
    gi_to_lpi,
    is_admissible,
    normalize,
    profile,
    standard_polynomial,
)
from lpilab.rings import ZZ, PrimeField, ring_from_descriptor
from lpilab.textio import parse_element


def lp(*pairs):
    return LaurentElement(ZZ, [(w, c) for w, c in pairs])


x1 = Word.gen(1)
x2 = Word.gen(2)


def test_zero_terms_drop():
    e = lp((x1, 1), (x1, -1))
    assert e.is_zero()
    assert lp((x1, 0)).is_zero()


def test_addition_and_multiplication():
    a = lp((x1, 1))
    b = lp((x2, 1))
    prod = a * b
    assert prod.coefficient(x1 * x2) == 1
    comm = a * b - b * a
    assert comm.coefficient(x1 * x2) == 1
    assert comm.coefficient(x2 * x1) == -1
    # group multiplication reduces: x1 * x1^-1 lands on the identity word
    c = lp((x1, 1)) * lp((x1.inverse(), 1))
    assert c == LaurentElement.one(ZZ)


def test_format_is_stable():
    e = lp((Word(), 1), (x1, -1), (x2, 2))
    assert e.format() == "1 - x1 + 2*x2"
    assert LaurentElement.zero(ZZ).format() == "0"
    assert lp((x1, -1)).format() == "-x1"


def test_admissibility():
    # x1 x2 x1^-1 x2^-1 has zero exponent sum in both variables
    comm = x1 * x2 * x1.inverse() * x2.inverse()
    assert not is_admissible(gi_to_lpi(comm))
    assert is_admissible(gi_to_lpi(x1 * x2 * x1.inverse()))
    assert is_admissible(lp((x1, 1), (Word(), -1)))


def test_normalize_identity_when_totals_nonzero():
    e = gi_to_lpi(x1 * x2 * x1.inverse())
    r = normalize(e)
    assert r.element == e
    assert r.variable is None
    assert r.k == 1


def test_normalize_picks_first_variable_minimal_k():
    e = lp((Word(), 1), (x1 * x2.inverse(), -1))
    r = normalize(e)
    assert r.variable == 1
    assert r.k == 2
    assert r.element == lp((Word(), 1), (Word.gen(1, 2) * x2.inverse(), -1))
    for w in r.element.terms:
        if not w.is_identity():
            assert w.exp_sum_total() != 0


def test_normalize_banned_k_accumulates():
    # words x1*x2^-1 (bans k=2 via total 0, s=1)... build an element where
    # k=2 is banned and k=3 is not: word with total -1 and s=1 bans k=2
    w1 = x1 * x2.inverse() ** 2
    e = lp((Word(), 1), (w1, 1), (x1 * x2.inverse(), 1))
    r = normalize(e)
    assert r.variable == 1
    assert r.k == 3
    for w in r.element.terms:
        if not w.is_identity():
            assert w.exp_sum_total() != 0


def test_normalize_rejects_inadmissible_and_zero():
    comm = x1 * x2 * x1.inverse() * x2.inverse()
    with pytest.raises(Inadmissible):
        normalize(gi_to_lpi(comm))
    with pytest.raises(PreconditionError):
        normalize(LaurentElement.zero(ZZ))


def test_normalize_can_be_stuck_with_three_variables():
    # w1 ignores x3 and has total 0, w2 ignores x1, w3 ignores x2: every
    # variable has a stuck word, yet each word has a nonzero exponent sum
    # somewhere, so the element is admissible
    w1 = x1 * x2.inverse()
    w2 = x2 * Word.gen(3).inverse()
    w3 = Word.gen(3) * x1.inverse()
    e = lp((w1, 1), (w2, 1), (w3, 1))
    assert is_admissible(e)
    with pytest.raises(PreconditionError):
        normalize(e)


def test_profile_values():
    assert profile(gi_to_lpi(x1 * x2 * x1.inverse())) == (0, 1, 7)
    assert profile(lp((Word(), 1), (Word.gen(1, 2), -1), (Word.gen(1, 5), 1))) == (0, 5, 23)
    assert profile(lp((Word(), 1), (Word.gen(1, -2), -1), (Word.gen(1, 3), 1))) == (-2, 3, 23)
    with pytest.raises(PreconditionError):
        profile(lp((x1 * x2.inverse(), 1)))
    with pytest.raises(PreconditionError):
        profile(lp((Word(), 3)))


def test_diagonal_specialize():
    e = lp((Word(), 1), (Word.gen(1, -2), -1), (Word.gen(1, 3), 1))
    diag, f0 = diagonal_specialize(e)
    # f0 = t^2 * (1 - t^-2 + t^3) = t^2 - 1 + t^5
    assert f0.coeff(0) == -1
    assert f0.coeff(2) == 1
    assert f0.coeff(5) == 1
    assert f0.degree == 5


def test_diagonal_collapse():
    with pytest.raises(DiagonalCollapse):
        diagonal_specialize(standard_polynomial(2))
    with pytest.raises(DiagonalCollapse):
        diagonal_specialize(lp((x1, 1), (x2, -1)))


def test_standard_polynomial_small():
    s2 = standard_polynomial(2)
    assert s2 == lp((x1 * x2, 1), (x2 * x1, -1))
    s3 = standard_polynomial(3)
    assert len(s3.terms) == 6
    assert s3.coefficient(Word(((1, 1), (2, 1), (3, 1)))) == 1
    assert s3.coefficient(Word(((1, 1), (3, 1), (2, 1)))) == -1
    assert s3.coefficient(Word(((3, 1), (1, 1), (2, 1)))) == 1


def test_standard_polynomial_caps_and_rings():
    with pytest.raises(PreconditionError):
        standard_polynomial(0)
    with pytest.raises(CapExceeded):
        standard_polynomial(9)
    f2 = PrimeField(2)
    s2 = standard_polynomial(2, f2)
    assert all(c == 1 for c in s2.terms.values())


def reference_standard_polynomial(n, ring):
    """S_n from validating constructors, signs by pairwise inversion count."""
    terms = []
    for perm in itertools.permutations(range(1, n + 1)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        terms.append((Word(tuple((g, 1) for g in perm)), ring.from_int(-1 if inv % 2 else 1)))
    return LaurentElement(ring, terms)


@pytest.mark.parametrize("ring", [ZZ, PrimeField(2)], ids=repr)
def test_standard_polynomial_matches_the_reference(ring):
    # the signs come from the permutations' lexicographic ranks, checked
    # here against the inversion count term by term, in term order
    for n in range(1, 9):
        e = standard_polynomial(n, ring)
        assert list(e.terms.items()) == list(reference_standard_polynomial(n, ring).terms.items())
        assert list(e.terms) == [Word(tuple((g, 1) for g in perm))
                                 for perm in itertools.permutations(range(1, n + 1))]


def test_standard_words_share_their_syllables():
    s8 = standard_polynomial(8)
    assert len({id(syl) for w in s8.terms for syl in w.syllables}) == 8
    # al_f1 multiplies each word by one inverse word, whose letters cancel
    # whole syllables and make none: x1..x4 and their inverses
    f1 = al_f1(2)
    assert len({id(syl) for w in f1.terms for syl in w.syllables}) == 8


def test_standard_elements_stay_small():
    # words that each owned their syllables would hold about 24 MiB for S_8
    # and 67 MiB for al_f2(4)
    for build, cap_mib in ((lambda: standard_polynomial(8), 10), (lambda: al_f2(4), 25)):
        tracemalloc.start()
        try:
            element = build()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert element.terms and held < cap_mib * 2**20


def old_is_admissible(e):
    """is_admissible as it read with one exp_sum pass per variable."""
    return all(w.is_identity() or not all(w.exp_sum(v) == 0 for v in w.variables())
               for w in e.terms)


def test_is_admissible_matches_the_per_variable_reading():
    path = Path(__file__).parent / "data" / "expressions.txt"
    elements = []
    for line in path.read_text().splitlines():
        ring_text, context, text = line.split("|", 2)
        if context == "laurent":
            elements.append(parse_element(text, ring_from_descriptor(ring_text), "laurent"))
    elements += [f(n) for f in (al_f1, al_f2) for n in (1, 2, 3)]
    verdicts = [is_admissible(e) for e in elements]
    assert verdicts == [old_is_admissible(e) for e in elements]
    assert True in verdicts and False in verdicts


def test_al_families():
    f1 = al_f1(2)
    assert len(f1.terms) == 24
    for w in f1.terms:
        assert w.exp_sum_total() == 0
    # the identity permutation contributes the identity word
    assert f1.coefficient(Word()) == 1
    f2 = al_f2(2)
    assert f2 == f1 + standard_polynomial(4)
    assert not is_admissible(f1)
    with pytest.raises(CapExceeded):
        al_f1(5)
    with pytest.raises(PreconditionError):
        al_f1(0)


def test_gi_to_lpi():
    e = gi_to_lpi(x1)
    assert e == lp((Word(), 1), (x1, -1))
    with pytest.raises(PreconditionError):
        gi_to_lpi(Word())
    with pytest.raises(PreconditionError):
        gi_to_lpi("x1")


def test_substitute_on_elements():
    e = lp((Word(), 1), (x1 * x2.inverse(), -1))
    out = e.substitute(1, Word.gen(1, 2))
    assert out.coefficient(Word.gen(1, 2) * x2.inverse()) == -1
    assert out.coefficient(Word()) == 1


def test_coefficient_sum():
    assert standard_polynomial(3).coefficient_sum() == 0
    assert lp((Word(), 1), (x1, 1)).coefficient_sum() == 2


def test_map_ring():
    f2 = PrimeField(2)
    e = lp((x1, 2), (x2, 3))
    out = e.map_ring(f2, f2.from_int)
    assert out.coefficient(x1) == 0 or x1 not in out.terms
    assert out.coefficient(x2) == 1

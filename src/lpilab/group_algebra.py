"""Laurent polynomials in noncommuting variables: the group algebra of a
free group over an exact coefficient ring.

An element is a finite formal sum of coefficients times reduced words.
Terms are kept collected with zero coefficients dropped, and serialization
orders words by the canonical word order, so equal elements print the same.

This module also houses the identity-specific machinery: the admissibility
restriction, the normalization substitution x_i -> x_i^k, profile bounds,
diagonal specialization to one variable, standard polynomials and the
zero-total-sum families built from them.
"""

import itertools
from collections import namedtuple

from .errors import (
    CapExceeded,
    DiagonalCollapse,
    Inadmissible,
    PreconditionError,
)
from .freegroup import IDENTITY, Word
from .rings import ZZ, FormalSum, UniPoly, embed_into

STANDARD_CAP = 8
AL_CAP = 4

LpiProfile = namedtuple("LpiProfile", "l r d")
NormalizeResult = namedtuple("NormalizeResult", "element variable k")


class LaurentElement(FormalSum):
    """A formal sum of coefficients times reduced words."""

    __slots__ = ()

    UNIT = IDENTITY

    @staticmethod
    def _check_key(word):
        if not isinstance(word, Word):
            raise PreconditionError(f"term key must be a Word: {word!r}")

    _sort_key = staticmethod(Word.sort_key)
    _key_text = staticmethod(Word.format)

    @classmethod
    def from_word(cls, ring, word, coeff=1):
        return cls(ring, [(word, ring.from_int(coeff) if isinstance(coeff, int) else coeff)])

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, [(IDENTITY, c)])

    def coefficient(self, word):
        return self.terms.get(word, self.ring.zero)

    def support(self):
        return [w for w, _ in self.terms_sorted()]

    def variables(self):
        out = set()
        for w in self.terms:
            out |= w.variables()
        return out

    def max_variable(self):
        return max((w.max_generator() for w in self.terms), default=0)

    def has_negative_exponent(self):
        return any(e < 0 for w in self.terms for _, e in w.syllables)

    def coefficient_sum(self):
        acc = self.ring.zero
        for c in self.terms.values():
            acc = self.ring.add(acc, c)
        return acc

    def mul(self, other):
        self._same_ring(other)
        R = self.ring
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                s = R.add(out.get(w, R.zero), R.mul(c1, c2))
                if s == R.zero:
                    out.pop(w, None)
                else:
                    out[w] = s
        return LaurentElement(R, out)

    __mul__ = mul

    def at(self, assignment, inverse):
        """The value of this element at an assignment of algebra elements.

        The assignment is a tuple (x1 first) or a dict keyed by generator
        index, and its values need mul, add, scale, power, one_like and
        zero_like. inverse(g, value) is asked once for each generator that
        appears with a negative exponent and must return the inverse of
        value or raise. This is the evaluation fold behind evaluate and
        q_evaluate; the re-verifier in the checkers stays apart from it.
        """
        values = assignment if isinstance(assignment, dict) else dict(enumerate(assignment, 1))
        if not values:
            raise PreconditionError("empty assignment")
        missing = self.variables() - set(values)
        if missing:
            raise PreconditionError(f"unassigned variables: {sorted(missing)}")
        first = next(iter(values.values()))
        emb = embed_into(self.ring, first.ring)
        inverses = {}
        acc = first.zero_like()
        for w, c in self.terms.items():
            # a term starts from its first factor and power(1) is the base
            # itself, so no product by the identity is ever taken
            val = None
            for g, exp in w.syllables:
                base = values[g]
                if exp < 0:
                    if g not in inverses:
                        inverses[g] = inverse(g, base)
                    base = inverses[g]
                base = base.power(abs(exp))
                val = base if val is None else val.mul(base)
            acc = acc.add((first.one_like() if val is None else val).scale(emb(c)))
        return acc

    def substitute(self, var, replacement):
        """Apply the group substitution x_var -> replacement to every word."""
        return LaurentElement(
            self.ring,
            [(w.substitute(var, replacement), c) for w, c in self.terms.items()],
        )

    def map_ring(self, ring, fn):
        return LaurentElement(ring, [(w, fn(c)) for w, c in self.terms.items()])


class OneVarLaurent(FormalSum):
    """A Laurent polynomial in one symbol t, exponents possibly negative."""

    __slots__ = ()

    UNIT = 0

    @staticmethod
    def _check_key(e):
        if not isinstance(e, int):
            raise PreconditionError(f"exponent of t must be an integer: {e!r}")

    @staticmethod
    def _sort_key(e):
        return e

    @staticmethod
    def _key_text(e):
        return "t" if e == 1 else f"t^{e}"


def is_admissible(e):
    """Every nonconstant support word must have a nonzero exponent sum in
    at least one variable."""
    for w in e.terms:
        if w.is_identity():
            continue
        if all(w.exp_sum(v) == 0 for v in w.variables()):
            return False
    return True


def normalize(e):
    """Make every nonconstant word's total exponent sum nonzero by
    substituting one variable x_i -> x_i^k.

    The input must be a nonzero admissible element. Variables are tried in
    ascending index order and the first one that can work is kept with its
    minimal k; k = 1 means the element was already fine. A variable can
    work unless some word both ignores it (exponent sum zero) and has total
    sum zero, since no power of that variable moves such a word. With three
    or more variables every variable can be stuck that way even though the
    element is admissible; that case is reported as an error rather than
    escalated to multi-variable substitutions.
    """
    if e.is_zero():
        raise PreconditionError("cannot normalize the zero element")
    if not is_admissible(e):
        raise Inadmissible(f"not admissible: {e.format()}")
    words = [w for w in e.terms if not w.is_identity()]
    if all(w.exp_sum_total() != 0 for w in words):
        return NormalizeResult(e, None, 1)
    for var in sorted(e.variables()):
        stats = [(w.exp_sum_total(), w.exp_sum(var)) for w in words]
        if any(total == 0 and s == 0 for total, s in stats):
            continue
        # x_var -> x_var^k turns a word's total into total + (k-1)*s,
        # so each word rules out at most the single k = 1 - total/s
        banned = set()
        for total, s in stats:
            if s != 0 and total % s == 0:
                k_bad = 1 - total // s
                if k_bad >= 1:
                    banned.add(k_bad)
        k = 1
        while k in banned:
            k += 1
        result = e.substitute(var, Word.gen(var, k))
        return NormalizeResult(result, var, k)
    raise PreconditionError(
        "no single-variable substitution can clear the zero total sums"
    )


def profile(e):
    """Exponent range of the one-variable specialization: l, r and the
    derived witness degree d = 4(r - l) + 3.

    The constant term's exponent 0 takes part in the min and max, which is
    what keeps t^(-l) * P(t, t) an honest polynomial.
    """
    totals = _totals_or_fail(e)
    l = min(0, min(totals))
    r = max(0, max(totals))
    return LpiProfile(l, r, 4 * (r - l) + 3)


def _totals_or_fail(e):
    if e.is_zero():
        raise PreconditionError("zero element has no profile")
    totals = []
    saw_nonconstant = False
    for w in e.terms:
        if w.is_identity():
            continue
        saw_nonconstant = True
        t = w.exp_sum_total()
        if t == 0:
            raise PreconditionError(
                "a support word has total exponent sum zero; normalize first"
            )
        totals.append(t)
    if not saw_nonconstant:
        raise PreconditionError("element is constant only")
    return totals


def diagonal_specialize(e):
    """Send every variable to the single symbol t and clear denominators.

    Returns the one-variable Laurent polynomial P(t,...,t) together with
    f0 = t^(-l) * P, an ordinary polynomial of degree at most r - l. When
    the collection cancels everything (distinct words sharing a total sum)
    there is no specialization to work with and DiagonalCollapse is raised
    so callers cannot mistake that for a zero bound.
    """
    prof = profile(e)
    R = e.ring
    diag = OneVarLaurent(R, [(w.exp_sum_total(), c) for w, c in e.terms.items()])
    if diag.is_zero():
        raise DiagonalCollapse(
            f"P(t,...,t) collapsed to zero for {e.format()}"
        )
    coeffs = [R.zero] * (prof.r - prof.l + 1)
    for exp, c in diag.terms.items():
        coeffs[exp - prof.l] = c
    return diag, UniPoly(R, coeffs)


def standard_polynomial(n, ring=ZZ, cap=STANDARD_CAP):
    """S_n, the alternating sum of all n! products of distinct variables."""
    if n < 1:
        raise PreconditionError("standard polynomial needs n >= 1")
    if n > cap:
        raise CapExceeded(f"S_{n} has {n}! terms; cap is n <= {cap}")
    terms = []
    for perm in itertools.permutations(range(1, n + 1)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        word = Word(tuple((g, 1) for g in perm))
        terms.append((word, ring.from_int(-1 if inv % 2 else 1)))
    return LaurentElement(ring, terms)


def gi_to_lpi(w, ring=ZZ):
    """The Laurent polynomial 1 - w attached to a group identity w = 1."""
    if not isinstance(w, Word):
        raise PreconditionError("expected a Word")
    if w.is_identity():
        raise PreconditionError("1 - 1 is zero, not a Laurent polynomial")
    return LaurentElement(ring, [(Word(), ring.one), (w, ring.from_int(-1))])


def al_f1(n, ring=ZZ):
    """S_2n with every term multiplied on the right by (x1 ... x_2n)^-1.

    Each word of S_2n has total exponent sum 2n and the appended inverse
    word contributes -2n, so every word of the result has total sum zero;
    the identity permutation contributes the constant 1.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n > AL_CAP:
        raise CapExceeded(f"2n = {2 * n} variables; cap is n <= {AL_CAP}")
    base = Word(tuple((i, 1) for i in range(1, 2 * n + 1)))
    inv = base.inverse()
    s = standard_polynomial(2 * n, ring)
    return LaurentElement(ring, [(w * inv, c) for w, c in s.terms.items()])


def al_f2(n, ring=ZZ):
    """f1 + S_2n: the companion with zero exponent sums in some words."""
    return al_f1(n, ring).add(standard_polynomial(2 * n, ring))

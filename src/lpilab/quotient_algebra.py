"""The separating example: F = R<x,y> / (x^2, y^2).

Normal forms are spanned by the alternating words in the letters x and y,
the empty word being 1. Two basis words multiply by concatenation, and the
product is zero exactly when the junction letters coincide, because that
junction is an x^2 or a y^2. Every element is a finite sum, so no degree
truncation is ever needed even though F is infinite dimensional.

Units are certified constructively only. A product of factors 1 + c*s
with s a single letter inverts by reversing the order and flipping signs,
since (c*s)^2 = 0; nothing else is certified, and elements like 1 + xy
genuinely have no inverse here (their geometric series never terminates).
"""

from .errors import NonUnit, PreconditionError
from .rings import FormalSum, PrimeField

LETTERS = ("x", "y")


def _check_word(w):
    for a, b in zip(w, w[1:]):
        if a == b:
            raise PreconditionError(f"not an alternating word: {w!r}")
    for ch in w:
        if ch not in LETTERS:
            raise PreconditionError(f"letter outside x, y: {w!r}")
    return w


class QuotientElement(FormalSum):
    """A formal sum of coefficients times alternating words in x and y."""

    __slots__ = ()

    UNIT = ""

    _check_key = staticmethod(_check_word)

    _sort_keys = (None, len)  # length, then the word

    _key_text = staticmethod("*".join)

    @classmethod
    def letter(cls, ring, s):
        if s not in LETTERS:
            raise PreconditionError(f"letter must be x or y: {s!r}")
        return cls(ring, [(s, ring.one)])

    def support_size(self):
        return len(self.terms)

    @staticmethod
    def _key_mul(w1, w2):
        # w1 and w2 alternate, so w1 + w2 does unless they meet on one
        # letter, where the junction is an x^2 or a y^2 and the product is 0
        if w1 and w2 and w1[-1] == w2[0]:
            return None
        return w1 + w2


class QuotientUnit:
    """A certified unit: the element, its inverse and the factor list that
    produced both. The certificate is checked at construction, so holding
    a QuotientUnit is proof of invertibility."""

    __slots__ = ("value", "inverse", "factors")

    def __init__(self, value, inverse, factors):
        one = QuotientElement.one(value.ring)
        if value.mul(inverse) != one or inverse.mul(value) != one:
            raise PreconditionError("certificate failure: value * inverse != 1")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientUnit is immutable")

    def __repr__(self):
        return f"QuotientUnit({self.value.format()})"


def q_unit(ring, factors):
    """Build the unit (1 + c1*s1)(1 + c2*s2)... from (coefficient, letter)
    pairs. Each factor inverts to 1 - c*s on its own, so the whole product
    inverts as the reversed product of those."""
    factors = list(factors)
    if not factors:
        return QuotientUnit(QuotientElement.one(ring), QuotientElement.one(ring), ())
    one = QuotientElement.one(ring)
    value = one
    for c, s in factors:
        if s not in LETTERS:
            raise PreconditionError(
                f"factor 1 + c*{s!r} is not elementary; only single letters are certified"
            )
        value = value.mul(one.add(QuotientElement.letter(ring, s).scale(c)))
    inverse = one
    for c, s in reversed(factors):
        flipped = ring.neg(ring.coerce(c))
        inverse = inverse.mul(one.add(QuotientElement.letter(ring, s).scale(flipped)))
    return QuotientUnit(value, inverse, factors)


def q_evaluate(e, assignment):
    """Evaluate a Laurent element at quotient elements.

    Positive exponents work for any element. A negative exponent demands a
    QuotientUnit in that slot; a bare element there raises NonUnit because
    general invertibility in F is not decided, only certified.
    """
    items = assignment.items() if isinstance(assignment, dict) else enumerate(assignment, 1)
    values = {}
    certified = {}
    for g, v in items:
        if isinstance(v, QuotientUnit):
            values[g] = v.value
            certified[g] = v.inverse
        elif isinstance(v, QuotientElement):
            values[g] = v
        else:
            raise PreconditionError(f"x{g} is assigned {v!r}")

    def inverse(g, value):
        if g not in certified:
            raise NonUnit(f"x{g} appears with a negative exponent but is not a certified unit")
        return certified[g]

    return e.at(values, inverse)


def sample_element(ring, rng, max_support=8, max_len=5):
    """A random element with small support. An alternating word is fixed by
    its first letter and its length, which keeps the draw uniform enough
    for coverage without any rejection."""
    terms = []
    for _ in range(rng.randrange(1, max_support + 1)):
        length = rng.randrange(0, max_len + 1)
        if length == 0:
            w = ""
        else:
            first = rng.choice(LETTERS)
            other = "y" if first == "x" else "x"
            w = "".join(first if i % 2 == 0 else other for i in range(length))
        c = _nonzero_scalar(ring, rng)
        terms.append((w, c))
    return QuotientElement(ring, terms)


def _nonzero_scalar(ring, rng):
    if isinstance(ring, PrimeField):
        return rng.randrange(1, ring.p) if ring.p > 1 else 1
    c = 0
    while c == 0:
        c = rng.randint(-3, 3)
    return c

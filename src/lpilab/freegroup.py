"""Reduced words of a free group on generators x1, x2, ...

A word is a tuple of syllables (generator index, exponent) with nonzero
exponents and no two adjacent syllables on the same generator. The
constructor accepts any syllable sequence and reduces it, so the reduced
form is the only one that ever circulates. Generator indices are 1-based
to match the usual x1, x2 notation.
"""

from .errors import PreconditionError
from .rings import power


class Word:
    """A reduced word. Syllables are immutable tuples, so words share
    them: the constructor keeps each tuple syllable it does not merge, and
    a product points at its factors' syllables instead of copying them."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        stack = []
        for syl in syllables:
            gen, exp = syl
            # exactly int: a bool equals 0 or 1 but prints as False or True
            if type(gen) is not int or gen < 1:
                raise PreconditionError(f"generator index must be a positive integer: {gen!r}")
            if type(exp) is not int:
                raise PreconditionError(f"exponent must be an integer: {exp!r}")
            if exp == 0:
                continue
            if stack and stack[-1][0] == gen:
                merged = stack[-1][1] + exp
                stack.pop()
                if merged != 0:
                    stack.append((gen, merged))
            else:
                stack.append(syl if type(syl) is tuple else (gen, exp))
        object.__setattr__(self, "syllables", tuple(stack))

    @classmethod
    def _trusted(cls, syllables):
        """The word whose syllables are the tuple syllables itself,
        unchecked: it must already be reduced, with positive integer
        generators, nonzero integer exponents and no two adjacent
        syllables on one generator."""
        self = object.__new__(cls)
        object.__setattr__(self, "syllables", syllables)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word._trusted, (self.syllables,)

    @classmethod
    def gen(cls, i, e=1):
        return cls(((i, e),))

    def is_identity(self):
        return not self.syllables

    def letter_length(self):
        # a plain loop, not a generator: sort_key calls this for every word
        # of a sort, where a generator per word costs as much as the sort
        n = 0
        for _, e in self.syllables:
            n += e if e > 0 else -e
        return n

    def variables(self):
        return {g for g, _ in self.syllables}

    def max_generator(self):
        return max((g for g, _ in self.syllables), default=0)

    def exp_sum(self, var):
        return sum(e for g, e in self.syllables if g == var)

    def exp_sums(self):
        """{generator: exponent sum} over the generators the word uses,
        read in one pass."""
        sums = {}
        for g, e in self.syllables:
            sums[g] = sums.get(g, 0) + e
        return sums

    def exp_sum_total(self):
        return sum(e for _, e in self.syllables)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.syllables + other.syllables)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __invert__(self):
        return self.inverse()

    mul = __mul__

    def __pow__(self, k):
        return power(self if k >= 0 else self.inverse(), abs(k), IDENTITY)

    def substitute(self, var, replacement):
        """Replace every syllable (var, e) by replacement**e and reduce."""
        if not isinstance(replacement, Word):
            raise PreconditionError("replacement must be a Word")
        out = []
        rep_inv = None
        for syl in self.syllables:
            g, e = syl
            if g != var:
                out.append(syl)
                continue
            if e > 0:
                block = replacement.syllables
            else:
                if rep_inv is None:
                    rep_inv = replacement.inverse()
                block = rep_inv.syllables
            for _ in range(abs(e)):
                out.extend(block)
        return Word(out)

    def sort_key(self):
        # letter length first, then the syllable tuple; any total order
        # would do, this one keeps short words early and is cheap
        return (self.letter_length(), self.syllables)

    def format(self):
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            parts.append(f"x{g}" if e == 1 else f"x{g}^{e}")
        return "*".join(parts)

    def __eq__(self, other):
        return isinstance(other, Word) and other.syllables == self.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"Word({self.format()})"


IDENTITY = Word()

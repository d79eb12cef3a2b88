"""Laurent polynomials in noncommuting variables: the group algebra of a
free group over an exact coefficient ring.

An element is a finite formal sum of coefficients times reduced words.
Terms are kept collected with zero coefficients dropped, and serialization
orders words by the canonical word order, so equal elements print the same.

This module also houses the identity-specific machinery: the admissibility
restriction, the normalization substitution x_i -> x_i^k, profile bounds,
diagonal specialization to one variable, standard polynomials, the
zero-total-sum families built from them, and `_staged_program`, the one
compiler that turns an element into the program evaluating it on index
tables, matrices and quotient elements alike, each sub-polynomial as soon
as the variables it reads are entered. The index tables split each word
at its first syllable of the deepest variable, for the fewest products at
the scan leaf; matrices and quotient elements split it at its last
syllable, for the fewest per full pass, the subset DP's on S_k.
"""

import itertools
import operator
from collections import namedtuple
from types import SimpleNamespace

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

    # Word.sort_key's order, letter length then syllables
    _sort_keys = (operator.attrgetter("syllables"), Word.letter_length)
    _key_text = staticmethod(Word.format)
    _key_mul = staticmethod(Word.__mul__)

    @classmethod
    def from_word(cls, ring, word, coeff=1):
        return cls(ring, [(word, ring.from_int(coeff) if isinstance(coeff, int) else coeff)])

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, [(IDENTITY, c)])

    def coefficient(self, word):
        return self.terms.get(word, self.ring.zero)

    def support(self):
        return self._keys_sorted()

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

    def at(self, assignment, inverse):
        """The value of this element at an assignment of algebra elements.

        The assignment is a tuple (x1 first) or a dict keyed by generator
        index, and its values need mul, add, negation, scale, one_like and
        zero_like. inverse(g, value) is asked once for each generator that
        appears with a negative exponent, in order of first appearance,
        and must return the inverse of value or raise. The value comes
        from the compiler the table scans use, with the split that values
        take.
        """
        values = assignment if isinstance(assignment, dict) else dict(enumerate(assignment, 1))
        if not values:
            raise PreconditionError("empty assignment")
        missing = self.variables() - set(values)
        if missing:
            raise PreconditionError(f"unassigned variables: {sorted(missing)}")
        inverses, run = self.compiled(next(iter(values.values())))
        for g in dict.fromkeys(g for w in self.terms for g, x in w.syllables if x < 0):
            inverses[values[g]] = inverse(g, values[g])
        return run(values)

    def compiled(self, like):
        """This element's program over values of the kind of like (a Matrix
        or a QuotientElement): the map inverses, and run(values), the value
        at a dict {generator: value}. Before a run the caller maps each
        value a generator with a negative exponent takes to its inverse."""
        ops = _value_ops(like)
        _, enter, value = _staged_program(ops, self)
        variables = sorted(self.variables())

        def run(values):
            for d, g in enumerate(variables):
                enter(d, values[g])
            return value()

        return ops.inverse, run

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

    _sort_keys = (int,)
    _key_mul = staticmethod(operator.add)

    @staticmethod
    def _key_text(e):
        return "t" if e == 1 else f"t^{e}"


def is_admissible(e):
    """Every nonconstant support word must have a nonzero exponent sum in
    at least one variable."""
    return all(any(w.exp_sums().values()) for w in e.terms if not w.is_identity())


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
    # t^(-l) shifts every exponent up by -l >= 0
    return diag, UniPoly._trusted(R, {exp - prof.l: c for exp, c in diag.terms.items()})


def standard_polynomial(n, ring=ZZ):
    """S_n, the alternating sum of all n! products of distinct variables."""
    if n < 1:
        raise PreconditionError("standard polynomial needs n >= 1")
    if n > STANDARD_CAP:
        raise CapExceeded(f"S_{n} has {n}! terms; cap is n <= {STANDARD_CAP}")
    # distinct permutations give distinct reduced words and every sign is
    # a nonzero ring scalar, so the terms need no collecting or checking
    signs = (ring.from_int(1), ring.from_int(-1))
    # permutations come in lexicographic order, where the i-th one's digits
    # in factorial base (its Lehmer code) sum to its inversions: the
    # parities on r letters are r blocks of those on r - 1 letters, one per
    # first letter, the d-th block flipped when its leading digit d is odd
    parities = [0]
    for r in range(2, n + 1):
        parities = [q ^ (d & 1) for d in range(r) for q in parities]
    # every word is a permutation of the same n syllables, shared, not copied
    syllables = [(g, 1) for g in range(1, n + 1)]
    terms = {Word._trusted(perm): signs[parity]
             for perm, parity in zip(itertools.permutations(syllables), parities)}
    return LaurentElement._trusted(ring, terms)


def gi_to_lpi(w, ring=ZZ):
    """The Laurent polynomial 1 - w attached to a group identity w = 1."""
    if not isinstance(w, Word):
        raise PreconditionError("expected a Word")
    if w.is_identity():
        raise PreconditionError("1 - 1 is zero, not a Laurent polynomial")
    return LaurentElement(ring, [(Word(), ring.one), (w, ring.from_int(-1))])


def _standard_and_f1(n, ring):
    """(S_2n, al_f1(n)), the second built from the words of the first."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n > AL_CAP:
        raise CapExceeded(f"2n = {2 * n} variables; cap is n <= {AL_CAP}")
    inv = Word(tuple((i, 1) for i in range(1, 2 * n + 1))).inverse()
    s = standard_polynomial(2 * n, ring)
    return s, LaurentElement(ring, [(w * inv, c) for w, c in s.terms.items()])


def al_f1(n, ring=ZZ):
    """S_2n with every term multiplied on the right by (x1 ... x_2n)^-1.

    Each word of S_2n has total exponent sum 2n and the appended inverse
    word contributes -2n, so every word of the result has total sum zero;
    the identity permutation contributes the constant 1.
    """
    return _standard_and_f1(n, ring)[1]


def al_f2(n, ring=ZZ):
    """f1 + S_2n: the companion with zero exponent sums in some words."""
    s, f1 = _standard_and_f1(n, ring)
    return f1.add(s)


# ---------------------------------------------------------------------------
# compiled evaluation


class _Calls:
    """A subscript that calls: self[a] is fn(a)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


def _value_ops(like):
    """The interface of the index tables (checkers._Tables) over values of
    the kind of like, a Matrix or a QuotientElement: mul[a][b] is a.mul(b),
    add[a][b] is a.add(b), neg[a] is -a, and mul[scalar_index(c)][v] is
    v.scale(c). The caller fills inverse, a map from value to inverse."""
    return SimpleNamespace(
        ring=like.ring, one=like.one_like(), zero=like.zero_like(), inverse={},
        mul=_Calls(lambda a: _Calls(a.mul)), add=_Calls(lambda a: _Calls(a.add)),
        neg=_Calls(operator.neg),
        # c times the identity as a left factor: its product scales
        scalar_index=lambda c: SimpleNamespace(mul=lambda v: v.scale(c)))


def _staged_program(ops, e, last=None):
    """Compile e into the program (nvars, enter, value) that evaluates it
    over ops in stages, each sub-polynomial at the shallowest scan depth
    that fixes its variables. enter(d, x) assigns x to e's d-th variable in
    generator order, the variables being entered in that order, and
    value() is e's value there. ops is the index tables of a finite
    algebra, where x is an index and mul[a][b] a list lookup, or
    _value_ops.

    A sub-polynomial P is Q + sum L * g^a * R. Each word of P splits at
    one syllable g^a into u0 * g^a * u1, Q holds the words that do not
    split, the terms are grouped by (g^a, u0) into a right sum R, and the
    rows whose R agree up to a unit scalar s merge into one row with left
    sum L = sum s * u0; a constant R is s times one for any s. Q, L and R
    have shorter words, so each is compiled the same way, once per
    distinct sub-polynomial, into a node at the depth of its deepest
    variable. last chooses the syllable. It defaults to the kind of ops,
    so every caller makes the same choice:

    - the index tables split each word at its first syllable of P's
      deepest variable v, and Q holds the v-free words. A scan enters
      mostly the last variable, and this split leaves the leaf only the
      rows of v: 2^k - 2 products on S_k, against 19 on S_4 for the
      other split;
    - values (_value_ops) split each word at its last syllable, so Q is
      P's constant term and P = Q + sum L * g^a. Values are evaluated in
      full passes (`evaluate`, random mode, quotient checks), and there
      this split takes fewer products on all but small elements: 186
      against 242 on S_6, 196 against 407 on al_f1(3), though 21 against
      13 on the commutator square. On S_k each L is S_(k-1) on the other
      variables up to sign, so the program is the subset DP, with its
      k * 2^(k-1) - k products.

    enter(d, x) caches the powers of variable d that e uses, inverses
    included, each by square-and-multiply from its first factor, and then
    computes every node at depth d in creation order; value() reads the
    root. A scalar is applied as a negation or a scale, never as a
    product, and no product by the identity is ever taken."""
    if last is None:
        # _value_ops calls for its products, where the tables look them up
        last = isinstance(ops.mul, _Calls)
    R = ops.ring
    variables = sorted(e.variables())
    depth_of = {g: d for d, g in enumerate(variables)}
    image = e.map_ring(R, embed_into(e.ring, R))
    MUL, ADD, NEG, INV = ops.mul, ops.add, ops.neg, ops.inverse
    ONE, MINUS_ONE = R.one, R.neg(R.one)
    # V[slot] is a node's value and depth[slot] its depth, -1 for a constant
    V, depth = [], []
    powers = [{} for _ in variables]  # powers[d]: exponent of variable d -> slot
    steps = [[] for _ in variables]  # steps[d]: the nodes at depth d, in order
    memo = {}

    def new_slot(d, value=None):
        V.append(value)
        depth.append(d)
        return len(V) - 1

    def scaler(c):
        return NEG if c == MINUS_ONE else MUL[ops.scalar_index(c)]

    def scale_node(child, c):
        """A node at child's depth: child's value times the scalar c."""
        d = depth[child]
        slot = new_slot(d)
        steps[d].append((slot, scaler(c), child, None))
        return slot

    def scaled(P, s):
        return P if s == ONE else {w: R.mul(s, c) for w, c in P.items()}

    def constant(P):
        """P's scalar when P is a constant, else None."""
        return P.get(()) if len(P) == 1 else None

    def normalized(P):
        """(s, P / s) for s P's coefficient on its least word when that is
        a unit, else (one, P): P and its unit multiples share P / s. A
        constant s is s times one, unit or not."""
        s = P[min(P)]
        if s == ONE:
            return ONE, P
        if constant(P) is not None:
            return s, {(): ONE}
        if not R.is_unit(s):
            return ONE, P
        return s, scaled(P, R.inv(s))

    def split_at(w, v):
        """The index of the syllable w splits at, None when w goes to Q."""
        if last:
            return len(w) - 1 if w else None
        return next((i for i, (g, _) in enumerate(w) if g == v), None)

    def node(P):
        """The slot of the nonzero sub-polynomial P, a dict {syllables: coeff}.
        build(P) yields each sub-polynomial it needs and is sent its slot;
        the loop runs the builds on a stack of its own, so the call stack
        does not grow with the length of a word."""
        key = frozenset(P.items())
        if key in memo:
            return memo[key]
        stack, sent = [(key, build(P))], None
        while True:
            key, builder = stack[-1]
            try:
                sub = builder.send(sent)
            except StopIteration as done:
                memo[key] = sent = done.value
                stack.pop()
                if not stack:
                    return sent
                continue
            key = frozenset(sub.items())
            if key in memo:
                sent = memo[key]
            else:
                stack.append((key, build(sub)))
                sent = None

    def build(P):
        """A generator that builds P's node; see node."""
        if len(P) == 1:
            (w, c), = P.items()
            if not w:
                return new_slot(-1, ops.one if c == ONE else scaler(c)[ops.one])
            if len(w) == 1:
                (g, a), = w
                d = depth_of[g]
                if a not in powers[d]:
                    powers[d][a] = new_slot(d)
                return powers[d][a] if c == ONE else scale_node(powers[d][a], c)
        s, unit = normalized(P)
        if s != ONE:
            return scale_node((yield unit), s)
        v = max(max(w)[0] for w in P if w)  # a syllable (g, a) sorts by g first
        Q, groups = {}, {}
        for w, c in P.items():
            i = split_at(w, v)
            if i is None:
                Q[w] = c
            else:
                groups.setdefault((w[i], w[:i]), {})[w[i + 1:]] = c
        merged = {}
        for (syllable, u0), right in groups.items():
            s, right = normalized(right)
            merged.setdefault((syllable, frozenset(right.items())), (right, {}))[1][u0] = s
        rows = []
        for (syllable, _), (right, left) in merged.items():
            # a scalar side goes onto the other side, or onto g^a alone
            cl, cr = constant(left), constant(right)
            power = yield {(syllable,): ONE}
            if cl is not None and cr is not None:
                rows.append((None, (yield {(syllable,): R.mul(cl, cr)}), None))
            elif cr is not None:
                rows.append(((yield scaled(left, cr)), power, None))
            elif cl is not None:
                rows.append((None, power, (yield scaled(right, cl))))
            else:
                rows.append(((yield left), power, (yield right)))
        q = (yield Q) if Q else None
        d = depth_of[v]
        slot = new_slot(d)
        steps[d].append((slot, None, q, rows))
        return slot

    terms = {w.syllables: c for w, c in image.terms.items()}
    root = node(terms) if terms else new_slot(-1, ops.zero)
    powers = [list(p.items()) for p in powers]

    def enter(d, idx):
        # rings.power's square-and-multiply, inline: over the tables an
        # index is an int with no mul, and this is the scan's hot path
        for x, slot in powers[d]:
            base = idx if x > 0 else INV[idx]
            k, acc = abs(x), None
            while k:
                if k & 1:
                    acc = base if acc is None else MUL[acc][base]
                k >>= 1
                if k:
                    base = MUL[base][base]
            V[slot] = acc
        for out, scale, q, rows in steps[d]:
            if rows is None:
                V[out] = scale[V[q]]
                continue
            acc = None if q is None else V[q]
            for l, p, r in rows:
                t = V[p]
                if l is not None:
                    t = MUL[V[l]][t]
                if r is not None:
                    t = MUL[t][V[r]]
                acc = t if acc is None else ADD[acc][t]
            V[out] = acc

    return len(variables), enter, lambda: V[root]

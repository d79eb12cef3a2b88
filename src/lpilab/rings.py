"""Exact coefficient arithmetic.

Scalars are plain Python values (int for the integers, Fraction for the
rationals, a reduced int in [0, p) for a prime field) and the ring object
carries the operations. Keeping values unboxed matters: the search engines
index millions of products and per-element wrapper objects would dominate
the runtime. The price is that a bare int does not know its ring, so every
structure that stores scalars (polynomials, matrices, formal sums) also
stores the ring object and refuses to mix rings.

FormalSum, the base of every formal sum in the package, lives here too,
with its one-variable case UniPoly, a polynomial keyed by exponent, and
the exact Vandermonde solver used to split a polynomial relation into
homogeneous components.
"""

from fractions import Fraction
from operator import add as _add, mul as _mul, neg as _neg

from .errors import PreconditionError, RingMismatch, SolveError


class _NegativeInfinity:
    """Degree of the zero polynomial. Compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegativeInfinity()


def _is_prime(n):
    # deterministic Miller-Rabin; bases 2,3,5,7 decide every n < 3_215_031_751,
    # comfortably past the 2**31 modulus bound
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Numbers:
    """The arithmetic ZZ and QQ share: Python's own operators on int or
    Fraction, with nothing to reduce."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def dot(self, xs, ys):
        return sum(map(_mul, xs, ys))

    def is_neg(self, a):
        return a < 0

    def format(self, a):
        return str(a)


class IntegerRing(_Numbers):
    """Arbitrary-precision integers. Units are 1 and -1."""

    is_field = False
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise RingMismatch(f"not an integer: {v!r}")
        return v

    def from_int(self, n):
        return n

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise PreconditionError(f"{a} is not a unit of ZZ")

    def descriptor(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


class RationalField(_Numbers):
    """Fractions in lowest terms. Internal plumbing for solving over ZZ."""

    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, bool):
            raise RingMismatch(f"not a rational: {v!r}")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise RingMismatch(f"not a rational: {v!r}")

    def from_int(self, n):
        return Fraction(n)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise PreconditionError("division by zero in QQ")
        return 1 / Fraction(a)

    def descriptor(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field of p elements, residues stored reduced in [0, p).

    The modulus stays below 2**31 so every product of two residues fits in
    a native machine word before reduction; bignum arithmetic is reserved
    for ZZ where it is actually needed.
    """

    is_field = True

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise PreconditionError(f"modulus must be an integer in [2, 2**31): {p!r}")
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise RingMismatch(f"not a residue: {v!r}")
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def dot(self, xs, ys):
        """The sum of the products x*y, reduced once."""
        return sum(map(_mul, xs, ys)) % self.p

    def from_int(self, n):
        return n % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise PreconditionError(f"division by zero mod {self.p}")
        return pow(a, -1, self.p)

    def is_neg(self, a):
        return False

    def format(self, a):
        return str(a % self.p)

    def descriptor(self):
        return f"Fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"Fp:{self.p}"


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_descriptor(text):
    """Parse a ring literal: ``ZZ`` or ``Fp:<prime>``."""
    if text == "ZZ":
        return ZZ
    if text.startswith("Fp:"):
        digits = text[3:]
        if not (digits.isascii() and digits.isdigit()):
            raise PreconditionError(f"bad prime field literal: {text!r}")
        if len(digits.lstrip("0")) > 10:  # 2**31 has 10 digits; int() refuses 4,301
            raise PreconditionError(f"modulus must be below 2**31: {len(digits)} digits")
        return PrimeField(int(digits))
    raise PreconditionError(f"unknown ring literal: {text!r}")


def power(x, k, one):
    """x**k for k >= 0 through x.mul, one when k is 0, by square-and-multiply
    from the first factor: at most 2 * log2(k) products, and power(x, 1, one)
    is x itself."""
    if k < 0:
        raise PreconditionError("power exponent must be >= 0")
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else acc.mul(x)
        k >>= 1
        if k:
            x = x.mul(x)
    return one if acc is None else acc


def embed_into(src, dst):
    """A canonical embedding src -> dst as a callable, or raise.

    ZZ embeds everywhere through from_int. A ring embeds into itself by
    identity. Nothing else is canonical, in particular there is no map
    between distinct prime fields.
    """
    if src == dst:
        return lambda v: v
    if isinstance(src, IntegerRing):
        return dst.from_int
    raise RingMismatch(f"no canonical embedding {src!r} -> {dst!r}")


_JOIN_CHUNK = 512  # terms per " ".join in FormalSum.format


class FormalSum:
    """A finite formal sum of monomials with coefficients in a ring.

    Terms are kept collected in a dict {monomial: coefficient} with zero
    coefficients dropped, and the element is immutable, so equal sums
    compare, hash and print the same. A subclass names its unit monomial
    UNIT and supplies _check_key (validates a monomial or raises),
    _sort_keys (the print order: key functions, the least significant
    first, each returning an object the monomial holds or a small int, so
    _keys_sorted's stable sorts build no object per term), _key_text (the
    text of a monomial other than UNIT) and _key_mul (the product of two
    monomials, or None where it is zero), which mul uses. format joins
    its terms _JOIN_CHUNK at a time, so it holds about its result's size
    beyond the result whatever the term count.

    The public constructor validates: it checks every key and coerces
    every coefficient. Arithmetic on valid operands builds its result with
    _trusted instead, which wraps the dict as it stands. That is safe
    because such a result is already collected (one entry per key),
    zero-free and ring-reduced (the ring's own operations made each
    coefficient), and its keys are products or copies of valid keys.
    """

    __slots__ = ("ring", "terms")

    UNIT = None

    def __init__(self, ring, terms=()):
        check = self._check_key
        collected = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            check(key)
            c = ring.coerce(coeff)
            if key in collected:
                c = ring.add(collected[key], c)
            if c == ring.zero:
                collected.pop(key, None)
            else:
                collected[key] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", collected)

    @classmethod
    def _trusted(cls, ring, terms):
        """The element whose terms are the dict terms itself, unchecked:
        terms must be collected, zero-free and ring-reduced over ring."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._trusted, (self.ring, self.terms)

    @classmethod
    def zero(cls, ring):
        return cls._trusted(ring, {})

    @classmethod
    def one(cls, ring):
        return cls._trusted(ring, {cls.UNIT: ring.one})

    def one_like(self):
        return self.one(self.ring)

    def zero_like(self):
        return self.zero(self.ring)

    def is_zero(self):
        return not self.terms

    def _same_ring(self, other):
        if type(other) is not type(self) or other.ring != self.ring:
            raise RingMismatch(f"operands are not {type(self).__name__}s over one ring")

    def add(self, other):
        self._same_ring(other)
        R = self.ring
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = R.add(out.get(key, R.zero), c)
            if s == R.zero:
                out.pop(key, None)
            else:
                out[key] = s
        return self._trusted(R, out)

    __add__ = add

    def __neg__(self):
        R = self.ring
        return self._trusted(R, {key: R.neg(c) for key, c in self.terms.items()})

    def __sub__(self, other):
        return self.add(-other)

    def mul(self, other):
        self._same_ring(other)
        R = self.ring
        key_mul = self._key_mul
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = key_mul(k1, k2)
                if key is None:
                    continue
                s = R.add(out.get(key, R.zero), R.mul(c1, c2))
                if s == R.zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return self._trusted(R, out)

    __mul__ = mul

    def scale(self, c):
        R = self.ring
        c = R.coerce(c)
        out = {}
        for key, v in self.terms.items():
            s = R.mul(c, v)
            if s != R.zero:
                out[key] = s
        return self._trusted(R, out)

    def power(self, k):
        return power(self, k, self.one_like())

    def _keys_sorted(self):
        """The monomials in print order."""
        keys = list(self.terms)
        for sort_key in self._sort_keys:
            keys.sort(key=sort_key)
        return keys

    def terms_sorted(self):
        return [(key, self.terms[key]) for key in self._keys_sorted()]

    def format(self):
        """The sum as "a - 2*b + c" in print order: unit coefficients are
        left implicit on monomials, a leading minus sign binds without a
        space, and the empty sum is "0"."""
        R, unit, text, terms = self.ring, self.UNIT, self._key_text, self.terms
        chunks, parts = [], []
        for key in self._keys_sorted():
            c = terms[key]
            neg = R.is_neg(c)
            mag = R.neg(c) if neg else c
            if key == unit:
                body = R.format(mag)
            elif mag == R.one:
                body = text(key)
            else:
                body = f"{R.format(mag)}*{text(key)}"
            if parts or chunks:
                parts.append(f"- {body}" if neg else f"+ {body}")
            else:
                parts.append(f"-{body}" if neg else body)
            if len(parts) == _JOIN_CHUNK:
                chunks.append(" ".join(parts))
                parts.clear()
        if parts:
            chunks.append(" ".join(parts))
        return " ".join(chunks) or "0"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(self.terms_sorted())))

    def __repr__(self):
        return f"{type(self).__name__}({self.ring!r}, {self.format()})"


class UniPoly(FormalSum):
    """A univariate polynomial in X, its terms keyed by exponent.

    The constructor takes the ascending coefficients. The zero polynomial
    has degree NEG_INF, a sentinel rather than -1, so degree comparisons
    never lie.
    """

    __slots__ = ()

    UNIT = 0

    def __init__(self, ring, coeffs=()):
        super().__init__(ring, enumerate(coeffs))

    @staticmethod
    def _check_key(e):
        pass  # the constructor's keys come from enumerate

    _sort_keys = (_neg,)
    _key_mul = staticmethod(_add)

    @staticmethod
    def _key_text(e):
        return "X" if e == 1 else f"X^{e}"

    @classmethod
    def x_power(cls, ring, k):
        """X**k for k >= 0."""
        return cls(ring, [ring.zero] * k + [ring.one])

    @property
    def degree(self):
        return max(self.terms, default=NEG_INF)

    @property
    def coeffs(self):
        """The ascending coefficient tuple, () for the zero polynomial."""
        return tuple(map(self.coeff, range(max(self.terms, default=-1) + 1)))

    def coeff(self, i):
        return self.terms.get(i, self.ring.zero)

    def divmod_by(self, divisor):
        """Long division. The divisor's leading coefficient must be a unit."""
        self._same_ring(divisor)
        if divisor.is_zero():
            raise PreconditionError("division by the zero polynomial")
        R = self.ring
        lead = divisor.coeffs[-1]
        if not R.is_unit(lead):
            raise PreconditionError("leading coefficient of divisor is not a unit")
        lead_inv = R.inv(lead)
        rem = list(self.coeffs)
        dd = len(divisor.coeffs) - 1
        if len(rem) <= dd:
            return UniPoly(R), UniPoly(R, rem)
        quot = [R.zero] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == R.zero:
                continue
            q = R.mul(c, lead_inv)
            quot[k - dd] = q
            for i, b in enumerate(divisor.coeffs):
                rem[k - dd + i] = R.sub(rem[k - dd + i], R.mul(q, b))
        return UniPoly(R, quot), UniPoly(R, rem)


def unipoly_eval(g, v, ring=None):
    """Evaluate g at v, where v is a ring scalar or an algebra element.

    An algebra element is anything with a ring tag plus one_like, mul, add
    and scale methods (matrices and quotient elements both qualify); the
    constant term becomes constant times the identity there. Coefficients
    embed through the canonical map into v's ring, which must exist.
    """
    if hasattr(v, "ring") and hasattr(v, "one_like"):
        emb = embed_into(g.ring, v.ring)
        one = v.one_like()
        acc = one.scale(v.ring.zero)
        for c in reversed(g.coeffs):
            acc = acc.mul(v).add(one.scale(emb(c)))
        return acc
    R = ring if ring is not None else g.ring
    emb = embed_into(g.ring, R)
    w = R.coerce(v)
    acc = R.zero
    for c in reversed(g.coeffs):
        acc = R.add(R.mul(acc, w), emb(c))
    return acc


def _field_for(ring):
    # exact solving happens over a field; ZZ borrows its fraction field
    if ring.is_field:
        return ring, (lambda v: v)
    if ring == ZZ:
        return QQ, Fraction
    raise PreconditionError(f"no solve field for {ring!r}")


def _row_reduce(field, rows, ncols):
    """Gauss-Jordan reduction, in place, of a list of rows (lists of field
    scalars) to reduced row echelon form, with pivots sought in the first
    ncols columns only. Returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != field.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f != field.zero:
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots


def _kernel(field, rows, ncols):
    """A basis of {v : rows * v = 0}, rows having ncols columns of field
    scalars (left unchanged): per non-pivot column f, in increasing order,
    the vector with 1 at f, 0 at the other non-pivot columns and column f
    negated at the pivots."""
    rows = [list(r) for r in rows]
    pivots = _row_reduce(field, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, pc in zip(rows, pivots):
            vec[pc] = field.neg(row[f])
        basis.append(vec)
    return basis


def _invert_square(field, rows):
    """Gauss-Jordan inverse of a small square matrix of field scalars, as
    a list of rows, or None when the matrix is singular."""
    n = len(rows)
    aug = [list(rows[i]) + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    if len(_row_reduce(field, aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def _restore(ring, field, v):
    # bring a solved field scalar back into the original ring
    if field == ring:
        return v
    if v.denominator != 1:
        raise SolveError(f"component {v} is not integral")
    return int(v)


def vandermonde_solve(ring, points, values):
    """Split values[j] = sum_i points[j]**i * p_i into the components p_i.

    Exactly len(points) components come back and the forward evaluation is
    an identity on them. Values may be ring scalars or matrices over the
    same ring; each solved component must land back inside that ring or the
    solve reports failure, since a non-representable component signals an
    inconsistency upstream.
    """
    if len(points) != len(values):
        raise PreconditionError("points and values differ in length")
    if not points:
        raise PreconditionError("empty system")
    field, lift = _field_for(ring)
    pts = [lift(ring.coerce(x)) for x in points]
    if len(set(pts)) != len(pts):
        raise PreconditionError("repeated interpolation points")
    n = len(pts)
    vrows = []
    for x in pts:
        row = [field.one]
        for _ in range(n - 1):
            row.append(field.mul(row[-1], x))
        vrows.append(row)
    W = _invert_square(field, vrows)
    if W is None:
        raise SolveError("singular system")

    def combine(vals):
        vals = [lift(ring.coerce(v)) for v in vals]
        out = []
        for i in range(n):
            acc = field.zero
            for j, v in enumerate(vals):
                acc = field.add(acc, field.mul(W[i][j], v))
            out.append(_restore(ring, field, acc))
        return out

    first = values[0]
    if not hasattr(first, "entries"):
        return combine(values)
    # matrix values: each entry position is a scalar system of its own
    if any(m.ring != ring for m in values):
        raise RingMismatch("value matrix ring differs from solve ring")
    dim = range(first.n)
    cells = [[combine([m.entries[r][s] for m in values]) for s in dim] for r in dim]
    return [type(first)(ring, [[cells[r][s][i] for s in dim] for r in dim]) for i in range(n)]

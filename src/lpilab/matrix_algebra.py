"""Matrix test beds: full, upper-triangular and diagonal algebras over the
exact rings, with enumeration, sampling, unit detection and evaluation of
Laurent elements.

Each family is a rule for its free positions, which an Algebra fixes once
at construction. Every matrix the family builds (enumerated, drawn, or
rebuilt to test membership) goes through one placement, Algebra._place,
which puts reduced scalars at positions and zeros everywhere else.

Enumeration order is row-major lexicographic on the free entries. That
order is part of the contract: "first counterexample" stays the same
artifact across runs, so reports can be diffed.
"""

import itertools

from .errors import CapExceeded, NonUnit, PreconditionError, RingMismatch
from .rings import PrimeField, _field_for, _invert_square, _kernel, power, ring_from_descriptor

DEFAULT_CAP = 2**24
DIMENSION_CAP = 6
INT_SAMPLE_BOUND = 9
SAMPLE_RETRIES = 256  # draws before a rejection sampler gives up

# each family's free positions at dimension n, in row-major order
_FAMILIES = {
    "M": lambda n: [(i, j) for i in range(n) for j in range(n)],
    "T": lambda n: [(i, j) for i in range(n) for j in range(i, n)],
    "D": lambda n: [(i, i) for i in range(n)],
}


def _check_cap(cap):
    """Refuse a cap below 1, under which nothing could be enumerated."""
    if cap < 1:
        raise PreconditionError(f"cap must be at least 1, got {cap}")


class Matrix:
    """A square matrix over an exact ring, immutable, its entries a tuple
    of row tuples.

    The public constructor validates: it coerces every entry and checks
    the shape. Arithmetic on valid operands builds its result with
    _trusted instead, since the ring's own operations already made each
    entry and the shape is the operands'.
    """

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring, rows):
        rows = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PreconditionError("matrix must be square and nonempty")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _trusted(cls, ring, rows):
        """The matrix whose entries are rows itself, unchecked: rows must
        be a nonempty square tuple of row tuples of ring-reduced scalars."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "entries", rows)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix._trusted, (self.ring, self.entries)

    def _compatible(self, other):
        if not isinstance(other, Matrix):
            raise PreconditionError(f"expected a Matrix, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatch("matrix rings differ")
        if other.n != self.n:
            raise PreconditionError("matrix dimensions differ")

    def add(self, other):
        self._compatible(other)
        R = self.ring
        pairs = zip(self.entries, other.entries)
        return Matrix._trusted(R, tuple([tuple(map(R.add, r1, r2)) for r1, r2 in pairs]))

    __add__ = add

    def __neg__(self):
        R = self.ring
        return Matrix._trusted(R, tuple([tuple(map(R.neg, row)) for row in self.entries]))

    def __sub__(self, other):
        return self.add(-other)

    def mul(self, other):
        self._compatible(other)
        R = self.ring
        dot = R.dot
        columns = tuple(zip(*other.entries))
        return Matrix._trusted(R, tuple([tuple([dot(row, col) for col in columns])
                                         for row in self.entries]))

    __mul__ = mul

    def scale(self, c):
        R = self.ring
        c = R.coerce(c)
        return Matrix._trusted(R, tuple([tuple([R.mul(c, x) for x in row])
                                         for row in self.entries]))

    def power(self, k):
        return power(self, k, identity(self.ring, self.n))

    def is_zero(self):
        z = self.ring.zero
        return all(x == z for row in self.entries for x in row)

    def one_like(self):
        return identity(self.ring, self.n)

    def zero_like(self):
        return zeros(self.ring, self.n)

    def as_lists(self):
        return [[_plain(x) for x in row] for row in self.entries]

    def format(self):
        return str(self.as_lists()).replace(" ", "")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"Matrix({self.ring!r}, {self.format()})"


def _plain(x):
    # Fraction entries appear only transiently; reports carry ints
    return int(x) if hasattr(x, "denominator") and x.denominator == 1 else x


def identity(ring, n):
    return Matrix(ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)])


def zeros(ring, n):
    return Matrix(ring, [[ring.zero] * n for _ in range(n)])


def matrix_unit(ring, n, i, j):
    """e_ij with 1-based indices, matching the e_12 style of the notation."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise PreconditionError("matrix unit index out of range")
    return Matrix(
        ring,
        [[ring.one if (r, c) == (i - 1, j - 1) else ring.zero for c in range(n)] for r in range(n)],
    )


def parse_matrix(ring, text):
    """Read the literal syntax [[0,1],[0,0]]."""
    import ast  # only here, so that importing the package skips it

    try:
        data = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise PreconditionError(f"bad matrix literal: {text!r}") from exc
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise PreconditionError(f"bad matrix literal: {text!r}")
    return Matrix(ring, data)


def det(m):
    """Cofactor expansion; exact in any ring, fine at the dimensions we cap."""
    n = m.n
    R = m.ring
    if n == 1:
        return m.entries[0][0]

    def expand(rows):
        k = len(rows)
        if k == 1:
            return rows[0][0]
        acc = R.zero
        for j in range(k):
            if rows[0][j] == R.zero:
                continue
            minor = [[row[c] for c in range(k) if c != j] for row in rows[1:]]
            term = R.mul(rows[0][j], expand(minor))
            acc = R.add(acc, term) if j % 2 == 0 else R.sub(acc, term)
        return acc

    return expand([list(r) for r in m.entries])


def mat_inverse(m):
    """The inverse inside the algebra, or None when m is not a unit.

    Gauss-Jordan elimination over the ring's field. Over ZZ that field is
    QQ, and a matrix is a unit exactly when its rational inverse is
    integral.
    """
    R = m.ring
    if R.is_field:
        rows = _invert_square(R, m.entries)
        return None if rows is None else Matrix(R, rows)
    field, lift = _field_for(R)
    rows = _invert_square(field, [[lift(x) for x in row] for row in m.entries])
    if rows is None or any(x.denominator != 1 for row in rows for x in row):
        return None
    return Matrix(R, [[int(x) for x in row] for row in rows])


class Algebra:
    """A named family of matrices: M (full), T (upper triangular) or
    D (diagonal), of a fixed dimension over a fixed ring."""

    __slots__ = ("family", "n", "ring", "_positions")

    def __init__(self, family, n, ring):
        if family not in _FAMILIES:
            raise PreconditionError(f"unknown family {family!r}; use M, T or D")
        if not isinstance(n, int) or not 1 <= n <= DIMENSION_CAP:
            raise PreconditionError(f"dimension must lie in [1, {DIMENSION_CAP}]")
        self.family = family
        self.n = n
        self.ring = ring
        self._positions = tuple(_FAMILIES[family](n))

    def descriptor(self):
        return f"{self.family}{self.n}@{self.ring.descriptor()}"

    def positions(self):
        return list(self._positions)

    def _place(self, values, positions=None):
        """The matrix with values at positions, by default the free ones,
        and zero elsewhere; values must be ring-reduced scalars."""
        n = self.n
        rows = [[self.ring.zero] * n for _ in range(n)]
        for (i, j), v in zip(self._positions if positions is None else positions, values):
            rows[i][j] = v
        return Matrix._trusted(self.ring, tuple(map(tuple, rows)))

    def contains(self, m):
        if not isinstance(m, Matrix) or m.ring != self.ring or m.n != self.n:
            return False
        return m == self._place([m.entries[i][j] for i, j in self._positions])

    def identity(self):
        return identity(self.ring, self.n)

    def zero(self):
        return zeros(self.ring, self.n)

    def size(self):
        if not isinstance(self.ring, PrimeField):
            return None
        return self.ring.p ** len(self._positions)

    def _require_enumerable(self, cap):
        _check_cap(cap)
        size = self.size()
        if size is None:
            raise PreconditionError(
                f"{self.descriptor()} is infinite; enumeration needs a prime field"
            )
        if size > cap:
            raise CapExceeded(
                f"{self.descriptor()} has {size} elements, over the cap {cap}; "
                "use random mode"
            )
        return size

    def enumerate_elements(self, cap=DEFAULT_CAP):
        self._require_enumerable(cap)
        # residues in [0, p) are already reduced
        for vals in itertools.product(range(self.ring.p), repeat=len(self._positions)):
            yield self._place(vals)

    def inverse(self, m):
        """The inverse of m when m is a unit of this algebra, else None."""
        inv = mat_inverse(m)
        return inv if inv is not None and self.contains(inv) else None

    def enumerate_units(self, cap=DEFAULT_CAP):
        for m in self.enumerate_elements(cap):
            if self.inverse(m) is not None:
                yield m

    def enumerate_square_zero(self, cap=DEFAULT_CAP):
        for m in self.enumerate_elements(cap):
            if m.mul(m).is_zero():
                yield m

    def sample_element(self, rng):
        return self._place([self._random_scalar(rng) for _ in self._positions])

    def _random_scalar(self, rng):
        """A random scalar of the ring, already reduced."""
        if isinstance(self.ring, PrimeField):
            return rng.randrange(self.ring.p)
        return self.ring.from_int(rng.randint(-INT_SAMPLE_BOUND, INT_SAMPLE_BOUND))

    def sample_unit(self, rng):
        return self.sample_unit_with_inverse(rng)[0]

    def sample_unit_with_inverse(self, rng):
        """A random unit, drawn as sample_unit draws it, and its inverse."""
        for _ in range(SAMPLE_RETRIES):
            m = self.sample_element(rng)
            inv = self.inverse(m)
            if inv is not None:
                return m, inv
        raise PreconditionError(f"no unit found in {SAMPLE_RETRIES} draws")

    def sample_square_zero(self, rng):
        """A random m with m*m = 0 that lies in the family.

        For the full algebra over a field this uses the rank-one shape
        v * w^T with w^T v = 0, which squares to zero by construction and
        yields the zero matrix when v does. The other families fall back
        to rejection over their strictly upper matrices, which for the
        diagonal family is the zero matrix alone, drawn without a scalar.
        """
        R = self.ring
        n = self.n
        if self.family == "M" and R.is_field:
            v = [self._random_scalar(rng) for _ in range(n)]
            if all(x == R.zero for x in v):
                return self.zero()
            i = next(k for k, x in enumerate(v) if x != R.zero)
            w = [self._random_scalar(rng) for _ in range(n)]
            # w[i] solves w^T v = 0 given the others
            w[i] = R.zero
            w[i] = R.neg(R.mul(R.dot(w, v), R.inv(v[i])))
            m = self._place([R.mul(v[r], w[c]) for r, c in self._positions])
            if not m.mul(m).is_zero():
                raise PreconditionError("square-zero construction failed")
            return m
        upper = [(i, j) for i, j in self._positions if j > i]
        for _ in range(SAMPLE_RETRIES):
            m = self._place([self._random_scalar(rng) for _ in upper], upper)
            if m.mul(m).is_zero():
                return m
        raise PreconditionError(f"no square-zero element found in {SAMPLE_RETRIES} draws")

    def sample_right_annihilator(self, b, rng):
        """A uniform random c in the algebra with b*c = 0. Column j of c,
        read on the rows that positions() frees in it, is a random
        combination of a kernel basis of b restricted to those columns;
        columns with the same free rows share one kernel."""
        R = self.ring
        if not R.is_field:
            raise PreconditionError("random annihilator sampling needs a field")
        kernels = {}
        values, where = [], []
        for j in range(self.n):
            free = tuple(i for i, c in self._positions if c == j)
            if free not in kernels:
                kernels[free] = _kernel(R, [[r[i] for i in free] for r in b.entries], len(free))
            col = [R.zero] * len(free)
            for vec in kernels[free]:
                c = self._random_scalar(rng)
                col = [R.add(x, R.mul(c, v)) for x, v in zip(col, vec)]
            values += col
            where += [(i, j) for i in free]
        return self._place(values, where)


def parse_algebra(text):
    """Read a descriptor like M2@Fp:2 or D3@ZZ."""
    if "@" not in text:
        raise PreconditionError(f"bad algebra descriptor: {text!r}")
    head, _, ringtext = text.partition("@")
    if not (head[:1] in _FAMILIES and head[1:].isascii() and head[1:].isdigit()):
        raise PreconditionError(f"bad algebra descriptor: {text!r}")
    if len(head[1:].lstrip("0")) > len(str(DIMENSION_CAP)):  # int() refuses 4,301 digits
        raise PreconditionError(f"dimension must lie in [1, {DIMENSION_CAP}]")
    return Algebra(head[0], int(head[1:]), ring_from_descriptor(ringtext))


def evaluate(e, assignment, algebra=None):
    """Evaluate a Laurent element at a tuple of matrices.

    The assignment maps x1 to the first matrix and so on; a dict keyed by
    generator index works too. Words with negative exponents need the
    assigned matrix to be a unit, otherwise NonUnit is raised: evaluating
    an inverse at a singular matrix has no meaning in the algebra. The
    value is that of the element's compiled program (LaurentElement.at),
    the one the searches run; the independent re-verifier is
    checkers._plain_eval.
    """
    if not isinstance(assignment, dict):
        assignment = tuple(assignment)
    mats = list(assignment.values()) if isinstance(assignment, dict) else assignment
    for m in mats:
        # through the class, so a first value that is no Matrix is refused too
        Matrix._compatible(mats[0], m)
    if algebra is not None:
        for m in mats:
            if not algebra.contains(m):
                raise PreconditionError("assigned matrix lies outside the algebra")

    def inverse(g, m):
        inv = mat_inverse(m)
        if inv is None:
            raise NonUnit(f"x{g} is assigned a non-unit but appears with a negative exponent")
        if algebra is not None and not algebra.contains(inv):
            raise NonUnit(f"inverse of x{g} leaves the algebra")
        return inv

    return e.at(assignment, inverse)

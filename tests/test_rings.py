import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpilab.errors import PreconditionError, RingMismatch, SolveError
from lpilab.rings import (
    NEG_INF,
    QQ,
    ZZ,
    PrimeField,
    UniPoly,
    _field_for,
    _invert_square,
    _restore,
    embed_into,
    ring_from_descriptor,
    unipoly_eval,
    vandermonde_solve,
)


def test_integer_ring_basics():
    assert ZZ.add(2, 3) == 5
    assert ZZ.mul(-4, 3) == -12
    assert ZZ.is_unit(1) and ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert ZZ.inv(-1) == -1
    with pytest.raises(PreconditionError):
        ZZ.inv(2)


def test_prime_field_reduces_and_inverts():
    f7 = PrimeField(7)
    assert f7.coerce(10) == 3
    assert f7.coerce(-1) == 6
    assert f7.mul(3, 5) == 1
    for a in range(1, 7):
        assert f7.mul(a, f7.inv(a)) == 1
    with pytest.raises(PreconditionError):
        f7.inv(0)


def test_prime_field_rejects_composites_and_bools():
    with pytest.raises(PreconditionError):
        PrimeField(9)
    with pytest.raises(PreconditionError):
        PrimeField(1)
    # 2**31 + 1 = 3 * 715827883 while 2**31 - 1 is prime; the test exercises
    # the primality check well past trial-division toy sizes
    with pytest.raises(PreconditionError):
        PrimeField(2**31 + 1)
    PrimeField(2**31 - 1)
    with pytest.raises(RingMismatch):
        PrimeField(2).coerce(True)


def test_ring_descriptors_round_trip():
    assert ring_from_descriptor("ZZ") == ZZ
    assert ring_from_descriptor("Fp:101") == PrimeField(101)
    assert ring_from_descriptor("Fp:101").descriptor() == "Fp:101"
    for bad in ("F:2", "Fp:", "Fp:x", "GF(2)", ""):
        with pytest.raises(PreconditionError):
            ring_from_descriptor(bad)


def test_embed_into():
    emb = embed_into(ZZ, PrimeField(5))
    assert emb(7) == 2
    assert emb(-1) == 4
    same = embed_into(ZZ, ZZ)
    assert same(42) == 42
    with pytest.raises(RingMismatch):
        embed_into(PrimeField(3), PrimeField(5))


def test_unipoly_degree_and_zero():
    z = UniPoly(ZZ)
    assert z.is_zero()
    assert z.degree is NEG_INF
    assert NEG_INF < 0 and NEG_INF < -10**9
    p = UniPoly(ZZ, [1, 0, 0])  # trailing zeros stripped
    assert p.degree == 0
    assert UniPoly.x_power(ZZ, 3).degree == 3


def test_unipoly_arithmetic():
    p = UniPoly(ZZ, [1, 2])        # 1 + 2X
    q = UniPoly(ZZ, [0, 0, 3])     # 3X^2
    assert (p + q).coeff(2) == 3
    assert (p * q).degree == 3
    assert (p * q).coeff(3) == 6
    assert (p - p).is_zero()
    assert p.format() == "2*X + 1"
    assert UniPoly(ZZ, [0, -1, 1]).format() == "X^2 - X"
    with pytest.raises(RingMismatch, match="not UniPolys over one ring"):
        p + UniPoly(PrimeField(7), [1])
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    assert pickle.loads(pickle.dumps(p)) == p


class RefUniPoly:
    """The coefficient-tuple polynomial UniPoly was before it became a
    FormalSum, kept as the reference for the property below."""

    def __init__(self, ring, coeffs=()):
        coeffs = [ring.coerce(c) for c in coeffs]
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        R = self.ring
        return RefUniPoly(R, [R.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        R = self.ring
        return RefUniPoly(R, [R.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        return RefUniPoly(self.ring, [self.ring.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        R = self.ring
        if not self.coeffs or not other.coeffs:
            return RefUniPoly(R)
        out = [R.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
        return RefUniPoly(R, out)

    def __eq__(self, other):
        return other.ring == self.ring and other.coeffs == self.coeffs

    def format(self):
        R, parts = self.ring, []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == R.zero:
                continue
            neg = R.is_neg(c)
            mag = R.neg(c) if neg else c
            mono = None if i == 0 else "X" if i == 1 else f"X^{i}"
            if mono is None:
                body = R.format(mag)
            elif mag == R.one:
                body = mono
            else:
                body = f"{R.format(mag)}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts) or "0"


@st.composite
def unipoly_cases(draw):
    """A ring, two coefficient lists (the second sometimes the first, so
    differences cancel), and a scalar."""
    ring = draw(st.sampled_from([ZZ, PrimeField(2), PrimeField(7)]))
    coeffs = st.lists(st.integers(-4, 4), max_size=6)
    a = draw(coeffs)
    b = draw(st.one_of(coeffs, st.just(a)))
    return ring, a, b, draw(st.integers(-4, 4))


@settings(max_examples=300, deadline=None)
@given(unipoly_cases())
def test_unipoly_matches_the_coefficient_tuple_reference(case):
    from lpilab.matrix_algebra import Matrix

    R, a, b, v = case
    x, y = UniPoly(R, a), UniPoly(R, b)
    rx, ry = RefUniPoly(R, a), RefUniPoly(R, b)
    pairs = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (-x, -rx), (x * y, rx * ry)]
    m = Matrix(R, [[v, 1], [a[0] if a else 0, 2]])
    for got, ref in pairs:
        assert got.coeffs == ref.coeffs and got.degree == ref.degree
        assert [got.coeff(i) for i in range(-1, 12)] == [ref.coeff(i) for i in range(-1, 12)]
        assert got.format() == ref.format()
        assert unipoly_eval(got, v, R) == unipoly_eval(ref, v, R)
        assert unipoly_eval(got, m) == unipoly_eval(ref, m)
        assert R.zero not in got.terms.values()
        assert got == UniPoly(R, got.coeffs) and hash(got) == hash(UniPoly(R, got.coeffs))
    assert (x == y) == (rx == ry)


def test_unipoly_eval_scalar_and_matrix():
    from lpilab.matrix_algebra import Matrix

    g = UniPoly(ZZ, [2, 0, 1])  # 2 + X^2
    assert unipoly_eval(g, 3, ZZ) == 11
    f5 = PrimeField(5)
    m = Matrix(f5, [[1, 1], [0, 1]])
    val = unipoly_eval(g, m)
    expect = m.mul(m).add(m.one_like().scale(f5.from_int(2)))
    assert val == expect


def test_vandermonde_solve_scalars():
    f101 = PrimeField(101)
    # p0 + p1 x + p2 x^2 through three points
    target = [f101.coerce(c) for c in (7, 3, 90)]

    def ev(x):
        acc = f101.zero
        for c in reversed(target):
            acc = f101.add(f101.mul(acc, x), c)
        return acc

    pts = [f101.coerce(x) for x in (1, 2, 3)]
    sol = vandermonde_solve(f101, pts, [ev(x) for x in pts])
    assert sol == target


def test_vandermonde_solve_rejects_bad_input():
    with pytest.raises(PreconditionError):
        vandermonde_solve(ZZ, [1, 1], [0, 0])
    with pytest.raises(PreconditionError):
        vandermonde_solve(ZZ, [1, 2], [0])
    # c0 = 1, c0 + 2*c1 = 2 forces c1 = 1/2, which ZZ cannot represent
    with pytest.raises(SolveError):
        vandermonde_solve(ZZ, [0, 2], [1, 2])


def test_vandermonde_solve_integer_lift():
    # integral data with integral solution passes through QQ and back
    sol = vandermonde_solve(ZZ, [1, 2, 3], [6, 11, 18])
    assert sol == [3, 2, 1]
    assert all(isinstance(c, int) for c in sol)


def test_vandermonde_matrix_values():
    from lpilab.matrix_algebra import Matrix

    f11 = PrimeField(11)
    a = Matrix(f11, [[1, 2], [3, 4]])
    b = Matrix(f11, [[0, 1], [1, 0]])
    pts = [f11.coerce(x) for x in (1, 2, 3)]
    values = []
    for x in pts:
        x2 = f11.mul(x, x)
        values.append(a.scale(x).add(b.scale(x2)).add(a.one_like()))
    sol = vandermonde_solve(f11, pts, values)
    assert sol == [a.one_like(), a, b]


def ref_vandermonde_solve(ring, points, values):
    """The solve by inverse and multiply, the reference for the one row
    reduction of vandermonde_solve: invert V, then multiply V^-1 into the
    values, one matrix entry position at a time."""
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
    if any(m.ring != ring for m in values):
        raise RingMismatch("value matrix ring differs from solve ring")
    dim = range(first.n)
    cells = [[combine([m.entries[r][s] for m in values]) for s in dim] for r in dim]
    return [type(first)(ring, [[cells[r][s][i] for s in dim] for r in dim]) for i in range(n)]


@st.composite
def vandermonde_cases(draw):
    """A ring, 1 to 6 distinct points, and the values at them of components
    that are scalars or 2x2 or 3x3 matrices; sometimes one value entry is
    moved, which over ZZ mostly leaves a component non-integral."""
    from lpilab.matrix_algebra import Matrix

    ring = draw(st.sampled_from([ZZ, PrimeField(7), PrimeField(101)]))
    span = range(-5, 6) if ring == ZZ else range(ring.p)
    points = draw(st.lists(st.sampled_from(span), min_size=1, max_size=6, unique=True))
    dim = draw(st.sampled_from([None, 2, 3]))
    entry = st.integers(-9, 9)
    if dim is None:
        components = [ring.coerce(draw(entry)) for _ in points]
    else:
        components = [Matrix(ring, [[draw(entry) for _ in range(dim)] for _ in range(dim)])
                      for _ in points]
    values = []
    for x in points:
        # Horner from the last component: c0 + x (c1 + x (c2 + ...))
        acc = components[-1]
        for c in reversed(components[:-1]):
            acc = (ring.add(c, ring.mul(ring.coerce(x), acc)) if dim is None
                   else c.add(acc.scale(x)))
        values.append(acc)
    moved = draw(st.booleans())
    if moved:
        j = draw(st.integers(0, len(points) - 1))
        if dim is None:
            values[j] = ring.add(values[j], ring.one)
        else:
            rows = [list(row) for row in values[j].entries]
            rows[0][dim - 1] = ring.add(rows[0][dim - 1], ring.one)
            values[j] = Matrix(ring, rows)
    return ring, points, values, None if moved else components


def _solved(solve, ring, points, values):
    try:
        return solve(ring, points, values)
    except SolveError as e:
        return "SolveError", str(e)


@settings(max_examples=300, deadline=None)
@given(vandermonde_cases())
def test_vandermonde_solve_matches_the_inverse_then_multiply_reference(case):
    ring, points, values, components = case
    solved = _solved(vandermonde_solve, ring, points, values)
    assert solved == _solved(ref_vandermonde_solve, ring, points, values)
    if components is not None:
        assert solved == components


def test_ring_axioms_seeded():
    """Associativity, commutativity of +, distributivity on random triples."""
    rng = random.Random(20260816)
    rings = [ZZ, QQ, PrimeField(2), PrimeField(101)]
    for _ in range(2000):
        R = rng.choice(rings)
        if R == QQ:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        elif R == ZZ:
            draw = lambda: rng.randint(-50, 50)
        else:
            draw = lambda: rng.randrange(R.p)
        a, b, c = draw(), draw(), draw()
        assert R.add(a, R.add(b, c)) == R.add(R.add(a, b), c)
        assert R.mul(a, R.mul(b, c)) == R.mul(R.mul(a, b), c)
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.add(a, R.neg(a)) == R.zero
        assert R.mul(a, R.one) == R.coerce(a)

"""Verification engines: identity checks, nil-exponent searches, minimal
polynomials, Vandermonde component extraction, the finite/infinite
annihilator dichotomy, derived bounds and the S3 expansion report.

Every search has one shape. `_draws` produces the candidates, either the
canonical enumeration (exhaustive mode) or seeded samples (random mode);
`_first_hit` stops at the first violation and counts the evaluations up
to it; and `_counterexample` is the only code that builds a counterexample
Verdict. It refuses a missing witness and raises SolveError unless an
evaluator the search did not use reproduces the hit. The one rule is that
search and confirmation never use the same evaluator:

- every identity search runs one compiled program, built from the
  element by `group_algebra._staged_program`: on the index tables in
  exhaustive mode, on matrices or quotient elements in random mode.
  `evaluate` and `q_evaluate` run the same program through
  `LaurentElement.at`, and an exhaustive hit takes its reported value
  from `evaluate`. All these hits are confirmed by `_plain_eval`, a
  term-by-term fold with no tables, no programs and no power or inverse
  caches. It must stay apart from the programs: a defect in them would
  otherwise reproduce itself in the confirmation;
- group identities w = 1 are the identity search of 1 - w over the units,
  so their hits are confirmed as the hits above are;
- the nil searches recompute their witnesses with matrix products taken
  in a different order, and powers taken another way, than the search.

Exhaustive scans enumerate tuples in row-major order over the canonical
element enumeration and report the first violation, which makes verdicts
reproducible and independent of how the work is partitioned: with several
workers each contiguous chunk of the first variable reports its earliest
hit, and evaluations are counted only up to the first chunk with a hit.
The parent forks one child per chunk but the first and scans the first
chunk itself. A forked child reads the parent's tables and element as
they are, so nothing is built or pickled again; it sends back only its
hit and count, marshalled through a pipe. The parent reads the chunks in
order and stops at the first hit, and it kills and reaps every child it
has not read, so no process outlives the scan. Without os.fork the scan
runs in one process, which gives the same verdict.
One sweep, `_scan`, owns that order for every element. At each tuple it
computes the element's value exactly, by the element's staged program,
which computes each sub-polynomial once per tuple of the variables it
reads rather than at every leaf. The innermost variable is resolved a
row at a time. When every word of the element holds the last variable
at most once, and only as x^1, the value is an affine function f of
that variable, so f(x + e_t) = f(x) + f(e_t) - f(0) for each basis
element e_t. An index is a sum of digit times e_t, so the row of N
values follows from f(0) and the L values f(e_t) by the recurrence that
builds the tables' mul rows: L + 1 evaluations instead of N, and none
past f(0) when all of them are zero. Other elements are evaluated at
every position of the row. Either way the count is the hit's position
in canonical order, so the row changes neither witness nor count.
"""

import functools
import itertools
import marshal
import os
import random
import time
from collections import namedtuple

from .errors import CapExceeded, LpiLabError, PreconditionError, SolveError
from .freegroup import Word
from .group_algebra import (LaurentElement, _staged_program, _value_ops, gi_to_lpi,
                             standard_polynomial)
from .matrix_algebra import (
    DEFAULT_CAP,
    Algebra,
    Matrix,
    evaluate,
    identity,
    mat_inverse,
    matrix_unit,
)
from .quotient_algebra import QuotientElement, q_evaluate, sample_element
from .rings import UniPoly, ZZ, _field_for, _kernel, embed_into, unipoly_eval, vandermonde_solve

TABLE_CAP = 1024
DEFAULT_BUDGET = 1000


class Verdict:
    """The outcome of a check, with its witness, evaluation count, mode,
    seed, timing and details. A plain class rather than a dataclass, so
    that importing the package does not import dataclasses."""

    _FIELDS = ("outcome", "witness", "evaluations", "mode", "seed", "elapsed_ms", "details")
    __hash__ = None  # mutable and compared by value

    def __init__(self, outcome, witness=None, evaluations=0, mode="exhaustive", seed=None,
                 elapsed_ms=0, details=None):
        self.outcome = outcome
        self.witness = witness
        self.evaluations = evaluations
        self.mode = mode
        self.seed = seed
        self.elapsed_ms = elapsed_ms
        self.details = {} if details is None else details

    def _values(self):
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"Verdict({fields})"

    def holds(self):
        return self.outcome == "holds"


def _verdict(outcome, t0, **kw):
    return Verdict(outcome=outcome, elapsed_ms=int((time.monotonic() - t0) * 1000), **kw)


# ---------------------------------------------------------------------------
# the search layer


def _check_search(mode, budget, workers=1):
    """The only place that accepts or rejects a search's mode, random
    budget and worker count. A random search needs a budget of at least
    one draw: with none it would report holds having looked at nothing.
    Searches with an early answer call it before giving that answer."""
    if mode not in ("exhaustive", "random"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "random" and budget < 1:
        raise PreconditionError(f"random mode needs a budget of at least 1, got {budget}")
    if workers < 1:
        raise PreconditionError(f"workers must be at least 1, got {workers}")


def _draws(mode, exhaustive, sample, budget, seed):
    """The candidate stream of a search: exhaustive() in canonical order,
    or sample(rng) drawn budget times from a generator seeded with seed."""
    _check_search(mode, budget)
    if mode == "exhaustive":
        return exhaustive()
    # string-seeding goes through a stable hash, so substreams derived as
    # f"{seed}/{i}" reproduce across runs and platforms
    rng = random.Random(seed)
    return (sample(rng) for _ in range(budget))


def _first_hit(draws):
    """Walk (hit, evaluations) draws, hit being None for a miss, to the
    first hit. Returns that hit (None when all miss) and the evaluations
    spent up to and including it, so an exhaustive count is the hit's
    position in canonical order."""
    evaluations = 0
    for hit, count in draws:
        evaluations += count
        if hit is not None:
            return hit, evaluations
    return None, evaluations


def _nonzero_at(run, assignment):
    """One draw of a vanishing search: the witness when run, an element's
    compiled program, does not give zero at the assignment, else None."""
    value = run(assignment)
    return (None if value.is_zero() else {"assignment": assignment, "value": value}), 1


def _reproduced_by(evaluator, e):
    """A confirmation: the evaluator gives the witness's nonzero value."""
    return lambda w: not w["value"].is_zero() and evaluator(e, w["assignment"]) == w["value"]


def _counterexample(t0, witness, confirm, **kw):
    """The only code that builds a counterexample Verdict. The witness must
    exist and confirm, which uses an evaluator the search did not, must
    reproduce it; anything else is an implementation bug."""
    if witness is None:
        raise SolveError("counterexample without a witness; implementation bug")
    if not confirm(witness):
        raise SolveError("search and re-verification disagree; implementation bug")
    return _verdict("counterexample", t0, witness=witness, **kw)


def _search_verdict(t0, witness, confirm, mode, seed, evaluations, details):
    """holds, noting when only random samples were searched, or a confirmed
    counterexample."""
    if witness is None:
        if mode == "random":
            details["note"] = "random search only"
        return _verdict("holds", t0, mode=mode, seed=seed, evaluations=evaluations,
                        details=details)
    return _counterexample(t0, witness, confirm, mode=mode, seed=seed,
                           evaluations=evaluations, details=details)


def _plain_eval(e, assignment):
    """Evaluate e at an assignment {generator: Matrix or QuotientElement}
    term by term, with nothing but mul, add, scale and, for negative
    exponents of a matrix, mat_inverse: no tables and no power or inverse
    caches. It confirms the hits of the compiled programs, so search and
    confirmation never share an evaluation loop."""
    some = next(iter(assignment.values()))
    emb = embed_into(e.ring, some.ring)
    total = some.zero_like()
    for w, c in e.terms.items():
        prod = some.one_like()
        for g, x in w.syllables:
            m = assignment[g]
            if x < 0:
                m = mat_inverse(m) if isinstance(m, Matrix) else None
                if m is None:
                    raise PreconditionError(f"x{g} has no inverse for its negative exponent")
                x = -x
            # square-and-multiply from the top bit down, at most 2*log2(x) + 1
            # products; not rings.power, which runs from the bottom bit up, so
            # the re-verifier shares no power routine with what it confirms
            p = m
            for bit in bin(x)[3:]:
                p = p.mul(p)
                if bit == "1":
                    p = p.mul(m)
            prod = prod.mul(p)
        total = total.add(prod.scale(emb(c)))
    return total


# ---------------------------------------------------------------------------
# index tables


def _linear_row(start, steps, p):
    """The row r of length p**len(steps) with r[0] = start and
    r[b] = steps[t][r[b - p**t]] for p**t <= b < p**(t+1), so t is the
    place of b's highest nonzero base-p digit and b - p**t lowers that
    digit by one. Each block of p**t entries thus comes from the block
    before it in one pass. The row is allocated at its final length."""
    row = [start] * p ** len(steps)
    w = 1
    for step in steps:
        get = step.__getitem__
        for b in range(w, p * w, w):
            row[b:b + w] = map(get, row[b - w:b])
        w *= p
    return row


class _Tables:
    """A finite algebra flattened to integer indices.

    Products, sums and negations become single list lookups, which is what
    lets pure Python sweep tens of thousands of tuples in a second.

    An index is the base-p number whose L digits are the element's free
    entries in `Algebra.positions()` order, the first position most
    significant, which is the order of `enumerate_elements`. The zero
    matrix is index 0, and index p**t is the basis element e_t whose one
    nonzero entry is a 1 in free position L - 1 - t. Sums are digit-wise
    additions mod p, so a row of `add` follows from bumping one digit at a
    time. b -> a*b is linear, so a row of `mul` needs only the L products
    a*e_t: a*b = a*(b - p**t) + a*e_t. a -> a*e_t is linear as well, so
    the column of the products a*e_t over every a follows in the same way
    from the L products e_s*e_t. Building the tables therefore costs L**2
    matrix products and O(N**2) list steps. `p` and the basis indices
    `weights` stay, so that `_scan` builds the rows of an affine element by
    the same recurrence. `neg` is read off `add`, and `inverse` off `mul`:
    in a finite-dimensional algebra a one-sided inverse is two-sided, so a
    is a unit of the algebra exactly when its `mul` row holds the identity.
    Every entry is an item of one shared list of the N indices.
    """

    def __init__(self, algebra, cap=DEFAULT_CAP):
        size = algebra._require_enumerable(cap)
        if size > TABLE_CAP:
            raise CapExceeded(f"{algebra.descriptor()} needs {size} elements indexed; "
                              f"table cap is {TABLE_CAP}; use random mode")
        self.algebra = algebra
        self.ring = algebra.ring
        self.elements = list(algebra.enumerate_elements(cap))
        n = len(self.elements)
        ids = list(range(n))
        self.index = dict(zip(self.elements, ids))
        self.p = p = algebra.ring.p
        # weights[t] = p**t, the index of the basis element e_t
        self.weights = weights = [ids[p**t] for t in range(len(algebra.positions()))]
        # bumps[t][x]: x with its digit of weight p**t raised by one, mod p
        bumps = [[ids[x - (p - 1) * w if x // w % p == p - 1 else x + w] for x in ids]
                 for w in weights]
        self.add = [_linear_row(ids[a], bumps, p) for a in ids]
        basis = [self.elements[w] for w in weights]
        self.zero = ids[0]
        # columns[t][a] = a*e_t, from the products of the basis
        columns = [_linear_row(self.zero, [self.add[self.index[s.mul(t)]] for s in basis], p)
                   for t in basis]
        self.mul = [_linear_row(self.zero, [self.add[col[a]] for col in columns], p)
                    for a in ids]
        self.neg = [ids[row.index(self.zero)] for row in self.add]
        self.one = self.index[algebra.identity()]
        self.inverse = [ids[row.index(self.one)] if self.one in row else None
                        for row in self.mul]
        self.units = [i for i in ids if self.inverse[i] is not None]
        self.n = n

    def scalar_index(self, ring_value):
        return self.index[self.algebra.identity().scale(ring_value)]


# ---------------------------------------------------------------------------
# the exhaustive scan


def _affine_in(e, g):
    """Whether every word of e holds the generator g at most once, and only
    as g^1, so that e's value is an affine function of g's value."""
    for w in e.terms:
        exponents = [x for h, x in w.syllables if h == g]
        if exponents and exponents != [1]:
            return False
    return True


def _scan(tb, e, ground, outer_range):
    """Sweep ground**nvars in lexicographic order, returning the first tuple
    of indices where e evaluates to nonzero (None when there is none) and
    the evaluation count, the hit's position in that order. outer_range
    restricts the first variable's positions within ground, so workers can
    split the space without changing the order.

    The recursion enters the variables but the last; a leaf then resolves
    the last variable's whole row. When e is affine in the last variable
    the leaf enters only index 0 and the L basis indices and builds the
    row from them by linearity, as _Tables builds its mul rows; otherwise
    it enters every position in turn. Both leaves count every position up
    to the hit, so the count does not depend on the leaf."""
    nvars, enter, value = _staged_program(tb, e)
    ZERO = tb.zero
    if nvars == 0:
        # constant element: one trivial evaluation decides everything
        return (() if value() != ZERO else None), 1
    assign = [0] * nvars
    last = nvars - 1
    evaluations = 0
    ADD, NEG, p, basis = tb.add, tb.neg, tb.p, tb.weights

    def by_position(positions):
        for count, pos in enumerate(positions, 1):
            enter(last, ground[pos])
            if value() != ZERO:
                return pos, count
        return None, len(positions)

    def by_row(positions):
        # index b is the sum of digit_t * e_t, and f(x + e_t) = f(x) + f(e_t) - f(0)
        enter(last, ZERO)
        f0 = value()
        images = []
        for b in basis:
            enter(last, b)
            images.append(value())
        # index 0 is zero, the only false index: the identity holds on the row
        if not f0 and not any(images):
            return None, len(positions)
        minus_f0 = NEG[f0]
        row = _linear_row(f0, [ADD[ADD[f][minus_f0]] for f in images], p)
        values = map(row.__getitem__, ground[positions.start:positions.stop])
        pos = next(itertools.compress(positions, values), None)
        return pos, len(positions) if pos is None else positions.index(pos) + 1

    leaf = by_row if _affine_in(e, max(e.variables())) else by_position

    def rec(d, positions):
        nonlocal evaluations
        if d == last:
            pos, count = leaf(positions)
            evaluations += count
            if pos is None:
                return False
            assign[d] = ground[pos]
            return True
        for pos in positions:
            idx = ground[pos]
            assign[d] = idx
            enter(d, idx)
            if rec(d + 1, everywhere):
                return True
        return False

    everywhere = range(len(ground))
    return (tuple(assign) if rec(0, outer_range) else None), evaluations


def _scan_in_child(scan, outer_range, write_end):
    """The whole life of a forked child: scan the range and write
    marshal.dumps((True, (hit, count))), or (False, "Type: message") when
    the scan raised, to the pipe. It leaves through os._exit, so it never
    returns into the parent's code, runs none of its exit handlers and
    flushes none of its buffers."""
    status = 1
    try:
        try:
            result = True, scan(outer_range)
        except Exception as exc:  # handed to the parent, which raises it
            result = False, f"{type(exc).__name__}: {exc}"
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _forked_scans(scan, ranges):
    """scan(r) for the ranges in order, up to and including the first
    result with a hit. This process forks a child for every range but the
    first and scans the first range itself. It then reads the children in
    order and stops at the first hit; the children it has not reaped when
    it returns or raises, whether at a hit, an error or an interrupt, are
    killed and reaped. A child that raised, or died without a result,
    raises LpiLabError here."""
    children = []  # [pid or None, read end of its pipe], in range order
    try:
        for r in ranges[1:]:
            read_end, write_end = os.pipe()
            child = [None, open(read_end, "rb")]
            children.append(child)
            try:
                child[0] = os.fork()
                if child[0] == 0:
                    _scan_in_child(scan, r, write_end)
            finally:
                os.close(write_end)
        results = [scan(ranges[0])]
        for child in children:
            if results[-1][0] is not None:
                break
            pid, pipe = child
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            child[0] = None
            if not data:
                raise LpiLabError(f"a scan worker exited without a result "
                                  f"(exit code {os.waitstatus_to_exitcode(status)})")
            ok, result = marshal.loads(data)
            if not ok:
                raise LpiLabError(f"a scan worker raised {result}")
            results.append(result)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _run_scan(algebra, e, ground_kind, cap, workers):
    """Scan the tuple space on the tables. Returns the (hit, evaluations)
    pair of each chunk in canonical order, up to the first chunk with a
    hit, a hit being a tuple of matrices, plus the ground size and the
    tuple space. Chunks split the first variable's positions into
    contiguous ranges, so the first chunk with a hit holds the earliest
    one. With several workers the chunks run in forked children of this
    process, on these very tables."""
    tb = _Tables(algebra, cap)
    ground = tb.units if ground_kind == "units" else list(range(tb.n))
    nvars = len(e.variables())
    space = len(ground) ** nvars if nvars else 1
    if space > cap:
        raise CapExceeded(
            f"tuple space {space} exceeds the cap {cap}; lower the dimension or use random mode"
        )
    scan = functools.partial(_scan, tb, e, ground)
    # one process per CPU at most, and one in all without os.fork: the
    # verdict does not depend on the split
    workers = min(workers, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers > 1 and len(ground) >= workers and nvars > 0:
        bounds = [round(i * len(ground) / workers) for i in range(workers + 1)]
        ranges = [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
        chunks = _forked_scans(scan, ranges)
    else:
        chunks = [scan(range(len(ground)))]
    E = tb.elements
    chunks = [(None if hit is None else tuple(E[i] for i in hit), count)
              for hit, count in chunks]
    return chunks, len(ground), space


# ---------------------------------------------------------------------------
# identity checks


def _identity_search(t0, algebra, e, ground_kind, mode, budget, seed, cap, workers,
                     details):
    """The search behind check_lpi, al_verify and check_group_identity: the
    table sweep in exhaustive mode, whose hit takes its value from
    evaluate, or in random mode e's program compiled once over the
    algebra's matrices and run at seeded samples. Either way _plain_eval
    must reproduce the witness's value."""
    _check_search(mode, budget, workers)
    vars_sorted = sorted(e.variables())

    def scan():
        chunks, ground_size, space = _run_scan(algebra, e, ground_kind, cap, workers)
        details.update(ground=ground_kind, ground_size=ground_size, tuple_space=space)
        for hit, count in chunks:
            if hit is not None:
                assignment = dict(zip(vars_sorted, hit))
                hit = {"assignment": assignment, "value": evaluate(e, assignment)}
            yield hit, count

    if mode == "random":
        inverses, run = e.compiled(algebra.identity())

    def draw(rng):
        if ground_kind == "elements":
            return algebra.sample_element(rng)
        # the unit comes with the inverse that its test computed
        m, inv = algebra.sample_unit_with_inverse(rng)
        inverses[m] = inv
        return m

    def sample(rng):
        inverses.clear()  # only this sample's units, so the map stays small
        return _nonzero_at(run, {g: draw(rng) for g in vars_sorted})

    witness, evaluations = _first_hit(_draws(mode, scan, sample, budget, seed))
    return _search_verdict(t0, witness, _reproduced_by(_plain_eval, e), mode, seed,
                           evaluations, details)


def check_lpi(algebra, e, mode="exhaustive", budget=DEFAULT_BUDGET, seed=None,
              cap=DEFAULT_CAP, workers=1):
    """Does e vanish on every tuple over the algebra?

    Words with negative exponents confine the ground set to the units,
    since nothing else can be substituted there; the verdict records which
    ground set was used. Exhaustive mode sweeps tuples in canonical order;
    random mode draws seeded samples and can only ever report holds in the
    weak empirical sense.
    """
    t0 = time.monotonic()
    _check_search(mode, budget, workers)
    if e.is_zero():
        return _verdict("holds", t0, mode=mode, seed=seed,
                        details={"note": "zero element vanishes identically"})
    ground_kind = "units" if e.has_negative_exponent() else "elements"
    emb = embed_into(e.ring, algebra.ring)
    csum = emb(e.coefficient_sum())
    if csum != algebra.ring.zero:
        ident = algebra.identity()
        assignment = {g: ident for g in (sorted(e.variables()) or [1])}
        return _counterexample(
            t0, {"assignment": assignment, "value": evaluate(e, assignment)},
            _reproduced_by(_plain_eval, e), mode=mode, seed=seed, evaluations=1,
            details={
                "ground": ground_kind,
                "prefilter": "coefficient sum is nonzero, the identity tuple violates",
            },
        )
    return _identity_search(t0, algebra, e, ground_kind, mode, budget, seed, cap, workers,
                            {"ground": ground_kind})


def al_verify(n, p, mode="exhaustive", budget=DEFAULT_BUDGET, seed=None,
              cap=DEFAULT_CAP, workers=1):
    """Check the standard identity S_2n on n-by-n matrices over F_p."""
    t0 = time.monotonic()
    from .rings import PrimeField

    algebra = Algebra("M", n, PrimeField(p))
    k = 2 * n
    return _identity_search(t0, algebra, standard_polynomial(k, algebra.ring), "elements",
                            mode, budget, seed, cap, workers, {"identity": f"S_{k}"})


def check_group_identity(algebra, w, mode="exhaustive", budget=DEFAULT_BUDGET,
                         seed=None, cap=DEFAULT_CAP):
    """Does the word evaluate to the identity matrix on every unit tuple?

    w = 1 holds on the units exactly when 1 - w vanishes on every unit
    tuple, so this is the identity search of 1 - w with the units as ground
    set, whatever the signs of w's exponents. The witness value is w's
    value, 1 minus the confirmed value of 1 - w."""
    t0 = time.monotonic()
    _check_search(mode, budget)
    if w.is_identity():
        return _verdict("holds", t0, mode=mode, seed=seed,
                        details={"note": "empty word is trivially the identity"})
    v = _identity_search(t0, algebra, gi_to_lpi(w), "units", mode, budget, seed, cap, 1, {})
    if mode == "exhaustive":
        v.details = {"units": v.details["ground_size"]}
    if v.witness is not None:
        v.witness["value"] = algebra.identity() - v.witness["value"]
    return v


# ---------------------------------------------------------------------------
# algebraicity and nil machinery


def minimal_polynomial(m):
    """The monic least-degree polynomial killing the matrix.

    The powers I, m, ..., m^n, flattened, are the columns of a matrix. Its
    first kernel vector has its 1 at the least dependent power k and zeros
    past it, so it holds the coefficients of m^k - sum_{i<k} c_i m^i = 0.
    Integer matrices route through the rationals and come back integral
    (monic divisors of monic integer polynomials are integer polynomials).
    """
    R = m.ring
    field, lift = _field_for(R)
    n = m.n
    powers = [identity(R, n)]
    for _ in range(n):
        powers.append(powers[-1].mul(m))
    rows = [[lift(p.entries[i][j]) for p in powers] for i in range(n) for j in range(n)]
    kernel = _kernel(field, rows, n + 1)
    if not kernel:
        raise SolveError("no dependency up to degree n; implementation bug")
    coeffs = kernel[0]  # UniPoly drops the zeros past the 1
    if R == ZZ:
        if any(c.denominator != 1 for c in coeffs):
            raise SolveError("minimal polynomial not integral; implementation bug")
        coeffs = [int(c) for c in coeffs]
    return UniPoly(R, coeffs)


def _nil_index(ops, idx, bound):
    """Least k <= bound with idx**k = 0 under ops, the tables or the
    matrices' _value_ops, else None."""
    MUL, ZERO = ops.mul, ops.zero
    acc = idx
    k = 1
    while k <= bound:
        if acc == ZERO:
            return k
        acc = MUL[acc][idx]
        k += 1
    return None


# The survey of one row of products bac*u, u = 0, 1, ...: its size, how
# many are not nilpotent and the first such u, its largest nil index and
# the first u at it, and the first u past m_max. A position is None when
# the row has no such u.
_NilRow = namedtuple("NilRow", "size non_nilpotent first_bad top top_u first_over")


def _nil_row(indices, bound):
    """The _NilRow of a row of nil indices, None for a product that is not
    nilpotent, with m_max = bound."""
    nilpotent = [k for k in indices if k is not None]
    top = max(nilpotent, default=None)
    return _NilRow(
        size=len(indices),
        non_nilpotent=len(indices) - len(nilpotent),
        first_bad=None if len(nilpotent) == len(indices) else indices.index(None),
        top=top,
        top_u=None if top is None else indices.index(top),
        first_over=next((u for u, k in enumerate(indices) if k is not None and k > bound),
                        None),
    )


def nil_exponent_search(algebra, m_max=None, mode="exhaustive", budget=DEFAULT_BUDGET,
                        seed=None, cap=DEFAULT_CAP):
    """Search the ground set a^2 = bc = 0 for the nil behavior of bacA.

    Every product bac*u is classified: nilpotent ones contribute their nil
    index, and the least m bounding all of those is reported. Products
    that are not nilpotent at all (the dimension bounds the index of any
    nilpotent matrix, so this is decidable) are counted and the first one
    becomes a counterexample witness: no m works for them, which is
    exactly the situation the e11 example warns about. The verdict is
    holds only when every product was nilpotent within m_max; otherwise
    the first product that is not nilpotent, or else the first past m_max,
    is the witness. Random mode runs the same survey over seeded samples.

    Exhaustive mode classifies a row at a time. The nil index of bac*u
    depends only on the product's index MUL[bac][u], so the row of
    products bac*u, u in canonical order, depends on bac alone. Each
    distinct bac is surveyed once (a _NilRow), from nil indices computed
    once per element, and each triple (a, b, c) in canonical order folds
    its row's survey. That fold is the per-quadruple one, exactly: counts
    add up; the first product that is not nilpotent, or past m_max, is the
    first such u of the first row that has one; and a row whose largest
    index exceeds the running minimal m raises it to that index, with the
    first u at it as index witness, which is where that row's last update
    one product at a time would land. A random sample is a row of one.
    Only the quadruples that become witnesses are built as matrices.
    """
    t0 = time.monotonic()
    n = algebra.n
    bound = n if m_max is None else min(m_max, n) if m_max >= 1 else None
    if bound is None:
        raise PreconditionError("m_max must be >= 1")
    hard_bound = n  # nilpotence is settled at the dimension
    details = {}

    def rows():
        tb = _Tables(algebra, cap)
        sq0 = [i for i in range(tb.n) if tb.mul[i][i] == tb.zero]
        pairs = [
            (b, c)
            for b in range(tb.n)
            for c in range(tb.n)
            if tb.mul[b][c] == tb.zero
        ]
        total = len(sq0) * len(pairs) * tb.n
        if total > cap:
            raise CapExceeded(f"{total} quadruples exceed the cap {cap}")
        details.update(square_zero=len(sq0), annihilating_pairs=len(pairs))
        E, MUL = tb.elements, tb.mul
        indices = [_nil_index(tb, v, hard_bound) for v in range(tb.n)]
        surveys = {}

        def quad_at(a, b, c, u):
            bac = MUL[MUL[b][a]][c]
            return E[a], E[b], E[c], E[u], E[MUL[bac][u]]

        for a in sq0:
            for b, c in pairs:
                bac = MUL[MUL[b][a]][c]
                row = surveys.get(bac)
                if row is None:
                    row = surveys[bac] = _nil_row([indices[v] for v in MUL[bac]], bound)
                yield functools.partial(quad_at, a, b, c), row

    if mode == "random":
        ops = _value_ops(algebra.zero())

    def sample(rng):
        a = algebra.sample_square_zero(rng)
        b = algebra.sample_element(rng)
        c = algebra.sample_right_annihilator(b, rng)
        u = algebra.sample_element(rng)
        v = b.mul(a).mul(c).mul(u)
        # a row of one, whose only position u = 0 is this quadruple
        row = _nil_row([_nil_index(ops, v, hard_bound)], bound)
        return ((a, b, c, u, v),).__getitem__, row

    examined = non_nilpotent = 0
    minimal_m = 1
    first_bad = over_mmax = m_witness = None
    for quad_at, row in _draws(mode, rows, sample, budget, seed):
        examined += row.size
        non_nilpotent += row.non_nilpotent
        if first_bad is None and row.first_bad is not None:
            first_bad = quad_at(row.first_bad)
        if row.top is not None and row.top > minimal_m:
            minimal_m = row.top
            m_witness = quad_at(row.top_u)
        if over_mmax is None and row.first_over is not None:
            over_mmax = quad_at(row.first_over)
    details.update(non_nilpotent=non_nilpotent, minimal_m_nilpotent=minimal_m, m_max=bound)
    # the two report shapes stay as they were: a random survey names its
    # sample count and no index witness
    if mode == "random":
        details["samples"] = examined
    else:
        details["quadruples"] = examined
        if m_witness is not None:
            details["index_witness"] = _quad_witness(m_witness)
    kw = dict(mode=mode, seed=seed, evaluations=examined, details=details)
    if first_bad is not None:
        return _counterexample(t0, _quad_witness(first_bad),
                               lambda w: _reverify_quad(w, hard_bound), **kw)
    if over_mmax is not None:
        return _counterexample(t0, _quad_witness(over_mmax),
                               lambda w: _reverify_quad(w, bound), **kw)
    return _verdict("holds", t0, **kw)


def _quad_witness(quad):
    return dict(zip(("a", "b", "c", "u", "bacu"), quad))


def _reverify_quad(witness, power):
    """Recompute a nilbound witness apart from the search: the quadruple
    lies in the ground set, its product (associated the other way round)
    is bacu, and bacu**power is nonzero. power is the dimension for a
    product claimed not nilpotent, m_max for one claimed past m_max."""
    a, b, c, u = witness["a"], witness["b"], witness["c"], witness["u"]
    v = b.mul(a.mul(c.mul(u)))
    return (a.mul(a).is_zero() and b.mul(c).is_zero() and v == witness["bacu"]
            and not v.power(power).is_zero())


def square_zero_nilpotency(algebra, d, mode="exhaustive", budget=DEFAULT_BUDGET,
                           seed=None, cap=DEFAULT_CAP):
    """Over pairs a^2 = b^2 = 0: does ab nilpotent force (ab)^(2d) = 0?

    Pairs whose product is not nilpotent fall outside the claim; they are
    skipped and counted rather than treated as violations.
    """
    t0 = time.monotonic()
    if d < 1:
        raise PreconditionError("d must be >= 1")
    n = algebra.n
    skipped = 0
    ops = _value_ops(algebra.zero())

    def probe(a, b):
        nonlocal skipped
        ab = a.mul(b)
        k = _nil_index(ops, ab, n)
        if k is None:
            skipped += 1
            return None, 1
        # k is the least exponent with ab^k = 0, so (ab)^(2d) = 0 iff k <= 2d
        return (None if k <= 2 * d else {"a": a, "b": b, "ab": ab}), 1

    def pairs():
        sq0 = list(algebra.enumerate_square_zero(cap))
        if len(sq0) ** 2 > cap:
            raise CapExceeded("pair space exceeds the cap")
        return itertools.starmap(probe, itertools.product(sq0, repeat=2))

    def sample(rng):
        return probe(algebra.sample_square_zero(rng), algebra.sample_square_zero(rng))

    def confirm(w):
        a, b, ab = w["a"], w["b"], w["ab"]
        # Horner evaluation of X^n and X^2d, not the powers the search took
        ab_n, ab_2d = (unipoly_eval(UniPoly.x_power(ab.ring, k), ab) for k in (n, 2 * d))
        return (a.mul(a).is_zero() and b.mul(b).is_zero() and a.mul(b) == ab
                and ab_n.is_zero() and not ab_2d.is_zero())

    witness, evaluations = _first_hit(_draws(mode, pairs, sample, budget, seed))
    kw = dict(mode=mode, seed=seed, evaluations=evaluations,
              details={"d": d, "checked": evaluations - skipped,
                       "skipped_non_nilpotent": skipped})
    if witness is None:
        return _verdict("holds", t0, **kw)
    return _counterexample(t0, witness, confirm, **kw)


def vandermonde_nil(f, v, u, lambdas):
    """Split f(v * lambda * u) into homogeneous components and read off
    nilpotency.

    Since (v*(lambda u))^i = lambda^i (vu)^i, the component at lambda^i is
    f_i (vu)^i. Evaluating at the given nonzero scalars plus the point 0
    (which pins the constant component) sets up an ordinary Vandermonde
    solve; the components come back exactly. When every positive component
    vanishes and f has degree d, (vu)^d = 0 follows and is checked.
    """
    t0 = time.monotonic()
    ring = v.ring
    if u.ring != ring:
        raise PreconditionError("v and u must share a ring")
    pts = [ring.coerce(x) for x in lambdas]
    if any(x == ring.zero for x in pts):
        raise PreconditionError("lambdas must be nonzero; 0 is added internally")
    if len(set(pts)) != len(pts):
        raise PreconditionError("repeated lambdas")
    if ring.is_field and hasattr(ring, "p") and ring.p <= len(pts):
        raise PreconditionError(f"field of size {ring.p} is too small for {len(pts)} points")
    k = len(pts)
    d = f.degree
    if not f.is_zero() and k < d:
        raise PreconditionError(f"need at least deg f = {d} nonzero points, got {k}")
    vu = v.mul(u)
    emb = embed_into(f.ring, ring)
    values = [identity(ring, v.n).scale(emb(f.coeff(0)))]
    for lam in pts:
        values.append(unipoly_eval(f, v.mul(u.scale(lam))))
    components = vandermonde_solve(ring, [ring.zero] + pts, values)
    positive = components[1:]
    all_zero = all(c.is_zero() for c in positive)
    nil_checked = None
    if all_zero and not f.is_zero() and d >= 1:
        vu_power = vu.power(d)
        nil_checked = vu_power.is_zero()
    kw = dict(mode="deterministic", evaluations=len(values),
              details={"components_zero": all_zero,
                       "degree": d if not f.is_zero() else None,
                       "vu_power_zero": nil_checked})
    if nil_checked is False:
        def confirm(w):
            x_d = UniPoly.x_power(ring, d)
            return not unipoly_eval(x_d, w["v"].mul(w["u"])).is_zero()

        return positive, _counterexample(t0, {"v": v, "u": u, "vu_power": vu_power},
                                         confirm, **kw)
    return positive, _verdict("holds", t0, **kw)


AnnihilatorResult = namedtuple("AnnihilatorResult", "g factors pairs_checked")


def finite_annihilator(algebra, cap=DEFAULT_CAP, merge_duplicates=True):
    """One-variable annihilator for a finite algebra: every element repeats
    a power, x^r = x^t, so the product of the (deduplicated) X^r - X^t
    kills every product ab with a^2 = b^2 = 0. The verification over all
    such pairs is part of the call; failure would mean a bug, not math.
    """
    from collections import Counter

    elements = list(algebra.enumerate_elements(cap))
    ring = algebra.ring
    occurrences = Counter()
    for x in elements:
        seen = {}
        power = x
        k = 1
        while True:
            if power in seen:
                occurrences[(seen[power], k)] += 1
                break
            seen[power] = k
            power = power.mul(x)
            k += 1
    factor_list = sorted(occurrences)
    g = UniPoly(ring, [ring.one])
    for t, r in factor_list:
        p = UniPoly.x_power(ring, r) - UniPoly.x_power(ring, t)
        times = 1 if merge_duplicates else occurrences[(t, r)]
        for _ in range(times):
            g = g * p
    if g.is_zero():
        raise SolveError("annihilator degenerated to zero; implementation bug")
    sq0 = [m for m in elements if m.mul(m).is_zero()]
    pairs = 0
    for a in sq0:
        for b in sq0:
            pairs += 1
            if not unipoly_eval(g, a.mul(b)).is_zero():
                raise SolveError(
                    f"g(ab) != 0 at a={a.format()}, b={b.format()}; implementation bug"
                )
    factors = [((t, r), occurrences[(t, r)]) for t, r in factor_list]
    return AnnihilatorResult(g, factors, pairs)


InfiniteWitness = namedtuple("InfiniteWitness", "a b t trials value")


def infinite_counterexample(g):
    """For nonzero g over ZZ, a pair a^2 = b^2 = 0 in M2(ZZ) with
    g(ab) != 0.

    The family a = e21, b = t*e12 gives ab = t*e22 and g(ab) =
    diag(g(0), g(t)); a nonzero polynomial has at most deg g roots, so
    scanning t = 0, 1, 2, ... succeeds within deg g + 1 trials.
    """
    if g.ring != ZZ:
        raise PreconditionError("the infinite direction works over ZZ")
    if g.is_zero():
        raise PreconditionError("g must be nonzero")
    a = matrix_unit(ZZ, 2, 2, 1)
    t = 0
    trials = 0
    while True:
        trials += 1
        b = matrix_unit(ZZ, 2, 1, 2).scale(t)
        value = unipoly_eval(g, a.mul(b))
        if not value.is_zero():
            if not a.mul(a).is_zero() or not b.mul(b).is_zero():
                raise SolveError("witness pair not square-zero; implementation bug")
            return InfiniteWitness(a, b, t, trials, value)
        t += 1
        if trials >= g.degree + 1:
            raise SolveError("no witness within deg g + 1 trials; implementation bug")


def bounds_from_d(d, q=2):
    """The size and dimension bounds derived from a witness degree d:
    |K| <= 2d, and n <= 2 log_q(2d) + 2 computed by integer comparisons
    (the largest n with q^(n-2) <= (2d)^2), no floating point anywhere."""
    if not isinstance(d, int) or d < 1:
        raise PreconditionError("d must be a positive integer")
    if not isinstance(q, int) or q < 2:
        raise PreconditionError("q must be an integer >= 2")
    target = 4 * d * d
    k = 0
    power = 1
    while power * q <= target:
        power *= q
        k += 1
    return 2 * d, k + 2


def s3_expand():
    """Expand S3(X, Y, XY) in the free algebra on two letters and compare,
    term by term, with the four-term formula (YX)^2 - X^2Y^2 - YX^2Y +
    XY^2X, over the integers and again mod 2. No equality is asserted;
    the report records whatever the comparison finds."""
    from .rings import PrimeField

    f2 = PrimeField(2)
    xy = Word(((1, 1), (2, 1)))
    expansion = standard_polynomial(3, ZZ).substitute(3, xy)
    stated = LaurentElement(ZZ, [
        (Word(((2, 1), (1, 1), (2, 1), (1, 1))), 1),
        (Word(((1, 2), (2, 2))), -1),
        (Word(((2, 1), (1, 2), (2, 1))), -1),
        (Word(((1, 1), (2, 2), (1, 1))), 1),
    ])
    words = sorted(
        set(expansion.terms) | set(stated.terms),
        key=lambda w: w.sort_key(),
    )
    table = [
        {
            "word": w.format(),
            "expansion": expansion.coefficient(w),
            "stated": stated.coefficient(w),
            "agree": expansion.coefficient(w) == stated.coefficient(w),
        }
        for w in words
    ]
    exp2 = expansion.map_ring(f2, f2.from_int)
    stated2 = stated.map_ring(f2, f2.from_int)
    return {
        "expansion": expansion,
        "stated": stated,
        "match_over_ZZ": expansion == stated,
        "table": table,
        "expansion_mod2": exp2,
        "stated_mod2": stated2,
        "match_mod2": exp2 == stated2,
    }


def idempotent_centrality(algebra, cap=DEFAULT_CAP):
    """All noncentral idempotents, each with an element it fails to
    commute with. A diagnostic survey: central output means central
    within this finite algebra, nothing more."""
    return idempotent_survey(algebra, cap)[1]


def idempotent_survey(algebra, cap=DEFAULT_CAP):
    """(the number of idempotents, idempotent_centrality's list), enumerating once."""
    elements = list(algebra.enumerate_elements(cap))
    idempotents = [e for e in elements if e.mul(e) == e]
    violators = []
    for e in idempotents:
        for m in elements:
            if e.mul(m) != m.mul(e):
                violators.append((e, m))
                break
    return len(idempotents), violators


def quotient_pi_check(n, samples=DEFAULT_BUDGET, seed=None, ring=ZZ):
    """The quotient algebra separation: S_2n vanishes on sampled tuples
    when n >= 2, while S2 and S3 are nonzero at the standard units. Both
    normal forms ride along in the details."""
    t0 = time.monotonic()
    if n < 1:
        raise PreconditionError("n must be >= 1")
    one = QuotientElement.one(ring)
    ux = one.add(QuotientElement.letter(ring, "x"))
    uy = one.add(QuotientElement.letter(ring, "y"))
    uxy = ux.mul(uy)
    s2 = standard_polynomial(2, ring)
    s2_value = q_evaluate(s2, (ux, uy))
    s3_value = q_evaluate(standard_polynomial(3, ring), (ux, uy, uxy))
    details = {
        "s2_at_units": s2_value.format(),
        "s3_at_units": s3_value.format(),
        "s2_nonzero": not s2_value.is_zero(),
        "s3_nonzero": not s3_value.is_zero(),
    }
    if n == 1:
        details["note"] = "S_2 fails on the unit group; nothing to sample for n = 1"
        return _counterexample(t0, {"assignment": {1: ux, 2: uy}, "value": s2_value},
                               _reproduced_by(_plain_eval, s2), mode="deterministic",
                               seed=seed, evaluations=2, details=details)
    e = standard_polynomial(2 * n, ring)
    _, run = e.compiled(one)

    def sample(rng):
        args = [sample_element(ring, rng) for _ in range(2 * n)]
        return _nonzero_at(run, dict(enumerate(args, start=1)))

    witness, evaluations = _first_hit(_draws("random", None, sample, samples, seed))
    if witness is None:
        details["samples"] = samples
        return _verdict("holds", t0, mode="random", seed=seed, evaluations=evaluations,
                        details=details)
    return _counterexample(t0, witness, _reproduced_by(_plain_eval, e), mode="random",
                           seed=seed, evaluations=evaluations, details=details)

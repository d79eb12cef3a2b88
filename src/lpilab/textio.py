"""The text format and the command line.

Expression grammar, shared by both contexts:

    expression := ["-"] term (("+" | "-") term)*
    term       := factor ("*" factor)*
    factor     := atom ["^" integer]
    atom       := INT | name | macro | "(" expression ")"
    integer    := ["-"] INT

INT is a run of the ASCII digits 0-9, and a name is an ASCII letter
followed by ASCII letters and digits. Spaces, tabs, carriage returns
and newlines separate tokens; any other character is a parse error.
Multiplication is always written out; "2x1" is a parse error, "2*x1" is
not. In the Laurent context names are the variables x1 .. x8 (plain x and
y abbreviate x1 and x2) and the macros S(n) and AL(n) expand to the
standard polynomial and its unit-augmented relative. In the quotient
context the only names are the two letters x and y, and exponents must be
nonnegative because nothing there is invertible. A negative exponent on a
parenthesized Laurent expression is accepted exactly when the content is
a single word with coefficient 1; anything else has no inverse worth
guessing at.

The parser refuses, with a parse error at the operator, any product, a
power's steps included, that would pair more than MAX_TERM_PAIRS (2^20)
terms or could build a word of more than MAX_SYLLABLES (2^13) syllables
(letters, in the quotient context). Such an expression would take
minutes to build or to compile; x1^1000000 stays one syllable and
(x1 + x2)^20 pairs exactly 2^20 terms, so both still parse.

Python refuses to print an integer of more than 4300 digits, so the
parser also keeps every integer it builds well below that: it refuses,
at the literal, an INT of more than MAX_INT_DIGITS (1000) digits, and,
at the operator, any product or power step that could build a
coefficient, or any power that could build an exponent, of more than
MAX_INT_BITS (10,000) bits, about 3,000 digits; 2^1000 still parses.
Adding n integers, as sums do to coefficients and products to the
exponents of the syllables they merge, adds at most log2(n) bits, far
too few to matter. A report refuses, with exit 2, any integer of more
than MAX_REPORT_DIGITS (4300) digits, such as an entry of a witness
value that a search computed.

Reports are JSON objects on standard output, one per invocation, with a
fixed top-level shape (see report_schema.json); all diagnostics go to
standard error. Exit status 0 means the check held or the requested
object was produced, 1 means a counterexample was found, 2 means the
invocation itself was at fault.

A report's config is its subcommand's parsed flags, vars(args) without
command and handler, after main has filled in --cap and drawn a missing
--seed for --mode random. Every handler ends in _emit_verdict or _emit_ok
and names only the flags its report leaves out (omit): parse leaves out
expr, annihilator keep_duplicates, counterexample --poly count, deg_max
and seed, and the random counterexample poly. A flag added later
therefore shows up in its subcommand's config unless its handler omits
it; an opt-in flag must be omitted if default reports are to stay
byte-identical.
"""

import argparse
import json
import os
import random
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import checkers
from .errors import Inadmissible, LpiLabError, ParseError, PreconditionError
from .freegroup import Word
from .group_algebra import (
    LaurentElement,
    al_f2,
    is_admissible,
    normalize,
    profile,
    standard_polynomial,
)
from .matrix_algebra import DEFAULT_CAP, Matrix, parse_algebra
from .quotient_algebra import QuotientElement
from .rings import ZZ, FormalSum, PrimeField, UniPoly, power, ring_from_descriptor

MAX_VARIABLES = 8
MAX_TERM_PAIRS = 2**20
MAX_SYLLABLES = 2**13
MAX_INT_DIGITS = 1000
MAX_INT_BITS = 10_000
# CPython's default limit on int -> str, fixed here so that every Python
# refuses the same reports
MAX_REPORT_DIGITS = 4300
_REPORT_BOUND = 10**MAX_REPORT_DIGITS

Token = namedtuple("Token", "kind text line col")


# ASCII classes only, so every INT is a literal that int() reads; a
# character no group matches is the error group
_TOKEN = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)|(?P<OP>[-+*^(),])"
                    r"|(?P<NL>\n)|[ \t\r]+|(?P<BAD>.)")


def tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind:  # whitespace is the one unnamed group
            tokens.append(Token(kind, m.group(), line, col))
    tokens.append(Token("END", "", line, len(text) - line_start + 1))
    return tokens


def _int(text, tok):
    """int(text), refused at tok when text has more than MAX_INT_DIGITS
    digits."""
    if len(text) > MAX_INT_DIGITS:
        raise ParseError(f"an integer of {len(text)} digits is over the limit of "
                         f"{MAX_INT_DIGITS}", tok.line, tok.col)
    return int(text)


def _longest(e):
    """The syllables in e's longest word; a quotient word alternates, so
    each of its letters is a syllable."""
    return max((len(w.syllables) if isinstance(w, Word) else len(w) for w in e.terms),
               default=0)


def _checked_mul(a, b, tok):
    """a * b, refused at tok when it is over the parser's limits."""
    pairs = len(a.terms) * len(b.terms)
    if pairs > MAX_TERM_PAIRS:
        raise ParseError(f"a product of {pairs} term pairs is over the limit of "
                         f"{MAX_TERM_PAIRS}", tok.line, tok.col)
    syllables = _longest(a) + _longest(b)
    if syllables > MAX_SYLLABLES:
        raise ParseError(f"a product could build a word of {syllables} syllables, over the "
                         f"limit of {MAX_SYLLABLES}", tok.line, tok.col)
    # each coefficient of a*b sums at most `pairs` products of coefficients
    bits = _bits(a) + _bits(b) + pairs.bit_length()
    if bits > MAX_INT_BITS:
        raise ParseError(f"a product could build a coefficient of {bits} bits, over the "
                         f"limit of {MAX_INT_BITS}", tok.line, tok.col)
    return a.mul(b)


def _bits(e):
    """The bits of e's largest coefficient. The grammar's literals are
    integers, so over QQ too every coefficient is a whole number."""
    return max((c.numerator.bit_length() for c in e.terms.values()), default=0)


class _Parser:
    def __init__(self, text, ring, context):
        self.tokens = tokenize(text)
        self.pos = 0
        self.ring = ring
        self.context = context

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, text=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        if text is not None and tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def accept(self, ops):
        """Take the next token if it is one of the operators ops, else None."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def _one(self):
        if self.context == "laurent":
            return LaurentElement.one(self.ring)
        return QuotientElement.one(self.ring)

    def _constant(self, n):
        return self._one().scale(self.ring.from_int(n))

    def parse(self):
        tok = self.peek()
        if tok.kind == "END":
            raise ParseError("empty expression", tok.line, tok.col)
        e = self.expression()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        return e

    def expression(self):
        negate = self.accept("-")
        e = self.term()
        if negate:
            e = -e
        while op := self.accept("+-"):
            t = self.term()
            e = e + t if op.text == "+" else e - t
        return e

    def term(self):
        e = self.factor()
        while star := self.accept("*"):
            e = _checked_mul(e, self.factor(), star)
        return e

    def factor(self):
        a = self.atom()
        caret = self.accept("^")
        if caret:
            a = self._power(a, self.signed_int(), caret)
        return a

    def signed_int(self):
        sign = -1 if self.accept("-") else 1
        tok = self.take("INT")
        return sign * _int(tok.text, tok)

    def _power(self, a, k, caret):
        if k < 0:
            if self.context == "quotient":
                raise ParseError("negative exponents have no meaning in the quotient algebra",
                                 caret.line, caret.col)
            terms = list(a.terms.items())
            if len(terms) != 1 or terms[0][1] != self.ring.one:
                raise ParseError("only a single word with coefficient 1 can be inverted",
                                 caret.line, caret.col)
            a, k = LaurentElement.from_word(self.ring, terms[0][0].inverse()), -k
        if self.context == "laurent":
            # a syllable of a**k merges syllables of k words of a, so its
            # exponent is at most k times a word's sum of |exponents|
            top = k * max((sum(abs(x) for _, x in w.syllables) for w in a.terms), default=0)
            if top.bit_length() > MAX_INT_BITS:
                raise ParseError(f"a power could build an exponent of {top.bit_length()} bits, "
                                 f"over the limit of {MAX_INT_BITS}", caret.line, caret.col)
        return power(a, k, a.one_like(), lambda x, y: _checked_mul(x, y, caret))

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.take()
            return self._constant(_int(tok.text, tok))
        if tok.kind == "NAME":
            return self._name()
        if self.accept("("):
            e = self.expression()
            self.take("OP", ")")
            return e
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def _name(self):
        tok = self.take("NAME")
        name = tok.text
        if self.context == "quotient":
            if name in ("x", "y"):
                return QuotientElement.letter(self.ring, name)
            raise ParseError(f"unknown name {name!r}; the quotient letters are x and y",
                             tok.line, tok.col)
        if name in ("S", "AL"):
            self.take("OP", "(")
            arg = self.take("INT")
            self.take("OP", ")")
            n = _int(arg.text, arg)
            if name == "S":
                return standard_polynomial(n, self.ring)
            return al_f2(n, self.ring)
        if name == "x":
            return LaurentElement.from_word(self.ring, Word.gen(1))
        if name == "y":
            return LaurentElement.from_word(self.ring, Word.gen(2))
        if name[0] == "x" and name[1:].isdigit():
            idx = _int(name[1:], tok)
            if 1 <= idx <= MAX_VARIABLES:
                return LaurentElement.from_word(self.ring, Word.gen(idx))
            raise ParseError(f"variable index out of range: {name} (x1 .. x{MAX_VARIABLES})",
                             tok.line, tok.col)
        raise ParseError(f"unknown name {name!r}", tok.line, tok.col)


def parse_element(text, ring=ZZ, context="laurent"):
    """Parse an expression into a Laurent or quotient element."""
    if context not in ("laurent", "quotient"):
        raise ParseError(f"unknown context {context!r}")
    return _Parser(text, ring, context).parse()


def parse_word(text):
    """Parse a free group word: a Laurent expression that is a single word
    with coefficient 1."""
    e = parse_element(text, ZZ, "laurent")
    terms = list(e.terms.items())
    if len(terms) != 1 or terms[0][1] != 1:
        raise ParseError(f"not a single word with coefficient 1: {text!r}")
    return terms[0][0]


# ---------------------------------------------------------------------------
# reports


def serialize(v):
    """v in JSON's types; an integer of more than MAX_REPORT_DIGITS digits,
    a matrix entry or a coefficient among them, is refused."""
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, int):
        if -_REPORT_BOUND < v < _REPORT_BOUND:
            return v
        raise LpiLabError(f"the report would hold an integer of more than "
                          f"{MAX_REPORT_DIGITS} digits")
    if isinstance(v, Fraction):
        serialize([v.numerator, v.denominator])
        return str(v)
    if isinstance(v, Matrix):
        return serialize(v.as_lists())
    if isinstance(v, FormalSum):
        serialize(list(v.terms.values()))
        return v.format()
    if isinstance(v, Word):
        return v.format()
    if isinstance(v, dict):
        return {
            (f"x{k}" if isinstance(k, int) else str(k)): serialize(x)
            for k, x in v.items()
        }
    if isinstance(v, (list, tuple)):
        return [serialize(x) for x in v]
    return str(v)


def _emit(args, outcome, details, omit=(), witness=None, evaluations=None,
          elapsed_ms=None):
    """Print the report of args' subcommand; its config is the parsed flags
    but command, handler and omit."""
    config = {name: value for name, value in vars(args).items()
              if name not in ("command", "handler") and name not in omit}
    report = {
        "tool": "lpilab",
        "version": "0.1.0",
        "command": args.command,
        "config": serialize(config),
        "outcome": outcome,
        "details": serialize(details),
    }
    if witness is not None:
        report["witness"] = serialize(witness)
    if evaluations is not None:
        report["evaluations"] = evaluations
    if elapsed_ms is not None:
        report["elapsed_ms"] = elapsed_ms
    print(json.dumps(report, indent=2, sort_keys=True))


def _emit_verdict(args, verdict):
    _emit(args, verdict.outcome, verdict.details, witness=verdict.witness,
          evaluations=verdict.evaluations, elapsed_ms=verdict.elapsed_ms)
    return 0 if verdict.outcome == "holds" else 1


def _emit_ok(args, details, witness=None, omit=()):
    _emit(args, "ok", details, omit, witness)
    return 0


def _resolve_seed(args):
    # randomized runs always report the seed that drove them; a missing
    # --seed is filled in and announced so the run can be reproduced
    if args.seed is None:
        args.seed = random.SystemRandom().randrange(2**32)
        print(f"seed not given; using {args.seed}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers


def _parse_details(args):
    # a helper, so the parsed element is freed before the report is encoded
    ring = ring_from_descriptor(args.ring)
    e = parse_element(args.expr, ring, args.context)
    details = {"normal_form": e.format(), "context": args.context, "ring": ring.descriptor()}
    if args.context == "laurent":
        details["terms"] = len(e.terms)
        details["variables"] = sorted(f"x{v}" for v in e.variables())
        details["admissible"] = is_admissible(e)
    else:
        details["support"] = e.support_size()
    return details


def _cmd_parse(args):
    return _emit_ok(args, _parse_details(args), omit=("expr",))


def _cmd_check_lpi(args):
    algebra = parse_algebra(args.algebra)
    e = parse_element(args.expr, ZZ, "laurent")
    return _emit_verdict(args, checkers.check_lpi(
        algebra, e, mode=args.mode, budget=args.budget, seed=args.seed, cap=args.cap))


def _cmd_check_gi(args):
    algebra = parse_algebra(args.algebra)
    w = parse_word(args.word)
    return _emit_verdict(args, checkers.check_group_identity(
        algebra, w, mode=args.mode, budget=args.budget, seed=args.seed, cap=args.cap))


def _cmd_al_verify(args):
    ring = ring_from_descriptor(args.field)
    if not isinstance(ring, PrimeField):
        raise LpiLabError("al-verify needs a prime field, like Fp:2")
    return _emit_verdict(args, checkers.al_verify(
        args.n, ring.p, mode=args.mode, budget=args.budget, seed=args.seed, cap=args.cap))


def _cmd_witness(args):
    ring = ring_from_descriptor(args.ring)
    e = parse_element(args.expr, ring, "laurent")
    result = normalize(e)
    prof = profile(result.element)
    return _emit_ok(args, {
        "input": e.format(),
        "normalized": result.element.format(),
        "substituted_variable": None if result.variable is None else f"x{result.variable}",
        "k": result.k,
        "l": prof.l,
        "r": prof.r,
        "d": prof.d,
        "admissible": True,
    })


def _cmd_nilbound(args):
    algebra = parse_algebra(args.algebra)
    return _emit_verdict(args, checkers.nil_exponent_search(
        algebra, m_max=args.m_max, mode=args.mode, budget=args.budget, seed=args.seed,
        cap=args.cap))


def _cmd_annihilator(args):
    algebra = parse_algebra(args.algebra)
    result = checkers.finite_annihilator(algebra, cap=args.cap,
                                         merge_duplicates=not args.keep_duplicates)
    return _emit_ok(args, {
        "g": result.g.format(),
        "degree": result.g.degree,
        "factors": [[t, r, count] for (t, r), count in result.factors],
        "pairs_checked": result.pairs_checked,
        "merged_duplicates": not args.keep_duplicates,
    }, omit=("keep_duplicates",))


def _random_poly(rng, deg_max):
    deg = rng.randint(0, deg_max)
    coeffs = [rng.randint(-5, 5) for _ in range(deg)]
    lead = rng.choice([c for c in range(-5, 6) if c != 0])
    return UniPoly(ZZ, coeffs + [lead])


def _cmd_counterexample(args):
    if args.poly is not None:
        try:
            g = UniPoly(ZZ, [int(c) for c in args.poly.split(",")])
        except ValueError:
            raise PreconditionError(f"--poly takes comma-separated integers, got {args.poly!r}")
        hit = checkers.infinite_counterexample(g)
        details = {
            "g": g.format(),
            "degree": g.degree,
            "t": hit.t,
            "trials": hit.trials,
            "trial_bound": g.degree + 1,
            "g_of_ab": hit.value,
        }
        return _emit_ok(args, details, witness={"a": hit.a, "b": hit.b},
                        omit=("count", "deg_max", "seed"))
    if args.count < 1:
        raise PreconditionError(f"--count must be at least 1, got {args.count}")
    if args.deg_max < 0:
        raise PreconditionError(f"--deg-max must be at least 0, got {args.deg_max}")
    _resolve_seed(args)
    cases = []
    max_trials = 0
    for i in range(args.count):
        rng = random.Random(f"{args.seed}/{i}")
        g = _random_poly(rng, args.deg_max)
        hit = checkers.infinite_counterexample(g)
        max_trials = max(max_trials, hit.trials)
        cases.append({"g": g.format(), "degree": g.degree, "t": hit.t,
                      "trials": hit.trials})
    details = {
        "count": args.count,
        "deg_max": args.deg_max,
        "max_trials": max_trials,
        "all_within_bound": True,
        "cases": cases[:5],
    }
    return _emit_ok(args, details, omit=("poly",))


def _cmd_bounds(args):
    size_bound, dim_bound = checkers.bounds_from_d(args.d, args.q)
    return _emit_ok(args, {"d": args.d, "q": args.q, "size_bound": size_bound,
                           "dimension_bound": dim_bound})


def _cmd_quotient(args):
    ring = ring_from_descriptor(args.ring)
    _resolve_seed(args)
    return _emit_verdict(args, checkers.quotient_pi_check(
        args.n, samples=args.samples, seed=args.seed, ring=ring))


def _cmd_s3_expand(args):
    return _emit_ok(args, checkers.s3_expand())


def _cmd_idempotents(args):
    algebra = parse_algebra(args.algebra)
    total, noncentral = checkers.idempotent_centrality(algebra, cap=args.cap)
    return _emit_ok(args, {
        "idempotents": total,
        "noncentral_count": len(noncentral),
        "noncentral": [
            {"idempotent": e, "noncommuting": m} for e, m in noncentral
        ],
    })


# ---------------------------------------------------------------------------
# argument plumbing


def _env_int(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise LpiLabError(f"{name} must be an integer, got {raw!r}")


def _add_search_flags(p, workers=True):
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=checkers.DEFAULT_BUDGET)
    p.add_argument("--cap", type=int, default=None)
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="accepted, at least 1, and echoed in the report's config; "
                            "a scan always runs in one process")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lpilab",
        description="Exact checks for Laurent polynomial identities on "
                    "matrix and quotient algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its normal form")
    p.add_argument("--expr", required=True)
    p.add_argument("--ring", default="ZZ")
    p.add_argument("--context", choices=("laurent", "quotient"), default="laurent")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("check-lpi", help="test whether an expression vanishes on an algebra")
    p.add_argument("--expr", required=True)
    p.add_argument("--algebra", required=True)
    _add_search_flags(p)
    p.set_defaults(handler=_cmd_check_lpi)

    p = sub.add_parser("check-gi", help="test a group identity on the unit group")
    p.add_argument("--word", required=True)
    p.add_argument("--algebra", required=True)
    _add_search_flags(p, workers=False)
    p.set_defaults(handler=_cmd_check_gi)

    p = sub.add_parser("al-verify", help="check the standard identity S_2n on n-by-n matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", required=True)
    _add_search_flags(p)
    p.set_defaults(handler=_cmd_al_verify)

    p = sub.add_parser("witness", help="normalize an expression and print its degree data")
    p.add_argument("--expr", required=True)
    p.add_argument("--ring", default="ZZ")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("nilbound", help="search square-zero ground sets for nil exponents")
    p.add_argument("--algebra", required=True)
    p.add_argument("--m-max", type=int, default=None)
    _add_search_flags(p, workers=False)
    p.set_defaults(handler=_cmd_nilbound)

    p = sub.add_parser("annihilator", help="build the finite-algebra annihilating polynomial")
    p.add_argument("--algebra", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--keep-duplicates", action="store_true")
    p.set_defaults(handler=_cmd_annihilator)

    p = sub.add_parser("counterexample",
                       help="square-zero pairs over ZZ defeating any nonzero annihilator")
    p.add_argument("--poly", default=None,
                   help="ascending integer coefficients, comma separated")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--deg-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("bounds", help="size and dimension bounds from a witness degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("quotient", help="standard identities in the junction-free quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ring", default="ZZ")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("s3-expand", help="expand S3(X, Y, XY) and compare forms")
    p.set_defaults(handler=_cmd_s3_expand)

    p = sub.add_parser("idempotents", help="list noncentral idempotents of a finite algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler=_cmd_idempotents)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "cap") and args.cap is None:
            args.cap = _env_int("LPILAB_CAP", DEFAULT_CAP)
        if getattr(args, "workers", 1) < 1:
            raise LpiLabError(f"workers must be at least 1, got {args.workers}")
        if getattr(args, "mode", None) == "random":
            _resolve_seed(args)
        return args.handler(args)
    except ParseError as exc:
        # the message ends with the position when the fault has one
        print(f"error: parse error: {exc}", file=sys.stderr)
        return 2
    except Inadmissible as exc:
        print(f"error: inadmissible input: {exc}", file=sys.stderr)
        return 2
    except LpiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

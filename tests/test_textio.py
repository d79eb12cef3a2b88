import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpilab.checkers import DEFAULT_BUDGET
from lpilab.errors import LpiLabError, ParseError
from lpilab.freegroup import Word
from lpilab.group_algebra import LaurentElement, al_f2, standard_polynomial
from lpilab.matrix_algebra import DEFAULT_CAP
from lpilab.quotient_algebra import QuotientElement, sample_element
from lpilab.rings import ZZ, PrimeField, ring_from_descriptor
from lpilab.textio import (Token, build_parser, main, parse_element, parse_word, serialize,
                           tokenize)

DATA = os.path.join(os.path.dirname(__file__), "data", "expressions.txt")


def run_cli(*argv):
    """Drive main() in process and capture its JSON report."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_tokenizer_tracks_positions():
    toks = tokenize("x1 +\n 2*y")
    assert [t.kind for t in toks] == ["NAME", "OP", "INT", "OP", "NAME", "END"]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[2].line == 2 and toks[2].col == 2
    with pytest.raises(ParseError) as exc:
        tokenize("x1 ? x2")
    assert exc.value.line == 1 and exc.value.col == 4


def _reference_tokenize(text):
    """The per-character tokenizer that the pattern scan replaced, kept as
    the reference for ASCII text."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j].isdigit()):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^(),":
            tokens.append(Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


# mostly token characters, so that most texts get past their first
# character, plus any code point 0-127
ASCII_TEXT = st.text(st.sampled_from("x1 2y9AzS(),+-*^\n\t\r") | st.characters(max_codepoint=127),
                     max_size=40)


@given(ASCII_TEXT)
@settings(max_examples=2000, deadline=None)
def test_scanner_is_the_per_character_loop_on_ascii(text):
    # the same tokens, or the same ParseError with the same line and column
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_reference_tokenize, text)


def test_parse_basic_laurent():
    e = parse_element("1 - x1*x2^-1")
    assert e.coefficient(Word()) == 1
    assert e.coefficient(Word(((1, 1), (2, -1)))) == -1
    assert parse_element("x") == parse_element("x1")
    assert parse_element("y") == parse_element("x2")
    assert parse_element("x1^0") == LaurentElement.one(ZZ)
    assert parse_element("2 - 2").is_zero()


def test_parse_macros():
    assert parse_element("S(3)") == standard_polynomial(3)
    assert parse_element("AL(2)") == al_f2(2)
    f2 = PrimeField(2)
    assert parse_element("S(2)", f2) == standard_polynomial(2, f2)


def test_parse_precedence_and_parens():
    # ^ binds before *, which binds before + and -
    e = parse_element("x1*x2^2")
    assert e.coefficient(Word(((1, 1), (2, 2)))) == 1
    e = parse_element("(x1*x2)^-1")
    assert e.coefficient(Word(((2, -1), (1, -1)))) == 1
    e = parse_element("(x1 + x2)^2")
    assert e.coefficient(Word(((1, 2),))) == 1
    assert e.coefficient(Word(((1, 1), (2, 1)))) == 1


def test_parse_rejects_malformed():
    cases = [
        "", "  ", "x1 +", "* x1", "x1 x2", "2x1", "x9", "x0",
        "S(", "S(3", "S()", "z", "x1^", "x1^^2", "(x1", "x1)",
        "S(9)",
    ]
    for text in cases:
        with pytest.raises(Exception):
            parse_element(text)
    with pytest.raises(ParseError):
        parse_element("(x1 + x2)^-1")  # general elements have no inverse


def test_parse_quotient_context():
    f3 = PrimeField(3)
    e = parse_element("(1 + 2*x)*(1 + y)", f3, "quotient")
    assert e.terms[""] == 1
    assert e.terms["x"] == 2
    assert e.terms["y"] == 1
    assert e.terms["xy"] == 2
    with pytest.raises(ParseError):
        parse_element("x1", ZZ, "quotient")
    with pytest.raises(ParseError):
        parse_element("x^-1", ZZ, "quotient")
    with pytest.raises(ParseError):
        parse_element("S(2)", ZZ, "quotient")


def test_parse_word():
    assert parse_word("x1^2*x2^-1") == Word(((1, 2), (2, -1)))
    assert parse_word("1") == Word()
    with pytest.raises(ParseError):
        parse_word("x1 + x2")
    with pytest.raises(ParseError):
        parse_word("2*x1")


def test_corpus_round_trips():
    """Parse, format, reparse: the two elements must be equal."""
    with open(DATA) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    assert len(lines) == 102
    for line in lines:
        ring_text, context, expr = line.split("|", 2)
        ring = ring_from_descriptor(ring_text)
        e = parse_element(expr, ring, context)
        back = parse_element(e.format(), ring, context) if not e.is_zero() else e
        assert back == e, line


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_laurent_round_trip(seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(1, 5)):
        sylls = tuple(
            (rng.randint(1, 4), rng.choice([-2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 4))
        )
        terms.append((Word(sylls), rng.choice([-3, -2, -1, 1, 2, 3])))
    e = LaurentElement(ZZ, terms)
    if e.is_zero():
        return
    assert parse_element(e.format()) == e


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_quotient_round_trip(seed):
    rng = random.Random(seed)
    e = sample_element(ZZ, rng, max_support=5, max_len=4)
    assert parse_element(e.format(), ZZ, "quotient") == e


def test_serialize_shapes():
    from lpilab.matrix_algebra import Matrix

    m = Matrix(ZZ, [[1, 2], [3, 4]])
    assert serialize(m) == [[1, 2], [3, 4]]
    assert serialize({1: m, "note": "x"}) == {"x1": [[1, 2], [3, 4]], "note": "x"}
    assert serialize(Word(((1, 1),))) == "x1"
    assert serialize([1, True, None]) == [1, True, None]


def test_serialize_refuses_integers_too_long_to_print():
    from fractions import Fraction

    from lpilab.matrix_algebra import Matrix

    # 4300 digits is CPython's default int -> str limit, fixed here
    assert serialize(-(10**4300 - 1)) == -(10**4300 - 1)
    for too_long in (10**4300, -10**4300, Fraction(1, 10**4300),
                     Matrix(ZZ, [[1, 0], [0, 10**4300]]),
                     LaurentElement(ZZ, [(Word(((1, 1),)), 10**4300)]), {"g": [10**5000]}):
        with pytest.raises(LpiLabError, match="4300 digits"):
            serialize(too_long)


SCHEMA = None


def validate_report(text):
    global SCHEMA
    import jsonschema

    if SCHEMA is None:
        schema_path = os.path.join(
            os.path.dirname(os.path.dirname(__file__)),
            "src", "lpilab", "report_schema.json",
        )
        with open(schema_path) as fh:
            SCHEMA = json.load(fh)
    report = json.loads(text)
    jsonschema.validate(report, SCHEMA)
    return report


def test_every_subcommand_emits_schema_valid_reports():
    runs = [
        (0, ["parse", "--expr", "1 - x1*x2^-1"]),
        (0, ["parse", "--expr", "x*y", "--context", "quotient", "--ring", "Fp:2"]),
        (1, ["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:2"]),
        (0, ["check-lpi", "--expr", "S(4)", "--algebra", "M2@Fp:2"]),
        (0, ["check-gi", "--word", "x1^6", "--algebra", "M2@Fp:2"]),
        (1, ["check-gi", "--word", "x1^2", "--algebra", "M2@Fp:2"]),
        (0, ["al-verify", "--n", "1", "--field", "Fp:3"]),
        (0, ["witness", "--expr", "1 - x1^2 + x1^5"]),
        (0, ["nilbound", "--algebra", "T2@Fp:2"]),
        (1, ["nilbound", "--algebra", "M2@Fp:2"]),
        (0, ["annihilator", "--algebra", "M2@Fp:2"]),
        (0, ["counterexample", "--poly", "0,2,1"]),
        (0, ["counterexample", "--count", "3", "--deg-max", "3", "--seed", "5"]),
        (0, ["counterexample", "--count", "1", "--deg-max", "0", "--seed", "5"]),
        (0, ["bounds", "--d", "3"]),
        (0, ["quotient", "--n", "2", "--samples", "20", "--seed", "4"]),
        (0, ["s3-expand"]),
        (0, ["idempotents", "--algebra", "M2@Fp:2"]),
    ]
    for want_code, argv in runs:
        code, out, err = run_cli(*argv)
        assert code == want_code, (argv, err)
        report = validate_report(out)
        assert report["command"] == argv[0]


def test_exit_code_two_on_errors():
    cases = [
        ["parse", "--expr", "x1 +"],
        ["parse", "--expr", "x9"],
        ["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:4"],
        ["witness", "--expr", "x1*x2*x1^-1*x2^-1"],
        ["al-verify", "--n", "2", "--field", "ZZ"],
        ["check-lpi", "--expr", "S(4)", "--algebra", "M2@Fp:2", "--cap", "100"],
        # exit 1 would claim a counterexample
        ["counterexample", "--poly", "1,a"],
        ["counterexample", "--poly", ","],
        ["counterexample", "--deg-max", "-1", "--seed", "1"],
        ["counterexample", "--count", "-1", "--seed", "1"],
        ["counterexample", "--count", "0", "--seed", "1"],
        # str.isdigit accepts these, int() does not: they used to end in a
        # ValueError traceback with exit 1
        ["parse", "--expr", "x1^²"],
        ["parse", "--expr", "x₁"],
        ["check-lpi", "--expr", "x1", "--algebra", "M²@Fp:2"],
        ["parse", "--expr", "1", "--ring", "Fp:²"],
        ["check-lpi", "--expr", "x1", "--algebra", "M2@Fp:²"],
        # too large to build or to compile: each of these used to run for
        # seconds to minutes, and is refused at once
        ["parse", "--expr", "S(8)*S(8)"],
        ["check-gi", "--word", "(x1*x2)^100000", "--algebra", "M2@Fp:2"],
        ["parse", "--expr", "(x1*x2)^1000000"],
        # integers too long to print: they used to end in a ValueError
        # traceback with exit 1, from the parser's int() or from printing
        ["parse", "--expr", "2^20000"],
        ["witness", "--expr", "2^20000*x1+x1"],
        ["parse", "--expr", "1" * 5000],
        ["check-lpi", "--expr", "x1^" + "1" * 5000, "--algebra", "M2@Fp:2"],
        ["parse", "--expr", "x" + "1" * 5000],
        ["parse", "--expr", "((((x1^{0})^{0})^{0})^{0})^{0}".format("9" * 999)],
        # a confirmed counterexample whose witness has 5,700-digit entries
        ["check-lpi", "--expr", "x1^6000-1", "--algebra", "M2@ZZ", "--mode", "random",
         "--seed", "1", "--budget", "1"],
        # integer matrix powers too large to compute: they used to run until
        # memory was gone, and stop at the product bound
        ["check-lpi", "--expr", "x1^100000000000000000000-1", "--algebra", "M2@ZZ",
         "--mode", "random", "--seed", "1", "--budget", "1"],
        ["check-gi", "--word", "x1^100000000000000000000", "--algebra", "M2@ZZ",
         "--mode", "random", "--seed", "2", "--budget", "1"],
        ["check-gi", "--word", "x1^100000000000000000000", "--algebra", "M2@ZZ",
         "--mode", "random", "--seed", "3", "--budget", "1"],
        # descriptor digits too many for int(): a dimension is at most 6
        # and a modulus below 2**31
        ["check-lpi", "--expr", "x1", "--algebra", "M" + "9" * 5000 + "@Fp:2"],
        ["check-lpi", "--expr", "x1", "--algebra", "M2@Fp:" + "9" * 5000],
        ["parse", "--expr", "x1", "--ring", "Fp:" + "9" * 5000],
    ]
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert not out.strip(), argv


def test_parser_limits_refuse_at_the_operator(monkeypatch):
    # a word of 2 syllables to the power k has 2k of them; one syllable
    # stays one syllable whatever its exponent
    assert len(next(iter(parse_element("(x1*x2)^4096").terms)).syllables) == 2**13
    assert parse_element("x1^1000000") == LaurentElement.from_word(ZZ, Word.gen(1, 10**6))
    for text, col in (("(x1*x2)^4097", 8), ("(x1*x2)^-4097", 8),
                      ("(x1*x2)^4096*x3", 13), ("x3*(x1*x2)^4096", 3)):
        with pytest.raises(ParseError, match="syllables") as info:
            parse_element(text)
        assert (info.value.line, info.value.col) == (1, col), text
    with pytest.raises(ParseError, match="syllables"):
        parse_element("(x*y)^4097", ZZ, "quotient")
    # integers: a literal of 1000 digits and 2^1000 parse; a longer literal,
    # and a product, power step or power that could build an integer of
    # more than 10,000 bits, are refused at the literal or the operator
    assert parse_element("9" * 1000) == LaurentElement.one(ZZ).scale(10**1000 - 1)
    assert parse_element("2^1000") == LaurentElement.one(ZZ).scale(2**1000)
    big = "9" * 999
    assert len(parse_element(f"((x1^{big})^{big})^{big}").format()) < 4300
    long = "1" * 1001
    for text, col, match in (
            (long, 1, "digits"), (f"x1^-{long}", 5, "digits"), (f"x{long}", 1, "digits"),
            (f"S({long})", 3, "digits"),
            ("2^20000", 2, "coefficient"), ("x1 + 2^10000", 7, "coefficient"),
            (f"{big}*{big}*{big}*{big}", 3000, "coefficient"),
            (f"(((x1^{big})^{big})^{big})^{big}", 3009, "exponent")):
        with pytest.raises(ParseError, match=match) as info:
            parse_element(text)
        assert (info.value.line, info.value.col) == (1, col), text[:20]
    # (x1 + x2)^20 pairs exactly 2^20 terms in its last product; the same
    # boundary at 2^6 is cheaper to build
    monkeypatch.setattr("lpilab.textio.MAX_TERM_PAIRS", 2**6)
    assert len(parse_element("(x1 + x2)^6").terms) == 2**6
    for text, col in (("(x1 + x2)^7", 10), ("(x1 + x2)^3*(x1 + x2)^4", 12)):
        with pytest.raises(ParseError, match="term pairs") as info:
            parse_element(text)
        assert (info.value.line, info.value.col) == (1, col), text


def test_parse_error_gives_its_position_once():
    code, out, err = run_cli("parse", "--expr", "x1^+2")
    assert (code, out) == (2, "")
    assert err == "error: parse error: expected INT, found '+' (line 1, column 4)\n"
    # a fault in the whole text has no position to give
    code, out, err = run_cli("check-gi", "--word", "2*x1", "--algebra", "M2@Fp:2")
    assert (code, out) == (2, "")
    assert err == "error: parse error: not a single word with coefficient 1: '2*x1'\n"


def test_parse_s8_report_is_pinned():
    # 1 MB of normal form is too big for a golden file; the report has no
    # elapsed_ms, so its digest is fixed
    code, out, _ = run_cli("parse", "--expr", "S(8)")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1c37f73ce6c616d83cbdc6563003f7d66f50401ef5d0a417b79c961bdf353d3a")


def test_parse_report_holds_little_beyond_the_element():
    # the element is freed before the report is encoded; an element kept
    # alive through the report, after a format that holds 4.3 times the
    # normal form, peaks 6.8 times the normal form above it on S_7
    tracemalloc.start()
    try:
        element = parse_element("S(7)")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(element.format())
    del element
    tracemalloc.start()
    try:
        code, out, _ = run_cli("parse", "--expr", "S(7)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["details"]["terms"] == 5040
    assert peak < retained + 4 * size


def test_nothing_to_search_exits_two(monkeypatch):
    # a random search without draws, a scan without a worker, or a cap
    # below 1, is refused instead of reporting a verdict
    cases = [
        ({}, ["check-lpi", "--expr", "x1*x2-x2*x1", "--algebra", "M2@Fp:2", "--mode",
              "random", "--budget", "-5", "--seed", "1"]),
        ({}, ["quotient", "--n", "2", "--samples", "0", "--seed", "1"]),
        ({}, ["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:2", "--workers", "0"]),
        ({}, ["al-verify", "--n", "1", "--field", "Fp:2", "--workers", "-3"]),
        # each of these has an early answer, which used to come back as a verdict
        ({}, ["check-lpi", "--expr", "x1", "--algebra", "M2@Fp:2", "--cap", "0"]),
        ({}, ["check-lpi", "--expr", "0", "--algebra", "M2@Fp:2", "--cap", "-5"]),
        ({"LPILAB_CAP": "0"}, ["check-lpi", "--expr", "x1", "--algebra", "M2@Fp:2"]),
        ({}, ["quotient", "--n", "1", "--samples", "0", "--seed", "1"]),
    ]
    for env, argv in cases:
        with monkeypatch.context() as m:
            m.delenv("LPILAB_CAP", raising=False)
            for name, value in env.items():
                m.setenv(name, value)
            code, out, err = run_cli(*argv)
        assert code == 2 and not out.strip(), argv
        assert "at least 1" in err, argv


def test_inadmissible_message_mentions_it():
    code, out, err = run_cli("witness", "--expr", "x1*x2*x1^-1*x2^-1")
    assert code == 2
    assert "inadmissible" in err.lower()


SEARCH = {"mode": "exhaustive", "seed": None, "budget": DEFAULT_BUDGET, "cap": DEFAULT_CAP}

# argv -> the config its report carries: the subcommand's flags, with
# --cap filled in, less each handler's historical omissions
CONFIGS = [
    (["parse", "--expr", "x1*x2", "--ring", "Fp:3"], {"ring": "Fp:3", "context": "laurent"}),
    (["check-lpi", "--expr", "S(3)", "--algebra", "M2@Fp:2", "--mode", "random", "--seed", "7",
      "--budget", "5", "--cap", "900"],
     {"expr": "S(3)", "algebra": "M2@Fp:2", "mode": "random", "seed": 7, "budget": 5,
      "cap": 900, "workers": 1}),
    (["check-gi", "--word", "x1^6", "--algebra", "M2@Fp:2"],
     {"word": "x1^6", "algebra": "M2@Fp:2", **SEARCH}),
    (["al-verify", "--n", "1", "--field", "Fp:3"],
     {"n": 1, "field": "Fp:3", "workers": 1, **SEARCH}),
    (["witness", "--expr", "1 - x1^2 + x1^5"], {"expr": "1 - x1^2 + x1^5", "ring": "ZZ"}),
    (["nilbound", "--algebra", "T2@Fp:2", "--m-max", "3"],
     {"algebra": "T2@Fp:2", "m_max": 3, **SEARCH}),
    (["annihilator", "--algebra", "M2@Fp:2", "--keep-duplicates"],
     {"algebra": "M2@Fp:2", "cap": DEFAULT_CAP}),
    (["counterexample", "--poly", "0,2,1", "--count", "3", "--seed", "1"], {"poly": "0,2,1"}),
    (["counterexample", "--count", "2", "--deg-max", "1", "--seed", "5"],
     {"count": 2, "deg_max": 1, "seed": 5}),
    (["bounds", "--d", "3"], {"d": 3, "q": 2}),
    (["quotient", "--n", "2", "--samples", "5", "--seed", "4"],
     {"n": 2, "samples": 5, "seed": 4, "ring": "ZZ"}),
    (["s3-expand"], {}),
    (["idempotents", "--algebra", "M2@Fp:2"], {"algebra": "M2@Fp:2", "cap": DEFAULT_CAP}),
]


@pytest.mark.parametrize("argv, config", CONFIGS, ids=[" ".join(a[:2]) for a, _ in CONFIGS])
def test_report_config_is_the_subcommands_flags(monkeypatch, argv, config):
    monkeypatch.delenv("LPILAB_CAP", raising=False)
    code, out, err = run_cli(*argv)
    assert code in (0, 1), err
    assert json.loads(out)["config"] == config


def test_every_subcommand_has_a_pinned_config():
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv, _ in CONFIGS} == set(commands)


def test_the_cli_runs_the_public_names(monkeypatch):
    # a tracer that wraps the public names sees the work the CLI does
    from lpilab import checkers
    from lpilab.matrix_algebra import Algebra

    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(checkers, "idempotent_centrality")
    counted(Algebra, "sample_unit")
    code, _, err = run_cli("idempotents", "--algebra", "M2@Fp:2")
    assert code == 0, err
    code, _, err = run_cli("check-gi", "--word", "x1*x2*x1^-1*x2^-1", "--algebra", "M2@Fp:3",
                           "--mode", "random", "--seed", "5", "--budget", "300")
    assert code == 1, err
    assert calls.get("idempotent_centrality", 0) >= 1
    assert calls.get("sample_unit", 0) >= 1


def test_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    mul = LaurentElement.mul
    monkeypatch.setattr(LaurentElement, "mul", lambda a, b: calls.append(1) or mul(a, b))
    assert parse_element("x1^1000") == LaurentElement.from_word(ZZ, Word.gen(1, 1000))
    assert 0 < len(calls) <= 2 * 10  # 2 * ceil(log2(1000))


def test_missing_seed_is_generated_and_reported():
    code, out, err = run_cli("check-lpi", "--expr", "S(4)", "--algebra", "M2@Fp:2",
                             "--mode", "random", "--budget", "5")
    assert code == 0
    assert "seed" in err
    report = json.loads(out)
    assert isinstance(report["config"]["seed"], int)


def test_env_caps_are_honored(monkeypatch):
    monkeypatch.setenv("LPILAB_CAP", "100")
    code, out, err = run_cli("check-lpi", "--expr", "S(4)", "--algebra", "M2@Fp:2")
    assert code == 2
    assert "cap" in err.lower()
    monkeypatch.setenv("LPILAB_CAP", "notanint")
    code, out, err = run_cli("bounds", "--d", "1")
    assert code == 0  # bounds has no cap flag, env untouched
    monkeypatch.delenv("LPILAB_CAP")
    # a value that is no integer is a usage error: exit 1 would read as
    # "counterexample found"
    for raw in ("abc", "1.5"):
        with monkeypatch.context() as m:
            m.setenv("LPILAB_CAP", raw)
            code, out, err = run_cli("al-verify", "--n", "1", "--field", "Fp:2")
        assert code == 2 and out == ""
        assert err == f"error: LPILAB_CAP must be an integer, got {raw!r}\n"
    # the worker count is a flag only; no environment variable sets it
    monkeypatch.setenv("LPILAB_WORKERS", "abc")
    code, out, err = run_cli("al-verify", "--n", "1", "--field", "Fp:2")
    assert code == 0 and json.loads(out)["config"]["workers"] == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lpilab", "bounds", "--d", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = validate_report(proc.stdout)
    assert report["details"]["size_bound"] == 6
    assert report["details"]["dimension_bound"] == 7


def test_witness_reports_normalization():
    code, out, _ = run_cli("witness", "--expr", "1 - x1*x2^-1")
    assert code == 0
    report = validate_report(out)
    d = report["details"]
    assert d["substituted_variable"] == "x1"
    assert d["k"] == 2
    assert d["d"] == 7
    normalized = parse_element(d["normalized"])
    for w in normalized.terms:
        if not w.is_identity():
            assert w.exp_sum_total() != 0


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["bounds", "--d", "2"])
    assert args.command == "bounds"
    assert args.d == 2


def test_importing_the_cli_skips_dataclasses_inspect_and_ast():
    # every request imports lpilab.textio; these modules would add to its
    # start-up and none of them is needed there
    code = ("import sys, lpilab.textio; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"

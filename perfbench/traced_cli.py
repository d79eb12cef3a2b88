"""Run one lpilab CLI request with timing wrappers installed.

    python traced_cli.py TRACE_FILE ARG...

Imports lpilab (from PYTHONPATH), wraps the public functions of each module
under every name their callers bound them to, calls
``lpilab.textio.main(ARGS)`` and exits with its return code, so stdout and
the exit code are those of ``python -m lpilab ARGS``. The collected counts,
times and spans go to TRACE_FILE as JSON.

Entry points (the CLI, the checkers, the evaluators, the parser and
``standard_polynomial``) get spans: name, start, end and parent. Hot
primitives (matrix and quotient products, ring operations) get aggregated
counters and time only, so the trace stays bounded. Every timed call adds
its duration to the caller's child time, so a module's self time is the
time its wrapped calls spent outside wrapped calls into other code.

Worker processes forked by a multi-worker scan restore the original
functions at fork, so only this process is traced.
"""

import functools
import json
import os
import sys
import time

import lpilab
from lpilab import checkers, group_algebra, matrix_algebra, quotient_algebra, rings, textio

CHECKER_ENTRY_POINTS = (
    "check_lpi", "al_verify", "check_group_identity", "nil_exponent_search",
    "square_zero_nilpotency", "finite_annihilator", "idempotent_centrality",
    "quotient_pi_check", "minimal_polynomial", "vandermonde_nil",
    "infinite_counterexample", "bounds_from_d", "s3_expand",
)


class Tracer:
    def __init__(self):
        self.patched = []  # (owner, name, original), to restore in workers
        self.missing = []  # names a refactor removed; their metrics read 0
        self.calls = {}  # key -> [count]
        self.self_s = {}  # module -> [seconds outside wrapped callees]
        self.group_s = {}  # group -> [seconds in outermost calls of the group]
        self.group_depth = {}
        self.unit_draws = [0, 0]  # candidates examined, units returned
        self.spans = []  # [name, start, end, parent index]
        self._open_spans = []
        self._child_time = []  # one accumulator per open timed call

    def counter(self, key):
        return self.calls.setdefault(key, [0])

    def patch(self, owners, name, wrap):
        """Wrap ``owners[0].name`` and rebind it on every owner that binds
        the same object, so calls through imported names are seen too."""
        original = getattr(owners[0], name, None)
        if original is None:
            self.missing.append(f"{getattr(owners[0], '__name__', owners[0])}.{name}")
            return
        wrapped = wrap(original)
        for owner in owners:
            if getattr(owner, name, None) is original:
                self.patched.append((owner, name, original))
                setattr(owner, name, wrapped)

    def restore(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)

    def timed(self, key, module, group=None, span=False):
        calls = self.counter(key)
        self_acc = self.self_s.setdefault(module, [0.0])
        group_acc = self.group_s.setdefault(group, [0.0])
        depth = self.group_depth.setdefault(group, [0])
        child_time = self._child_time
        spans = self.spans
        open_spans = self._open_spans
        clock = time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                depth[0] += 1
                children = [0.0]
                child_time.append(children)
                if span:
                    sid = len(spans)
                    spans.append([key, 0.0, 0.0, open_spans[-1] if open_spans else None])
                    open_spans.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    child_time.pop()
                    if child_time:
                        child_time[-1][0] += dt
                    self_acc[0] += dt - children[0]
                    depth[0] -= 1
                    if depth[0] == 0:
                        group_acc[0] += dt
                    if span:
                        spans[sid][1] = t0
                        spans[sid][2] = t1
                        open_spans.pop()

            return wrapper

        return wrap

    def generator(self, key, module):
        """Time each step of a generator as a call, count what it yields."""
        step = self.timed(key + ".step", module)(next)
        yields = self.counter(key)

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    yields[0] += 1
                    yield item

            return wrapper

        return wrap

    def unit_search(self, source_key, is_generator):
        """Tally candidates drawn from ``source_key`` against units returned."""
        source = self.counter(source_key)
        tally = self.unit_draws

        def wrap(fn):
            if is_generator:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    before = source[0]
                    try:
                        for unit in fn(*args, **kwargs):
                            tally[1] += 1
                            yield unit
                    finally:
                        tally[0] += source[0] - before
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    before = source[0]
                    try:
                        unit = fn(*args, **kwargs)
                        tally[1] += 1
                        return unit
                    finally:
                        tally[0] += source[0] - before
            return wrapper

        return wrap

    def count_only(self, key, arity):
        count = self.counter(key)

        def wrap(fn):
            if arity == 1:
                def wrapper(ring, a):
                    count[0] += 1
                    return fn(ring, a)
            elif arity == 2:
                def wrapper(ring, a, b):
                    count[0] += 1
                    return fn(ring, a, b)
            else:
                def wrapper(*args, **kwargs):
                    count[0] += 1
                    return fn(*args, **kwargs)
            return functools.wraps(fn)(wrapper)

        return wrap

    def report(self):
        return {
            "calls": {k: v[0] for k, v in self.calls.items()},
            "self_s": {k: v[0] for k, v in self.self_s.items()},
            "group_s": {k: v[0] for k, v in self.group_s.items() if k is not None},
            "unit_draws": {"candidates": self.unit_draws[0], "units": self.unit_draws[1]},
            "spans": self.spans,
            "missing": self.missing,
        }


def install(tr):
    """Wrap every traced name in place."""
    ma, qa, ga = matrix_algebra, quotient_algebra, group_algebra
    Matrix, Algebra = ma.Matrix, ma.Algebra
    Quotient, Laurent = qa.QuotientElement, ga.LaurentElement

    for ring_cls in (rings.IntegerRing, rings.RationalField, rings.PrimeField):
        for op, arity in (("add", 2), ("sub", 2), ("mul", 2), ("neg", 1), ("inv", 1)):
            tr.patch([ring_cls], op, tr.count_only("rings.arith", arity))
        tr.patch([ring_cls], "coerce", tr.count_only("rings.coerce", 1))

    tr.patch([Matrix], "__init__", tr.count_only("matrix_algebra.Matrix.new", None))
    mul = tr.timed("matrix_algebra.Matrix.mul", "matrix_algebra", "matrix_algebra.mul")
    tr.patch([Matrix], "mul", mul)
    tr.patch([Matrix], "__mul__", mul)
    add = tr.timed("matrix_algebra.Matrix.add", "matrix_algebra")
    tr.patch([Matrix], "add", add)
    tr.patch([Matrix], "__add__", add)
    tr.patch([ma, checkers, lpilab], "mat_inverse",
             tr.timed("matrix_algebra.mat_inverse", "matrix_algebra", "matrix_algebra.inverse"))
    tr.patch([ma, checkers, lpilab], "evaluate",
             tr.timed("matrix_algebra.evaluate", "matrix_algebra", "matrix_algebra.evaluate",
                      span=True))
    tr.patch([Algebra], "enumerate_elements",
             tr.generator("matrix_algebra.enumerated", "matrix_algebra"))
    tr.patch([Algebra], "enumerate_units",
             lambda fn: tr.generator("matrix_algebra.enumerate_units", "matrix_algebra")(
                 tr.unit_search("matrix_algebra.enumerated", True)(fn)))
    tr.patch([Algebra], "enumerate_square_zero",
             tr.generator("matrix_algebra.enumerate_square_zero", "matrix_algebra"))
    for name in ("sample_element", "sample_square_zero"):
        tr.patch([Algebra], name,
                 tr.timed(f"matrix_algebra.{name}", "matrix_algebra", "matrix_algebra.sample"))
    tr.patch([Algebra], "sample_unit",
             lambda fn: tr.timed("matrix_algebra.sample_unit", "matrix_algebra",
                                 "matrix_algebra.sample")(
                 tr.unit_search("matrix_algebra.sample_element", False)(fn)))

    tr.patch([Quotient], "__init__", tr.count_only("quotient_algebra.QuotientElement.new", None))
    qmul = tr.timed("quotient_algebra.QuotientElement.mul", "quotient_algebra",
                    "quotient_algebra.mul")
    tr.patch([Quotient], "mul", qmul)
    tr.patch([Quotient], "__mul__", qmul)
    tr.patch([qa, checkers, lpilab], "q_evaluate",
             tr.timed("quotient_algebra.q_evaluate", "quotient_algebra",
                      "quotient_algebra.q_evaluate", span=True))
    tr.patch([qa, checkers], "sample_element",
             tr.timed("quotient_algebra.sample_element", "quotient_algebra"))

    tr.patch([ga, checkers, textio, lpilab], "standard_polynomial",
             tr.timed("group_algebra.standard_polynomial", "group_algebra",
                      "group_algebra.build", span=True))
    for name, alias in (("mul", "__mul__"), ("add", "__add__")):
        wrap = tr.timed(f"group_algebra.LaurentElement.{name}", "group_algebra",
                        "group_algebra.build")
        tr.patch([Laurent], name, wrap)
        tr.patch([Laurent], alias, wrap)

    for name in CHECKER_ENTRY_POINTS:
        tr.patch([checkers, lpilab], name,
                 tr.timed(f"checkers.{name}", "checkers", "checkers", span=True))
    for name in ("parse_element", "parse_word"):
        tr.patch([textio, lpilab], name,
                 tr.timed(f"textio.{name}", "textio", "textio.parse", span=True))
    tr.patch([textio], "main", tr.timed("textio.main", "textio", span=True))


def main(argv):
    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    os.register_at_fork(after_in_child=tracer.restore)
    code = textio.main(cli_args)
    sys.stdout.flush()
    with open(trace_file, "w") as f:
        json.dump(tracer.report(), f)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The lpilab benchmark: CLI request lists timed end to end, and a traced
run that splits the time by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every request is ``python -m lpilab
ARGS`` in a fresh interpreter with the checkout's ``src`` on PYTHONPATH, and
the next request starts when the previous one has exited: a closed loop
with one client, as a user runs the command line. Requests with
``--workers 2`` use both CPUs of a 2-CPU machine.

With ``--trace 0`` the request list runs again and again for S seconds (no
pass starts that would end past S) and the end-to-end metrics are medians
over the passes. With ``--trace 1`` the list runs once plain and once
under ``traced_cli.py``, which wraps each module's public functions; the
per-layer metrics come from the traced pass, and the traced stdout must
equal the plain stdout apart from ``elapsed_ms``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Per-request rows and the
environment header go to ``perfbench/out/``. Failed requests are counted,
never fatal. A request that fails with exactly its known defect (see
``workloads.py``) is reported on stderr and lowers ``ok_share``, but is not
counted in ``failed``; ``correct`` is false when any other request failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, judge, requests_for, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3  # before the first pass
SETUP_EVERY_S = 3.0  # then once every 3 s of timed passes, between requests
IMPORT_REPEATS = 7
REQUEST_TIMEOUT_S = 150
WARM_ARGV = ("parse", "--expr", "x1")


@dataclass
class Pass:
    wall_s: float
    rows: list
    stdouts: list


def declared(section):
    """Metric names and units of one section of BENCHMARK.json, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def metrics(values, section):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared(section).items()}


def child_env():
    """The requests' environment: this checkout's src, no LPILAB_* settings,
    temporary files inside the checkout."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LPILAB_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_request(cmd, env, stderr):
    """Run one process to its exit; return stdout, exit code, wall time and
    the resource usage of its process tree (os.wait4 includes the workers
    it waited for)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
    watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, wall, usage


def lpilab_cmd(argv):
    return [sys.executable, "-m", "lpilab", *argv]


def run_pass(reqs, env, stderr, trace_dir=None, between=lambda: None):
    """Run the list once. The pass's wall time is the sum of the requests'
    launch-to-exit times, so whatever ``between`` does after each request
    is left out of it."""
    results = []
    for i, req in enumerate(reqs):
        if trace_dir is None:
            cmd = lpilab_cmd(req.argv)
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir / f"{i}.json"),
                   *req.argv]
        results.append(run_request(cmd, env, stderr))
        between()
    wall = sum(r[2] for r in results)
    rows = []
    for req, (out, code, req_wall, usage) in zip(reqs, results):
        report, reasons = judge(req, code, out)
        rows.append({
            "argv": list(req.argv),
            "exit_code": code,
            "wall_s": req_wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024,
            "evaluations": report.get("evaluations") if report else None,
            "outcome": report.get("outcome") if report else None,
            "reasons": reasons,
            "verdict": verdict(req, reasons),
        })
    return Pass(wall, rows, [r[0] for r in results])


def checkout_lpilab(env):
    """The resolved path of the lpilab the requests import; refuse to run
    unless it is this checkout's src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import lpilab; print(lpilab.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    expected = (SRC / "lpilab" / "__init__.py").resolve()
    found = Path(probe.stdout.strip()).resolve() if probe.returncode == 0 else None
    if found != expected:
        sys.exit(f"refusing to run: lpilab imports from {found}, not from {expected}")
    return found


def git_commit():
    try:
        probe = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                               cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    lines = probe.stdout.split()
    if probe.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class SetUp:
    """The work before the first timed request: the request list from the
    seed, the checkout guard and one warm-up CLI call that also writes the
    bytecode. It is repeated and timed each time; machine speed drifts over
    seconds, so repeats spread over the whole run give a steadier median."""

    def __init__(self, args, env, stderr):
        self.args, self.env, self.stderr = args, env, stderr
        self.times = []

    def run(self, started=None):
        t0 = time.perf_counter() if started is None else started
        self.reqs = requests_for(self.args.workload, self.args.seed)
        self.lpilab_path = checkout_lpilab(self.env)
        _, code, _, _ = run_request(lpilab_cmd(WARM_ARGV), self.env, self.stderr)
        if code != 0:
            sys.exit(f"the warm-up call {' '.join(WARM_ARGV)} exited with {code}")
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def repeat_if_due(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.run()


def median_start_s(code, env):
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ratio(num, den):
    return num / den if den else 0.0


def top_checker_time(spans):
    """Seconds inside outermost checker spans of one traced request."""
    total = 0.0
    for name, start, end, parent in spans:
        outer = parent is None or not spans[parent][0].startswith("checkers.")
        if name.startswith("checkers.") and outer:
            total += end - start
    return total


def layer_metrics(reqs, plain, traced, traces, import_s):
    calls, self_s, group_s, draws = Counter(), Counter(), Counter(), Counter()
    work = Counter()
    for req, row, trace in zip(reqs, traced.rows, traces):
        if trace is None:
            continue
        calls.update(trace["calls"])
        self_s.update(trace["self_s"])
        group_s.update(trace["group_s"])
        draws.update(trace["unit_draws"])
        if req.mode in ("exhaustive", "random") and row["evaluations"]:
            work[req.mode] += row["evaluations"]
            work[req.mode + "_s"] += top_checker_time(trace["spans"])
    multi = [row for req, row in zip(reqs, plain.rows) if req.workers > 1]
    values = {
        "checkers.self_s": self_s["checkers"],
        "checkers.tuples_per_s": ratio(work["exhaustive"], work["exhaustive_s"]),
        "checkers.samples_per_s": ratio(work["random"], work["random_s"]),
        "checkers.worker_cpu_ratio": ratio(sum(r["cpu_s"] for r in multi),
                                           sum(r["wall_s"] for r in multi)),
        "matrix_algebra.mul_calls": calls["matrix_algebra.Matrix.mul"],
        "matrix_algebra.mul_s": group_s["matrix_algebra.mul"],
        "matrix_algebra.add_calls": calls["matrix_algebra.Matrix.add"],
        "matrix_algebra.new_calls": calls["matrix_algebra.Matrix.new"],
        "matrix_algebra.inverse_calls": calls["matrix_algebra.mat_inverse"],
        "matrix_algebra.inverse_s": group_s["matrix_algebra.inverse"],
        "matrix_algebra.enumerated": calls["matrix_algebra.enumerated"],
        "matrix_algebra.evaluate_calls": calls["matrix_algebra.evaluate"],
        "matrix_algebra.evaluate_s": group_s["matrix_algebra.evaluate"],
        "matrix_algebra.sample_s": group_s["matrix_algebra.sample"],
        "matrix_algebra.unit_accept_ratio": ratio(draws["units"], draws["candidates"]),
        "quotient_algebra.mul_calls": calls["quotient_algebra.QuotientElement.mul"],
        "quotient_algebra.mul_s": group_s["quotient_algebra.mul"],
        "quotient_algebra.new_calls": calls["quotient_algebra.QuotientElement.new"],
        "quotient_algebra.q_evaluate_s": group_s["quotient_algebra.q_evaluate"],
        "rings.arith_calls": calls["rings.arith"],
        "rings.coerce_calls": calls["rings.coerce"],
        "group_algebra.build_s": group_s["group_algebra.build"],
        "textio.import_s": import_s,
        "textio.self_s": self_s["textio"],
        "textio.parse_s": group_s["textio.parse"],
        "trace.overhead_ratio": ratio(traced.wall_s, plain.wall_s),
    }
    return metrics(values, "per_layer")


def strip_elapsed(text):
    return [line for line in text.splitlines() if '"elapsed_ms":' not in line]


def traced_run(reqs, env, stderr):
    plain = run_pass(reqs, env, stderr)
    import_s = median_start_s("import lpilab", env) - median_start_s("pass", env)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    traced = run_pass(reqs, env, stderr, trace_dir)
    traces = []
    for i, row in enumerate(traced.rows):
        path = trace_dir / f"{i}.json"
        traces.append(json.loads(path.read_text()) if path.exists() else None)
        if traces[-1] is None:
            row["reasons"].append("the traced request wrote no trace")
        if strip_elapsed(traced.stdouts[i]) != strip_elapsed(plain.stdouts[i]):
            row["reasons"].append("traced stdout differs from the plain CLI stdout")
        row["verdict"] = verdict(reqs[i], row["reasons"])
        row["traced_processes"] = "parent only" if reqs[i].workers > 1 else "all"
    return [plain, traced], layer_metrics(reqs, plain, traced, traces, import_s)


def timed_run(setup, seconds):
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(setup.reqs, setup.env, setup.stderr,
                               between=setup.repeat_if_due))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end_metrics(passes, setup_s):
    rows = [r for p in passes for r in p.rows]
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p.rows) for p in passes),
        "peak_rss_mb": statistics.median(max(r["max_rss_mb"] for r in p.rows) for p in passes),
        "ok_share": sum(r["verdict"] == "pass" for r in rows) / len(rows),
        "setup_s": setup_s,
    }
    return metrics(values, "end_to_end")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    env = child_env()
    with open(OUT / "stderr.log", "w") as stderr:
        setup = SetUp(args, env, stderr)
        setup.run(started)
        for _ in range(SETUP_REPEATS - 1):
            setup.run()
        header = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "lpilab": str(setup.lpilab_path),
            "commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        }
        print(json.dumps(header), flush=True)
        if args.trace:
            passes, measured = traced_run(setup.reqs, env, stderr)
            print("traced only the parent process of --workers requests; "
                  "their workers ran unwrapped", flush=True)
        else:
            passes = timed_run(setup, args.seconds)
            measured = end_to_end_metrics(passes, statistics.median(setup.times))
    rows = [r for p in passes for r in p.rows]
    failed = sum(r["verdict"] == "fail" for r in rows)
    for r in rows:
        if r["verdict"] != "pass":
            label = "KNOWN DEFECT" if r["verdict"] == "known defect" else "FAILED"
            print(f"{label} {' '.join(r['argv'])}: {'; '.join(r['reasons'])}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": measured}
    record = dict(header, setup_s_samples=setup.times, pass_wall_s=[p.wall_s for p in passes],
                  rows=rows, result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""The benchmark's own checks: the oracle, the traced CLI and the seeding.

    python3 -m pytest perfbench/tests -q

The traced-CLI test runs every request of every workload twice, plain and
traced, and takes about two minutes on a 2-CPU machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from workloads import WORKLOADS, Request, judge, requests_for, verdict  # noqa: E402

SEED = 7


def _report(outcome, evaluations=None, witness=None, **details):
    report = {"outcome": outcome, "details": details}
    if evaluations is not None:
        report["evaluations"] = evaluations
    if witness is not None:
        report["witness"] = witness
    return json.dumps(report)


COUNTEREXAMPLE = requests_for("table_scan", SEED)[5]  # S(4) on T3@Fp:2
HOLDS = requests_for("table_scan", SEED)[1]  # S(4) on M2@Fp:2
RANDOM = requests_for("plain_eval", SEED)[0]  # S(6) on M3@ZZ, budget 10
OK = requests_for("plain_eval", SEED)[6]  # annihilator on M2@Fp:3


@pytest.mark.parametrize("request_, code, stdout", [
    (COUNTEREXAMPLE, 1, _report("counterexample", 270609, {"assignment": {}},
                                tuple_space=16777216)),
    (HOLDS, 0, _report("holds", 65536, tuple_space=65536)),
    (RANDOM, 0, _report("holds", 10)),
    (OK, 0, _report("ok", degree=33, pairs_checked=81)),
])
def test_oracle_passes_the_expected_reports(request_, code, stdout):
    assert judge(request_, code, stdout)[1] == []


@pytest.mark.parametrize("request_, code, stdout, reason", [
    (COUNTEREXAMPLE, 1, _report("counterexample", 270610, {"assignment": {}}),
     "evaluations 270610"),
    (COUNTEREXAMPLE, 1, _report("counterexample", 270609), "without a witness"),
    (COUNTEREXAMPLE, 0, _report("counterexample", 270609, {"assignment": {}}), "exit code 0"),
    (HOLDS, 1, _report("holds", 65536, tuple_space=65536), "exit code 1"),
    (HOLDS, 0, _report("holds", 65535, tuple_space=65535), "evaluations 65535"),
    (HOLDS, 0, _report("holds", 65536, tuple_space=65537), "tuple space"),
    (HOLDS, 1, _report("counterexample", 12, {"assignment": {}}), "outcome"),
    (RANDOM, 0, _report("holds", 9), "budget"),
    (OK, 0, _report("ok", degree=32, pairs_checked=81), "details.degree"),
    (OK, 2, "", "no JSON report"),
])
def test_oracle_flags_doctored_reports(request_, code, stdout, reason):
    reasons = judge(request_, code, stdout)[1]
    assert any(reason in r for r in reasons), reasons


WORKER_COUNT = requests_for("table_scan", SEED)[8]  # S(3) on M2@Fp:2, two workers
NO_WITNESS = requests_for("plain_eval", SEED)[4]  # random nilbound, m-max 1


@pytest.mark.parametrize("request_, code, stdout, expected", [
    (WORKER_COUNT, 1, _report("counterexample", 312, {"assignment": {}}), "known defect"),
    (WORKER_COUNT, 1, _report("counterexample", 293, {"assignment": {}}), "pass"),
    (WORKER_COUNT, 1, _report("counterexample", 311, {"assignment": {}}), "fail"),
    (WORKER_COUNT, 1, _report("counterexample", 312), "fail"),
    (WORKER_COUNT, 0, _report("holds", 4096, tuple_space=4096), "fail"),
    (NO_WITNESS, 1, _report("counterexample", 3), "known defect"),
    (NO_WITNESS, 1, _report("counterexample", 3, {"x": 1}), "pass"),
    (NO_WITNESS, 0, _report("counterexample", 3), "fail"),
    (HOLDS, 1, _report("holds", 65536, tuple_space=65536), "fail"),
])
def test_only_the_exact_known_defect_is_spared(request_, code, stdout, expected):
    assert verdict(request_, judge(request_, code, stdout)[1]) == expected


def test_exactly_two_requests_carry_a_known_defect():
    carriers = [(w, i) for w in WORKLOADS for i, r in enumerate(WORKLOADS[w]) if r.known_defect]
    assert sorted(carriers) == [("plain_eval", 4), ("table_scan", 8)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_only_random_seeds(workload):
    one, two = requests_for(workload, 1), requests_for(workload, 2)
    for i, (a, b) in enumerate(zip(one, two)):
        if a.mode == "random":
            assert a.flag("--seed") == str(1 + i) and b.flag("--seed") == str(2 + i)
            at = a.argv.index("--seed") + 1
            assert a.argv[:at] + a.argv[at + 1:] == b.argv[:at] + b.argv[at + 1:]
        else:
            assert a == b and "--seed" not in a.argv


def test_checkout_guard_refuses_another_lpilab(tmp_path):
    (tmp_path / "lpilab").mkdir()
    (tmp_path / "lpilab" / "__init__.py").write_text("")
    env = dict(run.child_env(), PYTHONPATH=str(tmp_path))
    with pytest.raises(SystemExit):
        run.checkout_lpilab(env)
    assert run.checkout_lpilab(run.child_env()) == run.SRC / "lpilab" / "__init__.py"


ALL_REQUESTS = [(w, i, r) for w in sorted(WORKLOADS)
                for i, r in enumerate(requests_for(w, SEED))]


@pytest.mark.parametrize("request_", [r for _, _, r in ALL_REQUESTS],
                         ids=[f"{w}-{i + 1}" for w, i, _ in ALL_REQUESTS])
def test_tracing_changes_no_output(request_, tmp_path):
    env = run.child_env()
    plain = subprocess.run(run.lpilab_cmd(request_.argv), env=env, cwd=run.ROOT,
                           capture_output=True, text=True)
    trace_file = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(run.HERE / "traced_cli.py"), str(trace_file), *request_.argv],
        env=env, cwd=run.ROOT, capture_output=True, text=True,
    )
    assert traced.returncode == plain.returncode
    assert run.strip_elapsed(traced.stdout) == run.strip_elapsed(plain.stdout)
    trace = json.loads(trace_file.read_text())
    assert trace["missing"] == []
    assert trace["calls"]["textio.main"] == 1

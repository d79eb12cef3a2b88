"""The benchmark's workloads and the oracle that judges every report.

A workload is a fixed list of requests to the lpilab command line. Each
request names its argument list and the answer it must give. The answers
follow from the mathematics or were frozen from the commit that introduced
this benchmark. Only the ``--seed`` of a random-mode request depends on the
workload seed (workload seed + request index); exhaustive requests are the
same on every run.

Two requests fail the oracle until the program is fixed, and stay in their
lists so that the fix shows: ``table_scan`` #9 (with two workers ``S(3)``
on ``M2@Fp:2`` reports 312 evaluations where one worker reports 293) and
``plain_eval`` #5 (a random ``nilbound`` counterexample that carries no
witness). Each carries its known defect: the exact list of reasons the
oracle gives for it. A request that fails with exactly those reasons is a
known defect, counted apart from the other failures; one that fails in any
other way is a failure like any other, and one that passes is a pass.
"""

import json
from dataclasses import dataclass, field, replace

SEED = "{seed}"
DEFAULT_BUDGET = 1000  # lpilab's own default for --budget and --samples

EXHAUSTIVE_COMMANDS = ("check-lpi", "al-verify", "nilbound", "check-gi")
RANDOM_COMMANDS = ("quotient",)  # random whatever the flags say

COMMUTATOR_SQUARE = "(x1*x2-x2*x1)^2*x3-x3*(x1*x2-x2*x1)^2"
UNIT_COMMUTATOR = "x1*x2*x1^-1*x2^-1*x1*x2*x1^-1*x2^-1-2*x1*x2*x1^-1*x2^-1+1"


@dataclass(frozen=True)
class Request:
    """One CLI call and the answer it must give.

    ``evaluations`` is the frozen count for an exhaustive request (the
    tuple space for holds, the canonical position of the first hit for a
    counterexample). ``details`` lists report details that must match.
    ``known_defect`` is the exact list of oracle reasons of a known defect.
    """

    argv: tuple
    outcome: str
    evaluations: int = None
    details: dict = field(default_factory=dict)
    known_defect: tuple = ()

    @property
    def command(self):
        return self.argv[0]

    def flag(self, name, default=None):
        argv = self.argv
        return argv[argv.index(name) + 1] if name in argv else default

    @property
    def mode(self):
        if self.command in RANDOM_COMMANDS or self.flag("--mode") == "random":
            return "random"
        if self.command in EXHAUSTIVE_COMMANDS:
            return "exhaustive"
        return "other"

    @property
    def workers(self):
        return int(self.flag("--workers", 1))

    @property
    def budget(self):
        return int(self.flag("--budget", self.flag("--samples", DEFAULT_BUDGET)))


def _req(line, outcome, evaluations=None, known_defect=(), **details):
    return Request(tuple(line.split("|")), outcome, evaluations, details, known_defect)


WORKLOADS = {
    # Long exhaustive scans over algebras of at most 125 elements: table
    # build is negligible, the time goes to the checkers' scan loops and
    # to the two-worker split.
    "table_scan": [
        _req("al-verify|--n|2|--field|Fp:2", "holds", 65536),
        _req("check-lpi|--expr|S(4)|--algebra|M2@Fp:2", "holds", 65536),
        _req(f"check-lpi|--expr|{COMMUTATOR_SQUARE}|--algebra|M2@Fp:3", "holds", 531441),
        _req(f"check-lpi|--expr|{COMMUTATOR_SQUARE}|--algebra|M2@Fp:3|--workers|2",
             "holds", 531441),
        _req(f"check-lpi|--expr|{UNIT_COMMUTATOR}|--algebra|T2@Fp:5", "holds", 6400),
        _req("check-lpi|--expr|S(4)|--algebra|T3@Fp:2", "counterexample", 270609),
        _req("nilbound|--algebra|T3@Fp:2", "holds", 242688),
        _req("nilbound|--algebra|M2@Fp:3", "counterexample", 303993),
        _req("check-lpi|--expr|S(3)|--algebra|M2@Fp:2|--workers|2", "counterexample", 293,
             known_defect=("evaluations 312, expected 293",)),
    ],
    # Cold builds of 289- to 512-element tables, each followed by a scan
    # that ends within a few hundred tuples: the time is the N**2 matrix
    # products of the table build, repeated in every worker.
    "table_build": [
        _req("check-lpi|--expr|x1*x2-x2*x1|--algebra|M3@Fp:2", "counterexample", 515),
        _req("check-lpi|--expr|x1*x2-x2*x1|--algebra|T2@Fp:7", "counterexample", 351),
        _req("check-lpi|--expr|x1^17-x1|--algebra|D2@Fp:17|--workers|2", "holds", 289),
    ],
    # Random-mode and other table-free paths: plain matrix and quotient
    # arithmetic, sampling, inversion and large Laurent elements.
    "plain_eval": [
        _req(f"check-lpi|--expr|S(6)|--algebra|M3@ZZ|--mode|random|--seed|{SEED}|--budget|10",
             "holds"),
        _req(f"al-verify|--n|3|--field|Fp:2|--mode|random|--seed|{SEED}|--budget|5", "holds"),
        _req(f"quotient|--n|2|--samples|1000|--seed|{SEED}", "holds"),
        _req(f"nilbound|--algebra|T3@Fp:2|--mode|random|--seed|{SEED}|--budget|2000", "holds"),
        _req(f"nilbound|--algebra|T3@Fp:2|--m-max|1|--mode|random|--seed|{SEED}",
             "counterexample", known_defect=("counterexample without a witness",)),
        _req("check-gi|--word|x1*x2*x1^-1*x2^-1|--algebra|D2@Fp:11", "holds", 10000),
        _req("annihilator|--algebra|M2@Fp:3", "ok", degree=33, pairs_checked=81),
        _req("idempotents|--algebra|M3@Fp:2", "ok", idempotents=58, noncentral_count=56),
        _req("parse|--expr|S(8)", "ok", terms=40320),
    ],
}


def requests_for(workload, seed):
    """The workload's requests with each random request's seed filled in."""
    out = []
    for i, r in enumerate(WORKLOADS[workload]):
        argv = tuple(str(seed + i) if a == SEED else a for a in r.argv)
        out.append(replace(r, argv=argv))
    return out


def judge(request, exit_code, stdout):
    """Check one report against the request's expected answer.

    Returns (report or None, list of reasons the request failed). An empty
    list means the request passed.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return None, [f"exit code {exit_code} with no JSON report"]
    reasons = []
    outcome = report.get("outcome")
    evaluations = report.get("evaluations")
    details = report.get("details") or {}
    expected_exit = {"holds": 0, "ok": 0, "counterexample": 1}.get(outcome)
    if exit_code != expected_exit:
        reasons.append(f"exit code {exit_code} for outcome {outcome!r}")
    if outcome != request.outcome:
        reasons.append(f"outcome {outcome!r}, expected {request.outcome!r}")
    if outcome == "counterexample" and report.get("witness") is None:
        reasons.append("counterexample without a witness")
    if request.mode == "exhaustive" and outcome == request.outcome:
        if evaluations != request.evaluations:
            reasons.append(f"evaluations {evaluations}, expected {request.evaluations}")
        if outcome == "holds":
            space = details.get("tuple_space", details.get("quadruples"))
            if space is not None and evaluations != space:
                reasons.append(f"evaluations {evaluations} differ from the tuple space {space}")
    if request.mode == "random" and outcome == "holds" and evaluations != request.budget:
        reasons.append(f"evaluations {evaluations}, expected the budget {request.budget}")
    for key, want in request.details.items():
        if details.get(key) != want:
            reasons.append(f"details.{key} is {details.get(key)!r}, expected {want!r}")
    return report, reasons


def verdict(request, reasons):
    """Classify a judged request as "pass", "known defect" (it failed with
    exactly the reasons of its known defect) or "fail"."""
    if not reasons:
        return "pass"
    if tuple(reasons) == request.known_defect:
        return "known defect"
    return "fail"

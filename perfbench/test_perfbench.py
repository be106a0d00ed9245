"""The benchmark's own deadline, rejection and tracing bookkeeping."""

import signal

import pytest

import run
import workloads
from tracing import Tracer

# ROADMAP hang 2: the verdict is immediate (j = 0), but the cosmetic
# disc_squarefree_part field factors a 37-digit semiprime squared.
HANG = workloads.Request("classify", "hang", ["classify", "[0, 3000000000000000046000000000000000111]"])
SMALL = workloads.Request("classify", "small", ["classify", "[0, -1, 1, 0, 0]"])
DEADLINE_S = 0.5


@pytest.fixture
def modules():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        import importlib

        yield {name: importlib.import_module("squaredisc." + name) for name in run.MODULES}
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_overrun_fails_at_its_deadline_and_the_next_request_runs(modules):
    elapsed, outcomes = run.run_job(modules["cli"].main, [HANG, SMALL], DEADLINE_S)
    hang, small = outcomes
    assert hang.status == "timeout"
    assert DEADLINE_S <= hang.seconds < DEADLINE_S + 0.5
    assert small.status == "ok"
    assert elapsed < DEADLINE_S + 1.0


def test_cusp_parameter_is_rejected_not_failed(modules):
    cusp = workloads.family_request(2, 0)  # thm1 for N = 2 has t^2 in its denominator
    member = workloads.family_request(2, 3)
    _, outcomes = run.run_job(modules["cli"].main, [cusp, member], DEADLINE_S)
    assert [o.status for o in outcomes] == ["rejected", "ok"]


def test_wrong_output_is_caught():
    request = workloads.Request("classify", "small", ["classify", "[0, 1]"])
    forged = (
        '{"command": "classify", "counterexamples": [], "verdicts": ['
        '{"name": "disc", "value": "-432"}, {"name": "disc_squarefree_part", "value": "-3"},'
        '{"name": "j", "value": "0"}, {"name": "square_disc_direct", "ok": true, "value": true},'
        '{"name": "square_disc_by_j", "ok": true, "value": {"is_square": true}}]}'
    )
    assert workloads.check(request, 0, forged) == "direct verdict differs"
    assert run.judge(request, "done", 0, "{}")[0] == "wrong"


def test_tracer_counts_the_interrupted_factorization_and_closes_its_spans(modules):
    tracer = Tracer(modules)
    tracer.install()
    try:
        _, outcomes = run.run_job(modules["cli"].main, [HANG, SMALL], DEADLINE_S, tracer)
    finally:
        tracer.uninstall()
    assert [o.status for o in outcomes] == ["timeout", "ok"]
    metrics = tracer.layer_metrics()
    assert metrics["rationals.factorize.timeouts"][0] == 1
    assert metrics["classify.branch.j-zero"][0] == 1
    assert metrics["classify.branch.generic"][0] == 1
    assert all(span[2] is not None for span in tracer.spans)
    assert modules["isogeny"].rational_roots is modules["polynomials"].rational_roots

"""Benchmark for squaredisc: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload verify-all --seed 1728 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists):
  verify-all    the work of `squaredisc verify --suite all --seed SEED`
  query-stream  a closed loop of one client sending 1000 classify / family
                requests through cli.main, each with a deadline
  point-search  search_C on eight levels and search_X on two, heights near
                200; runnable, but not declared in BENCHMARK.json because
                its run-to-run spread on a noisy host exceeds any bound

A run first times a cold set-up (import, catalog, modular polynomials) in
fresh interpreters, sets up once in this process, then repeats the
workload's fixed job on warm caches for about --seconds.  With --trace 1
it instead sets up and runs the job with every layer wrapped, reports the
per-layer metrics, and alternates untraced and traced jobs to measure the
tracing overhead.  Outputs are checked independently of the program; the
result line counts failed requests (wrong output, crash, or deadline
passed).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import DeadlineExceeded, Tracer  # noqa: E402

# Per-request deadline, in seconds.  query-stream's slowest legitimate
# requests, family --N 6 at the sampled t, take up to ~0.4 s; the other
# workloads get a guard that keeps a hung run inside the harness's limit.
DEADLINE_S = {"verify-all": 60.0, "point-search": 60.0, "query-stream": 1.0}
# Cold set-ups are timed twice before the jobs and then about once per
# SETUP_EVERY_S of job time, so that their median spans the drift in host
# speed over the whole run, as run_s does.
SETUP_EVERY_S = 5.0
DIGEST_SEED = 1728
SETUP_CODE = """
import time
start = time.perf_counter()
import squaredisc
from squaredisc import families, isogeny
families.load_catalog()
isogeny.load_modular_polynomials()
print(time.perf_counter() - start)
"""
MODULES = ("rationals", "polynomials", "weierstrass", "classify", "families",
           "curve_search", "isogeny", "verify", "cli")


def _alarm(signum, frame):
    raise DeadlineExceeded()


def cold_setup_s(repeats: int) -> list[float]:
    """Set-up times of `repeats` fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Outcome:
    def __init__(self, request, seconds, status, detail, text):
        self.request = request
        self.seconds = seconds
        self.status = status  # ok, rejected, timeout, wrong, error
        self.detail = detail
        self.digest = workloads.report_digest(text) if text else None


def run_request(main, request, deadline: float) -> tuple[float, str, object, str]:
    buf = io.StringIO()
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(request.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return perf_counter() - start, "timeout", None, ""
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        return perf_counter() - start, "error", f"{type(exc).__name__}: {exc}", ""
    return perf_counter() - start, "done", rc, buf.getvalue()


def judge(request, status, rc, text) -> tuple[str, object]:
    if status != "done":
        return status, rc
    try:
        report = json.loads(text)
        if workloads.is_rejection(request, rc, report):
            return "rejected", report["counterexamples"][0]["reason"]
        reason = workloads.check(request, rc, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"malformed report: {type(exc).__name__}: {exc}"
    return ("ok", None) if reason is None else ("wrong", reason)


def run_job(main, requests, deadline, tracer=None) -> tuple[float, list[Outcome]]:
    """Send the requests one after another; check outputs after the job."""
    raw = []
    start = perf_counter()
    for index, request in enumerate(requests):
        if tracer is None:
            raw.append(run_request(main, request, deadline))
        else:
            tracer.request = index
            raw.append(run_request(lambda argv: tracer.call("cli.main", main, argv), request, deadline))
            tracer.unwind()
    elapsed = perf_counter() - start
    outcomes = []
    for request, (seconds, status, rc, text) in zip(requests, raw):
        verdict, detail = judge(request, status, rc, text)
        outcomes.append(Outcome(request, seconds, verdict, detail, text))
    return elapsed, outcomes


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"samples": n, "p50": statistics.median(ordered) if ordered else None}
    if n >= 11:
        k = n - 11
        out.update(tail=ordered[k], tail_percentile=round(100 * (k + 1) / n, 2))
    return out


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build_requests(name: str, seed: int) -> list:
    recorded = json.loads((HERE / "digests.json").read_text())
    digests = recorded["reports"] if seed == DIGEST_SEED else {}
    if name == "verify-all":
        return workloads.verify_all(seed, digests)
    if name == "point-search":
        return workloads.point_search(seed, ROOT, digests)
    return workloads.query_stream(seed)


def tally(outcomes: list[Outcome]) -> tuple[dict, int]:
    """Outcome counts and the number failed (neither ok nor rejected)."""
    counts = {}
    for o in outcomes:
        counts[o.status] = counts.get(o.status, 0) + 1
    return counts, len(outcomes) - counts.get("ok", 0) - counts.get("rejected", 0)


def metric(value, unit):
    return {"value": value, "unit": unit}


def workload_metrics(name, requests, job_times, outcomes, failed) -> dict:
    """Workload-specific metrics the benchmark prints but does not declare."""
    extra = {"fail_ratio": metric(failed / len(outcomes), "ratio")}
    if name == "point-search":
        scanned = len(job_times) * sum(workloads.candidates(r) for r in requests)
        extra["candidates_per_s"] = metric(scanned / sum(job_times), "1/s")
    for kind in ("classify", "family"):
        latency = tail([1000 * o.seconds for o in outcomes if o.request.kind == kind])
        if "tail" in latency:
            extra[kind + "_p50_ms"] = dict(metric(latency["p50"], "ms"), samples=latency["samples"])
            extra[kind + "_tail_ms"] = dict(
                metric(latency["tail"], "ms"), samples=latency["samples"], percentile=latency["tail_percentile"]
            )
    return extra


def measured_run(name, seconds, requests, cli_main, deadline, info) -> dict:
    cold_setup_s(1)  # may compile bytecode, so it is not counted
    setup_runs = cold_setup_s(2)
    job_times, outcomes = [], []
    while not job_times or sum(job_times) + job_times[-1] <= seconds:
        elapsed, done = run_job(cli_main, requests, deadline)
        job_times.append(elapsed)
        outcomes.extend(done)
        setup_runs += cold_setup_s(max(1, round(elapsed / SETUP_EVERY_S)))
    counts, failed = tally(outcomes)
    info["setup_runs_s"] = setup_runs
    info["job_runs_s"] = job_times
    info["workload_metrics"] = workload_metrics(name, requests, job_times, outcomes, failed)
    info["latency_ms_by_class"] = {
        label: tail([1000 * o.seconds for o in outcomes if o.request.label == label])
        for label in sorted({o.request.label for o in outcomes})
    }
    info["report_digests"] = {
        o.request.label: o.digest for o in outcomes[: len(requests)] if o.request.kind in ("verify", "search")
    }
    metrics = {
        "setup_s": metric(statistics.median(setup_runs), "s"),
        "run_s": metric(statistics.mean(job_times), "s"),
        "pass_ratio": metric(1 - failed / len(outcomes), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "requests_per_s": metric(counts.get("ok", 0) / sum(job_times), "1/s"),
    }
    return finish(outcomes, counts, failed, metrics, info)


def traced_run(name, seed, seconds, requests, modules, deadline, info) -> dict:
    """Cold set-up and one job under the tracer, for the per-layer metrics.

    Untraced and traced jobs then alternate while --seconds allows, and
    tracing_overhead_s compares their medians.
    """
    tracer = Tracer(modules)
    cli_main = modules["cli"].main
    tracer.install()
    try:
        tracer.call("families.load_catalog", modules["families"].load_catalog)
        tracer.call("isogeny.load_modular_polynomials", modules["isogeny"].load_modular_polynomials)
    finally:
        tracer.uninstall()
    untraced, traced, outcomes = [], [], []
    while not traced or sum(untraced) + sum(traced) + untraced[-1] + traced[-1] <= seconds:
        elapsed, done = run_job(cli_main, requests, deadline)
        untraced.append(elapsed)
        outcomes += done
        job_tracer = tracer if len(traced) == 0 else Tracer(modules)
        job_tracer.install()
        try:
            elapsed, done = run_job(cli_main, requests, deadline, job_tracer)
        finally:
            job_tracer.uninstall()
        traced.append(elapsed)
        outcomes += done
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
    info["module_self_share"] = tracer.module_shares()
    info["job_runs_s"] = {"untraced": untraced, "traced": traced}
    metrics = {k: metric(v, unit) for k, (v, unit) in tracer.layer_metrics().items()}
    metrics["tracing_overhead_s"] = metric(statistics.median(traced) - statistics.median(untraced), "s")
    counts, failed = tally(outcomes)
    return finish(outcomes, counts, failed, metrics, info)


def finish(outcomes, counts, failed, metrics, info) -> dict:
    info["outcomes"] = counts
    problems = [o for o in outcomes if o.status in ("wrong", "error")]
    info["problems"] = [
        {"request": " ".join(o.request.argv)[:200], "status": o.status, "detail": str(o.detail)[:300]}
        for o in problems[:10]
    ]
    for key, entry in sorted(metrics.items()) + sorted(info.get("workload_metrics", {}).items()):
        print(f"{key:40s} {entry['value']!r:>24} {entry['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    return {"correct": not problems, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEADLINE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "squaredisc" / "__init__.py").is_file():
        print(f"no squaredisc sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    os.environ.pop("SQUAREDISC_DATA_DIR", None)  # measure the bundled data
    sys.path.insert(0, str(ROOT / "src"))
    requests = build_requests(args.workload, args.seed)
    deadline = DEADLINE_S[args.workload]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "deadline_s": deadline,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "requests_per_job": len(requests),
    }
    modules = {name: importlib.import_module("squaredisc." + name) for name in MODULES}
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, requests, modules, deadline, info)
    else:
        modules["families"].load_catalog()
        modules["isogeny"].load_modular_polynomials()
        result = measured_run(args.workload, args.seconds, requests, modules["cli"].main, deadline, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

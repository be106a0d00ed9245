"""In-memory span tracer that wraps the names squaredisc's callers look up.

A span is (name, start, end, parent span index, request id).  Wrappers are
installed by rebinding module attributes (for example ``isogeny.rational_roots``
or ``cli.sqrt_rational``), so the program itself is untouched and every
wrapper is removed again by ``Tracer.uninstall``.  Calls made once per
candidate inside the point-search loop are counted, not spanned.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler when a request passes its deadline.

    A BaseException, so no handler inside the program can swallow it.
    """


# Span name -> (module, attribute) pairs naming every place a caller looks
# the function up.  Internal calls inside polynomials (RationalFunction
# normalisation, squarefree parts) go through ``polynomials.poly_gcd``.
SPANNED = {
    "rationals.factorize": [("rationals", "factorize"), ("weierstrass", "factorize")],
    "rationals.sqrt_rational": [
        ("classify", "sqrt_rational"),
        ("cli", "sqrt_rational"),
        ("families", "sqrt_rational"),
        ("polynomials", "sqrt_rational"),
    ],
    "polynomials.rational_roots": [("isogeny", "rational_roots")],
    "polynomials.parse": [("families", "parse_poly"), ("families", "parse_rational_function")],
    "polynomials.poly_gcd": [
        ("polynomials", "poly_gcd"),
        ("families", "poly_gcd"),
        ("curve_search", "poly_gcd"),
    ],
    "weierstrass.short_form": [("classify", "short_form")],
    "classify.square_disc_direct": [("cli", "square_disc_direct"), ("verify", "square_disc_direct")],
    "classify.square_disc_by_j": [("cli", "square_disc_by_j"), ("verify", "square_disc_by_j")],
    "families.verify_congruence": [("verify", "verify_congruence")],
    "families.theorem_eval": [
        ("verify", "theorem1_j"),
        ("verify", "theorem2_pair"),
        ("cli", "theorem1_j"),
    ],
    "curve_search.search": [
        ("verify", "search_C"),
        ("verify", "search_X"),
        ("cli", "search_C"),
        ("cli", "search_X"),
    ],
    "isogeny.chain_check": [("verify", "chain_check"), ("cli", "chain_check")],
    "isogeny.modular_poly_check": [("verify", "modular_poly_check"), ("cli", "modular_poly_check")],
    "cli.cmd": [
        ("cli", "cmd_classify"),
        ("cli", "cmd_family"),
        ("cli", "cmd_verify"),
        ("cli", "cmd_search"),
    ],
}

# verify.run_suite reaches each suite through a module-level name.
SUITES = {
    "congruences": "suite_congruences",
    "tables-C": "suite_tables_C",
    "tables-X": "suite_tables_X",
    "finite-cases": "suite_finite_cases",
    "cm": "suite_cm",
    "thm1": "suite_thm1",
    "thm2": "suite_thm2",
    "prop-equivalence": "suite_prop_equivalence",
}

# Spans that yield NAME.calls and NAME.self_s per-layer metrics.
CALL_METRICS = (
    "rationals.factorize",
    "rationals.sqrt_rational",
    "polynomials.rational_roots",
    "polynomials.parse",
    "polynomials.poly_gcd",
    "weierstrass.short_form",
    "weierstrass.invariants",
    "classify.square_disc_direct",
    "classify.square_disc_by_j",
    "families.load_catalog",
    "families.verify_congruence",
    "families.theorem_eval",
    "curve_search.search",
    "isogeny.load_modular_polynomials",
    "isogeny.chain_check",
    "isogeny.modular_poly_check",
)

BRANCHES = ("generic", "j-zero", "j-1728")


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._open: list[int] = []
        self._child: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request = None
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self._open.append(len(self.spans) - 1)
        self._child.append(0.0)

    def exit(self) -> None:
        end = perf_counter()
        index = self._open.pop()
        child = self._child.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += duration - child
        self.total_s[span[0]] += duration
        if self._child:
            self._child[-1] += duration

    def unwind(self) -> None:
        """Close spans a deadline interrupt left open."""
        while self._open:
            self.exit()

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        except DeadlineExceeded:
            self.counts[name + ".timeouts"] += 1
            raise
        finally:
            self.exit()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _spanned(self, name: str, fn, on_result=None):
        tracer = self

        def wrapped(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def install(self) -> None:
        m = self.modules
        for name, sites in SPANNED.items():
            for module, attr in sites:
                owner = m[module]
                on_result = None
                if name == "classify.square_disc_by_j":
                    on_result = self._count_branch
                elif name == "curve_search.search":
                    on_result = self._count_points
                self._patch(owner, attr, self._spanned(name, getattr(owner, attr), on_result))
        for label, attr in SUITES.items():
            owner = m["verify"]
            self._patch(owner, attr, self._spanned("verify.suite." + label, getattr(owner, attr)))
        general = m["weierstrass"].GeneralModel
        self._patch(general, "invariants", self._spanned("weierstrass.invariants", general.invariants))
        self._patch(m["curve_search"], "_height_box", self._counted_box(m["curve_search"]._height_box))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_branch(self, verdict) -> None:
        branch = {"generic-j": "generic"}.get(verdict.branch, verdict.branch)
        self.counts["classify.branch." + branch] += 1

    def _count_points(self, points) -> None:
        self.counts["curve_search.points"] += len(points)

    def _counted_box(self, box):
        tracer = self

        def counted(H):
            n = 0
            try:
                for h in box(H):
                    n += 1
                    yield h
            finally:
                tracer.counts["curve_search.candidates"] += n

        return counted

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for name in CALL_METRICS:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        out["rationals.factorize.timeouts"] = (self.counts["rationals.factorize.timeouts"], "count")
        candidates = self.counts["curve_search.candidates"]
        out["curve_search.candidates"] = (candidates, "count")
        points = self.counts["curve_search.points"]
        out["curve_search.hit_ratio"] = (points / candidates if candidates else 0.0, "ratio")
        for branch in BRANCHES:
            out["classify.branch." + branch] = (self.counts["classify.branch." + branch], "count")
        for label in SUITES:
            out[f"verify.suite.{label}_s"] = (self.total_s["verify.suite." + label], "s")
        out["cli.overhead_s"] = (self.self_s["cli.main"], "s")
        return out

    def module_shares(self) -> dict:
        """Share of all traced self time, by the module a span is named after."""
        per_module: defaultdict = defaultdict(float)
        for name, seconds in self.self_s.items():
            per_module[name.split(".")[0]] += seconds
        total = sum(per_module.values()) or 1.0
        return {module: per_module[module] / total for module in sorted(per_module)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")

"""Seeded inputs for each workload and independent checks of the outputs.

Every request is a ``squaredisc`` command line that the benchmark runs
through ``cli.main(argv)`` in process.  The checks here never call the
program: discriminants come from the b2 ... b8 formulas, squares from
``math.isqrt`` and point tables from the catalog file's own text.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

# ---------------------------------------------------------------------------
# exact arithmetic used by the checks


def is_square(r: Fraction) -> bool:
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def long_invariants(a1, a2, a3, a4, a6) -> tuple[Fraction, Fraction]:
    """(disc, c4) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return Fraction(disc), Fraction(b2 * b2 - 24 * b4)


def change_coordinates(model, u, r, s, t) -> list[Fraction]:
    """The model in coordinates x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    a1, a2, a3, a4, a6 = model
    return [
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * t) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6,
    ]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, k = n - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
        if _is_prime(n):
            return n


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    kind: str  # classify, family, search, verify
    label: str  # input class, for per-class latency and digests
    argv: list[str]
    expected: object = None  # search: the stated point table
    digest: Optional[str] = None  # SHA-256 the report must have


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _classify(label: str, coeffs) -> Request:
    return Request("classify", label, ["classify", json.dumps([str(c) for c in coeffs])])


def _integer_model(rng: random.Random, lo: int, hi: int) -> list[int]:
    while True:
        coeffs = [rng.choice((-1, 1)) * rng.randint(lo, hi) for _ in range(5)]
        if long_invariants(*coeffs)[0] != 0:
            return coeffs


def _exceptional_model(rng: random.Random, j: int) -> list[Fraction]:
    """A j = 0 or j = 1728 long model reached from y^2 = x^3 + B (or + A x)
    by a random coordinate change whose entries share one denominator, a
    product of two random 19-digit primes."""
    q = _random_prime(rng, 19) * _random_prime(rng, 19)

    def entry() -> Fraction:
        return Fraction(rng.randint(1, 10 ** 20) * rng.choice((-1, 1)), q)

    c = rng.choice((-1, 1)) * rng.randint(1, 50)
    base = [Fraction(0)] * 5
    base[4 if j == 0 else 3] = Fraction(c)
    model = change_coordinates(base, entry(), entry(), entry(), entry())
    disc, c4 = long_invariants(*model)
    if disc == 0 or c4 ** 3 / disc != j:
        raise AssertionError("coordinate change moved j")
    return model


# Request classes of one query-stream job and how many of each it holds.
# Small-height classify requests are the majority; 4-6-digit coefficients
# and the exceptional-j models with large denominators are minorities that
# drive factoring, which the program does with unbounded effort.
QUERY_MIX = (
    ("classify-small", 812),
    ("classify-4digit", 24),
    ("classify-5digit", 12),
    ("classify-6digit", 6),
    ("classify-j0-bigden", 3),
    ("classify-j1728-bigden", 3),
    ("family-N2", 20),
    ("family-N3", 20),
    ("family-N7", 20),
    ("family-N4", 40),
    ("family-N6", 20),
    ("family-N8", 20),
)


def _sample_t(rng: random.Random) -> Fraction:
    # Numerator and denominator come from narrow bands, so the cost of a
    # family request, which grows with the height of t, varies little.
    # 0 < |t| < 1 keeps t off the cusps of the thm1 families: 0, -1, -2, -3, -3/2.
    return Fraction(rng.choice((-1, 1)) * rng.randint(12, 20), rng.randint(21, 30))


def family_request(n: int, t) -> Request:
    # --t=VALUE keeps argparse from reading a negative value as an option
    return Request("family", f"family-N{n}", ["family", "--N", str(n), f"--t={t}"])


def query_stream(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for label, count in QUERY_MIX:
        for _ in range(count):
            if label == "classify-small":
                requests.append(_classify(label, _integer_model(rng, 0, 20)))
            elif label.endswith("digit"):
                digits = int(label[len("classify-")])
                requests.append(_classify(label, _integer_model(rng, 10 ** (digits - 1), 10 ** digits - 1)))
            elif label == "classify-j0-bigden":
                requests.append(_classify(label, _exceptional_model(rng, 0)))
            elif label == "classify-j1728-bigden":
                requests.append(_classify(label, _exceptional_model(rng, 1728)))
            else:
                requests.append(family_request(int(label[len("family-N"):]), _sample_t(rng)))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# point search

SEARCH_C_LEVELS = (5, 9, 10, 12, 13, 16, 18, 25)
SEARCH_X_LEVELS = (6, 8)
HEIGHT_BAND = (196, 204)


def stated_tables(root: Path) -> dict[tuple[str, int], list[tuple[Fraction, ...]]]:
    """pointsC / pointsX lines of the bundled catalog, canonically ordered."""
    tables = {}
    level = None
    text = (root / "src" / "squaredisc" / "data" / "families.txt").read_text()
    for line in text.splitlines():
        header = re.match(r"\[family\s+(\d+)\]", line.strip())
        if header:
            level = int(header.group(1))
            continue
        match = re.match(r"points([CX])\s*=(.*)", line.strip())
        if match and level is not None:
            points = [
                tuple(Fraction(part.strip()) for part in chunk.split(","))
                for chunk in re.findall(r"\(([^)]*)\)", match.group(2))
            ]
            points.sort(key=lambda p: (p[0].denominator, p[0].numerator) + p[1:])
            tables[(match.group(1), level)] = points
    return tables


def point_search(seed: int, root: Path, digests: dict) -> list[Request]:
    rng = random.Random(seed)
    tables = stated_tables(root)
    requests = []
    for which, levels in (("C", SEARCH_C_LEVELS), ("X", SEARCH_X_LEVELS)):
        for n in levels:
            height = rng.randint(*HEIGHT_BAND)
            label = f"{which}_{n}@{height}"
            argv = ["search", "--N", str(n), "--which", which, "--height", str(height)]
            requests.append(Request("search", label, argv, tables[(which, n)], digests.get(label)))
    rng.shuffle(requests)
    return requests


def candidates(request: Request) -> int:
    """Fractions a/b in lowest terms with |a| <= H, 0 < b <= H."""
    H = int(request.argv[-1])
    return sum(1 for b in range(1, H + 1) for a in range(-H, H + 1) if math.gcd(a, b) == 1)


def verify_all(seed: int, digests: dict) -> list[Request]:
    label = "verify-all"
    return [Request("verify", label, ["verify", "--suite", "all", "--seed", str(seed)], None, digests.get(label))]


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def _check_classify(request: Request, report: dict) -> Optional[str]:
    coeffs = [Fraction(c) for c in json.loads(request.argv[1])]
    if len(coeffs) == 2:  # short model [A, B]
        coeffs = [Fraction(0)] * 3 + coeffs
    disc, c4 = long_invariants(*coeffs)
    verdicts = {v["name"]: v for v in report["verdicts"]}
    square = is_square(disc)
    if verdicts["disc"]["value"] != str(disc):
        return "disc differs"
    if verdicts["j"]["value"] != str(c4 ** 3 / disc):
        return "j differs"
    if verdicts["square_disc_direct"]["value"] is not square:
        return "direct verdict differs"
    if verdicts["square_disc_by_j"]["value"]["is_square"] is not square:
        return "j-route verdict differs"
    part = verdicts["disc_squarefree_part"]["value"]
    if part is not None and not is_square(disc / Fraction(part)):
        return "disc / disc_squarefree_part is not a square"
    return None


def _check_family(report: dict) -> Optional[str]:
    verdicts = {v["name"]: v for v in report["verdicts"]}
    A, B = (Fraction(c) for c in verdicts["model"]["value"])
    disc = -16 * (4 * A ** 3 + 27 * B ** 2)
    if verdicts["disc"]["value"] != str(disc):
        return "disc differs"
    root = verdicts["disc_sqrt"]["value"]
    if root is None or Fraction(root) ** 2 != disc:
        return "disc_sqrt does not square to disc"
    if verdicts["isogeny_oracle"]["ok"] is not True:
        return "isogeny oracle not ok"
    return None


def _check_search(request: Request, report: dict) -> Optional[str]:
    found = [tuple(Fraction(c) for c in point) for point in report["verdicts"][0]["points"]]
    if found != request.expected:
        return "points differ from the stated table"
    return None


def _check_verify(report: dict) -> Optional[str]:
    if any(v.get("ok") is False for v in report["verdicts"]):
        return "a verdict failed"
    return None


def is_rejection(request: Request, rc: int, report: dict) -> bool:
    """The program refused a family parameter at a cusp."""
    reasons = [c.get("reason", "") for c in report["counterexamples"]]
    return (
        request.kind == "family"
        and rc == 1
        and not report["verdicts"]
        and len(reasons) == 1
        and reasons[0].startswith("error: pole at")
    )


def check(request: Request, rc: int, text: str) -> Optional[str]:
    report = json.loads(text)
    if request.digest is not None and report_digest(text) != request.digest:
        return "report bytes differ from the recorded digest"
    if rc != 0 or report["counterexamples"]:
        return f"exit code {rc} with counterexamples {report['counterexamples'][:1]}"
    if request.kind == "classify":
        return _check_classify(request, report)
    if request.kind == "family":
        return _check_family(report)
    if request.kind == "search":
        return _check_search(request, report)
    return _check_verify(report)

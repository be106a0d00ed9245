"""Named verification suites shared by the CLI and the acceptance tests.

Every suite returns (verdicts, counterexamples): a list of per-item
verdict records in a fixed canonical order, and a list of counterexample
records that is empty exactly when every verdict holds.  Randomized
suites draw their samples from an explicit seed, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .classify import (
    cm_isogeny_graph,
    cm_nonsquare_scan,
    square_disc_by_j,
    square_disc_direct,
)
from .curve_search import cusp_check, search_C, search_X, table_levels_C, table_levels_X
from .families import (
    ALL_LEVELS,
    THEOREM1_LEVELS,
    THEOREM2_LEVELS,
    family,
    finite_cases_scan,
    theorem1_j,
    theorem2_pair,
    verify_congruence,
)
from .isogeny import chain_check, load_modular_polynomials, modular_poly_check
from .polynomials import PoleError
from .rationals import is_square_rational
from .weierstrass import ShortModel, quadratic_twist, quartic_twist, sextic_twist

SUITES = (
    "congruences",
    "tables-C",
    "tables-X",
    "finite-cases",
    "cm",
    "thm1",
    "thm2",
    "prop-equivalence",
    "all",
)

DEFAULT_SEED = 1728
DEFAULT_SAMPLES = 100
DEFAULT_HEIGHT = 50

_SAMPLE_LIMIT = 40  # numerators/denominators of sampled parameters


def _sample_fraction(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-_SAMPLE_LIMIT, _SAMPLE_LIMIT)
    return Fraction(num, rng.randint(1, _SAMPLE_LIMIT))


def suite_congruences(data_dir: Optional[str] = None):
    verdicts, bad = [], []
    for n in ALL_LEVELS:
        res = verify_congruence(n, data_dir)
        for side, ok, witness in (
            ("F", res.ok_F, res.witness_F),
            ("G", res.ok_G, res.witness_G),
        ):
            record = {
                "name": f"congruence N={n} {side}-side",
                "ok": ok,
                "witness": witness.to_string() if witness is not None else None,
            }
            verdicts.append(record)
            if not ok:
                bad.append(record)
    return verdicts, bad


def suite_tables_C(height: int = DEFAULT_HEIGHT, data_dir: Optional[str] = None):
    verdicts, bad = [], []
    for n in table_levels_C(data_dir):
        fam = family(n, data_dir)
        found = tuple(p.as_tuple() for p in search_C(n, height, data_dir))
        expected = tuple(sorted(fam.known_points_C, key=lambda p: (p[0].denominator, p[0].numerator, p[1])))
        ok = found == expected
        record = {
            "name": f"C_{n} affine points at height {height}",
            "ok": ok,
            "found": [[str(h), str(y)] for h, y in found],
        }
        verdicts.append(record)
        if not ok:
            record["expected"] = [[str(h), str(y)] for h, y in expected]
            bad.append(record)
        for row in cusp_check(n, "C", data_dir):
            crec = {"name": f"C_{n} cusp {row['point']}", "ok": row["ok"]}
            verdicts.append(crec)
            if not row["ok"]:
                bad.append(crec)
    return verdicts, bad


def suite_tables_X(height: int = DEFAULT_HEIGHT, data_dir: Optional[str] = None):
    verdicts, bad = [], []
    for n in table_levels_X(data_dir):
        fam = family(n, data_dir)
        found = tuple(p.as_tuple() for p in search_X(n, height, data_dir))
        expected = tuple(
            sorted(fam.known_points_X, key=lambda p: (p[0].denominator, p[0].numerator, p[1], p[2]))
        )
        ok = found == expected
        record = {
            "name": f"X_{n} affine points at height {height}",
            "ok": ok,
            "found": [[str(h), str(y), str(z)] for h, y, z in found],
        }
        verdicts.append(record)
        if not ok:
            record["expected"] = [[str(h), str(y), str(z)] for h, y, z in expected]
            bad.append(record)
        for row in cusp_check(n, "X", data_dir):
            crec = {"name": f"X_{n} cusp {row['point']}", "ok": row["ok"]}
            verdicts.append(crec)
            if not row["ok"]:
                bad.append(crec)
    return verdicts, bad


def suite_finite_cases(data_dir: Optional[str] = None):
    verdicts, bad = [], []
    for row in finite_cases_scan(data_dir):
        record = {"name": f"finite N={row['N']} j={row['j']}", "ok": row["ok"], **row}
        verdicts.append(record)
        if not row["ok"]:
            bad.append(record)
    return verdicts, bad


def suite_cm(data_dir: Optional[str] = None):
    verdicts, bad = [], []

    def add(name: str, ok: bool, **extra):
        record = {"name": name, "ok": ok, **extra}
        verdicts.append(record)
        if not ok:
            bad.append(record)

    for t in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)):
        graph = cm_isogeny_graph(t)
        t6 = t ** 6
        add(
            f"CM graph t={t}: disc(E_4t2) = -2^12 t^6",
            graph.quotient_1728.discriminant == -(2 ** 12) * t6,
        )
        add(
            f"CM graph t={t}: disc(E'_t) = 2^9 t^6",
            graph.quotient_plus.discriminant == 2 ** 9 * t6
            and graph.quotient_minus.discriminant == 2 ** 9 * t6,
        )
        add(
            f"CM graph t={t}: quotient discs are non-square",
            not is_square_rational(graph.quotient_1728.discriminant)
            and not is_square_rational(graph.quotient_plus.discriminant),
        )
        center_verdict = square_disc_by_j(graph.center)
        add(
            f"CM graph t={t}: y^2 = x^3 - t^2 x has square disc",
            center_verdict.is_square and square_disc_direct(graph.center),
        )
    for row in cm_nonsquare_scan():
        add(f"CM j={row['j']}: j - 1728 non-square", row["ok"])
    return verdicts, bad


def suite_thm1(
    samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED, data_dir: Optional[str] = None
):
    verdicts, bad = [], []
    rng = random.Random(seed)
    routed_model = ShortModel(-1, 0)  # the square-disc representative at j = 1728
    for n in THEOREM1_LEVELS:
        fam = family(n, data_dir)
        identity_ok = fam.thm1_j == fam.j_map.compose(fam.h_param_C)
        record = {"name": f"thm1 N={n}: closed form equals j_map(h_param)", "ok": identity_ok}
        verdicts.append(record)
        if not identity_ok:
            bad.append(record)
        failures = []
        routed = 0
        done = 0
        while done < samples:
            t = _sample_fraction(rng)
            try:
                j = theorem1_j(n, t, data_dir)
            except PoleError:
                continue
            done += 1
            if j == 1728:
                routed += 1
                if not square_disc_by_j(routed_model).is_square:
                    failures.append({"t": str(t), "reason": "j-1728 branch rejected"})
            elif not is_square_rational(j - 1728):
                failures.append({"t": str(t), "j": str(j), "reason": "j - 1728 not a square"})
        record = {
            "name": f"thm1 N={n}: {samples} sampled j values satisfy the square criterion",
            "ok": not failures,
            "routed_to_1728_branch": routed,
        }
        verdicts.append(record)
        if failures:
            record["failures"] = failures
            bad.append(record)
    return verdicts, bad


def suite_thm2(
    samples: int = 50, seed: int = DEFAULT_SEED, data_dir: Optional[str] = None
):
    verdicts, bad = [], []
    rng = random.Random(seed)
    for n in THEOREM2_LEVELS:
        fam = family(n, data_dir)
        identity_ok = (
            fam.thm2_pair[0] == fam.j_map.compose(fam.h_param_X)
            and fam.thm2_pair[1] == fam.jprime_map.compose(fam.h_param_X)
        )
        record = {"name": f"thm2 N={n}: closed forms equal the composed j-maps", "ok": identity_ok}
        verdicts.append(record)
        if not identity_ok:
            bad.append(record)
        failures = []
        done = 0
        while done < samples:
            t = _sample_fraction(rng)
            try:
                j1, j2 = theorem2_pair(n, t, data_dir)
                h0 = fam.h_param_X(t)
            except PoleError:
                continue
            if n == 4 and (j1 in (0, 1728) or j2 in (0, 1728)):
                # the chain oracle needs a twist-unambiguous start model
                continue
            done += 1
            for label, j in (("j", j1), ("j_prime", j2)):
                if j == 1728:
                    if not square_disc_by_j(ShortModel(-1, 0)).is_square:
                        failures.append({"t": str(t), "reason": f"{label} 1728-branch rejected"})
                elif not is_square_rational(j - 1728):
                    failures.append({"t": str(t), label: str(j), "reason": f"{label} - 1728 not a square"})
            if n in (2, 3, 7):
                oracle_ok = modular_poly_check(n, j1, j2, data_dir)
            else:
                oracle_ok = chain_check(n, h0, data_dir)
            if not oracle_ok:
                failures.append({"t": str(t), "reason": "isogeny oracle rejected the pair"})
        record = {
            "name": f"thm2 N={n}: {samples} sampled pairs pass square criteria and the isogeny oracle",
            "ok": not failures,
        }
        verdicts.append(record)
        if failures:
            record["failures"] = failures
            bad.append(record)
    return verdicts, bad


def _random_short_model(rng: random.Random) -> ShortModel:
    while True:
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        m = ShortModel(a, b)
        if not m.is_singular():
            return m


def _random_twisted_model(rng: random.Random) -> ShortModel:
    d = _sample_fraction(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return _random_short_model(rng)
    if kind == 1:
        return quadratic_twist(_random_short_model(rng), d)
    if kind == 2:
        a = Fraction(rng.randint(1, 20), rng.randint(1, 10)) * rng.choice((1, -1))
        return quartic_twist(a, d)
    b = Fraction(rng.randint(1, 20), rng.randint(1, 10)) * rng.choice((1, -1))
    return sextic_twist(b, d)


def suite_prop_equivalence(
    samples: int = 1000, seed: int = DEFAULT_SEED, data_dir: Optional[str] = None
):
    """The central equivalence: the j-route classifier must agree with the
    direct discriminant square test on random twisted models."""
    rng = random.Random(seed)
    disagreements = []
    for i in range(samples):
        m = _random_twisted_model(rng)
        direct = square_disc_direct(m)
        routed = square_disc_by_j(m)
        if direct != routed.is_square:
            disagreements.append(
                {
                    "index": i,
                    "model": [str(m.A), str(m.B)],
                    "direct": direct,
                    "by_j": routed.as_dict(),
                }
            )
    record = {
        "name": f"square-disc classifiers agree on {samples} random twisted models",
        "ok": not disagreements,
        "disagreements": len(disagreements),
    }
    return [record], disagreements


def suite_oracle_agreement(
    samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED, data_dir: Optional[str] = None
):
    """Velu chains and modular polynomials must agree for N in {2, 3}."""
    rng = random.Random(seed)
    verdicts, bad = [], []
    load_modular_polynomials(data_dir)  # hard-fails on bad data
    for n in (2, 3):
        fam = family(n, data_dir)
        failures = []
        done = 0
        while done < samples:
            h0 = _sample_fraction(rng)
            try:
                j1 = fam.j_map(h0)
                j2 = fam.jprime_map(h0)
            except PoleError:
                continue
            if j1 in (0, 1728) or j2 in (0, 1728):
                continue  # chain start twist would be ambiguous
            done += 1
            chain = chain_check(n, h0, data_dir)
            modular = modular_poly_check(n, j1, j2, data_dir)
            if chain != modular:
                failures.append({"h": str(h0), "chain": chain, "modular": modular})
        record = {
            "name": f"oracle agreement N={n} on {samples} points",
            "ok": not failures,
        }
        verdicts.append(record)
        if failures:
            record["failures"] = failures
            bad.append(record)
    return verdicts, bad


_SUITE_TABLE = {
    "congruences": lambda height, samples, seed, data_dir: suite_congruences(data_dir),
    "tables-C": lambda height, samples, seed, data_dir: suite_tables_C(height, data_dir),
    "tables-X": lambda height, samples, seed, data_dir: suite_tables_X(height, data_dir),
    "finite-cases": lambda height, samples, seed, data_dir: suite_finite_cases(data_dir),
    "cm": lambda height, samples, seed, data_dir: suite_cm(data_dir),
    "thm1": lambda height, samples, seed, data_dir: suite_thm1(samples, seed, data_dir),
    "thm2": lambda height, samples, seed, data_dir: suite_thm2(min(samples, 50), seed, data_dir),
    "prop-equivalence": lambda height, samples, seed, data_dir: suite_prop_equivalence(
        max(samples, 1000), seed, data_dir
    ),
}


def run_suite(
    name: str,
    height: int = DEFAULT_HEIGHT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    data_dir: Optional[str] = None,
):
    if name == "all":
        verdicts, bad = [], []
        for suite in _SUITE_TABLE.values():
            v, b = suite(height, samples, seed, data_dir)
            verdicts.extend(v)
            bad.extend(b)
        return verdicts, bad
    if name not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return _SUITE_TABLE[name](height, samples, seed, data_dir)

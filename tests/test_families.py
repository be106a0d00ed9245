"""The family catalog: congruences, closed-form identities, finite levels."""

import json
import os
import random
import shutil
from fractions import Fraction as F

import pytest
import sympy

from squaredisc.cli import main
from squaredisc.families import (
    ALL_LEVELS,
    THEOREM1_LEVELS,
    THEOREM2_LEVELS,
    CatalogError,
    family,
    finite_cases,
    finite_cases_scan,
    load_catalog,
    solve_param_C,
    theorem1_j,
    theorem2_pair,
    verify_congruence,
)
from squaredisc.polynomials import PoleError, Poly, parse_poly
from squaredisc.rationals import is_square_rational

h = Poly.variable()


def test_family_records():
    fam = family(2)
    assert fam.F == h * (h + 64)
    assert fam.G == h + 64
    assert fam.h_param_C(F(1)) == 8
    fam25 = family(25)
    assert fam25.F == parse_poly("(h-1)*(h^2+4)*(h^4+h^3+6*h^2+6*h+11)", "h")
    assert fam25.genus_C == 3 and fam25.thm1_j is None and fam25.h_param_X is None
    with pytest.raises(KeyError):
        family(11)  # finitely many classes: not a parametrized family


def test_field_presence_matches_theorem_sets():
    for n in ALL_LEVELS:
        fam = family(n)
        assert (fam.thm1_j is not None) == (n in THEOREM1_LEVELS)
        assert (fam.thm2_pair is not None) == (n in THEOREM2_LEVELS)
        assert (fam.h_param_C is not None) == (fam.genus_C == 0)
        if n in (3, 7):
            assert fam.F == fam.G


def test_catalog_against_sympy_expansion():
    """Independent cross-check of the parser and the stored coefficients."""
    x = sympy.Symbol("h")
    for n in ALL_LEVELS:
        fam = family(n)
        raw = {}
        # re-read the factored strings straight from the data file
        path = os.path.join(os.path.dirname(os.path.abspath(family.__code__.co_filename)), "data", "families.txt")
        block = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("[family"):
                    block = int(line.split()[1].rstrip("]"))
                if block == n and "=" in line and not line.startswith("#"):
                    key, _, value = line.partition("=")
                    raw[key.strip()] = value.strip()
        expr = sympy.together(sympy.sympify(raw["jmap"].replace("^", "**")))
        num, den = sympy.fraction(sympy.cancel(expr))
        ours = sum(sympy.Rational(c) * x ** i for i, c in enumerate(fam.j_map.num.coeffs))
        lc = sympy.Poly(den, x).LC()
        assert sympy.expand(num / lc - ours) == 0, n


def test_congruences_all_levels():
    for n in ALL_LEVELS:
        res = verify_congruence(n)
        assert res.ok, n
        assert res.witness_F * res.witness_F == (family(n).j_map - 1728) * family(n).F
        assert res.witness_G * res.witness_G == (family(n).jprime_map - 1728) * family(n).G


def test_congruence_witnesses_level2():
    res = verify_congruence(2)
    assert res.witness_F.num == (h - 8) * (h + 64) or res.witness_F.num == -(h - 8) * (h + 64)
    assert res.witness_G.den == h


def test_theorem1_values():
    assert theorem1_j(2, 1) == 1728
    assert theorem1_j(2, 3) == F(52 ** 3, 36)  # = j_2(16*9/4) = j_2(36)
    fam3 = family(3)
    assert theorem1_j(3, 5) == fam3.j_map(F(25))
    with pytest.raises(PoleError):
        theorem1_j(2, 0)
    with pytest.raises(PoleError):
        theorem1_j(2, -1)
    with pytest.raises(ValueError, match="not in the one-curve family"):
        theorem1_j(5, 1)


def test_theorem1_matches_composition_pointwise():
    rng = random.Random(41)
    for n in THEOREM1_LEVELS:
        fam = family(n)
        done = 0
        while done < 25:
            t = F(rng.randint(-40, 40) or 1, rng.randint(1, 40))
            try:
                expected = fam.j_map(fam.h_param_C(t))
                got = theorem1_j(n, t)
            except PoleError:
                continue
            assert got == expected, (n, t)
            done += 1


def test_theorem2_values():
    assert theorem2_pair(3, 3) == (6912, 790272)
    fam7 = family(7)
    j1, j2 = theorem2_pair(7, 1)
    assert (j1, j2) == (fam7.j_map(F(1)), fam7.jprime_map(F(1)))
    assert j1 == 63 * 7 ** 3 and j2 == 63 * 2647 ** 3
    for bad_t in (-1, 0, 1):
        with pytest.raises(PoleError):
            theorem2_pair(2, bad_t)
    with pytest.raises(ValueError):
        theorem2_pair(6, 1)


def test_finite_cases_data():
    cases = finite_cases()
    assert len(cases) == 14
    eleven = [c for c in cases if c.N == 11]
    assert {(c.j, c.j_prime) for c in eleven} == {(F(-24729001), F(-121)), (F(-32768), F(-32768))}
    assert [c.has_cm for c in eleven] == [False, True]
    fifteen = [c for c in cases if c.N == 15]
    assert fifteen[0].j == F(-25, 2)
    assert fifteen[0].j_prime == F(5 * 211 ** 3, 2 ** 15)
    assert fifteen[0].j_prime < 1728  # approx 1433: j' - 1728 < 0


def test_finite_cases_scan():
    rows = finite_cases_scan()
    assert all(r["ok"] for r in rows)
    lemma_rows = [r for r in rows if r["N"] in (11, 15, 17, 21, 37)]
    assert len(lemma_rows) == 8  # two rows each for 11, 15, 21
    for r in lemma_rows:
        assert r["j_minus_1728_nonsquare"] and r["j_prime_minus_1728_nonsquare"]
    cm_rows = [r for r in rows if "cm_flag_consistent" in r]
    assert {r["N"] for r in cm_rows} == {11, 14, 19, 27, 43, 67, 163}
    assert all(r["cm_flag_consistent"] for r in cm_rows)


def test_parametrization_image_is_square():
    rng = random.Random(42)
    for n in (2, 3, 4, 6, 7, 8):
        fam = family(n)
        done = 0
        while done < 200:
            t = F(rng.randint(-40, 40) or 3, rng.randint(1, 40))
            try:
                hval = fam.h_param_C(t)
                yval = fam.y_param_C(t)
            except PoleError:
                continue
            assert yval * yval == fam.F(hval), (n, t)
            assert is_square_rational(fam.F(hval))
            done += 1


def test_f_equals_g_verdict_coincidence():
    rng = random.Random(43)
    for n in (3, 7):
        fam = family(n)
        assert fam.F == fam.G
        for _ in range(50):
            h0 = F(rng.randint(-50, 50), rng.randint(1, 20))
            assert is_square_rational(fam.F(h0)) == is_square_rational(fam.G(h0))


def test_known_points_sit_on_cusps():
    for n in ALL_LEVELS:
        fam = family(n)
        for h0, _y in fam.known_points_C:
            assert fam.j_map.den(h0) == 0, (n, h0)
        for h0, _y, _z in fam.known_points_X:
            assert fam.j_map.den(h0) == 0 or fam.jprime_map.den(h0) == 0, (n, h0)


def test_solve_param_roundtrip():
    assert solve_param_C(2, 36, 60) == 3
    assert solve_param_C(2, 36, -60) == F(-3, 4)
    assert solve_param_C(8, 4, 0) == 0
    assert solve_param_C(2, 3, 1) is None
    with pytest.raises(ValueError):
        solve_param_C(5, 0, 0)


def test_corrupted_catalog_rejected(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(load_catalog.__code__.co_filename)), "data")
    work = tmp_path / "data"
    shutil.copytree(src, work)
    text = (work / "families.txt").read_text()
    # tamper with one expanded coefficient of F_2
    bad = text.replace("F.coeffs = 0 64 1", "F.coeffs = 0 65 1", 1)
    (work / "families.txt").write_text(bad)
    with pytest.raises(CatalogError, match="disagree"):
        load_catalog(str(work))


def test_zero_divisor_in_catalog_is_a_catalog_error(tmp_path, monkeypatch, capsys):
    src = os.path.join(os.path.dirname(os.path.abspath(load_catalog.__code__.co_filename)), "data")
    text = open(os.path.join(src, "families.txt")).read()
    line = "jmap    = (h+16)^3 / h\n"
    assert text.count(line) == 1
    for i, expr in enumerate(("(h+16)^3 / h / (h-h)", "(h+16)^3 * 0^-1")):
        work = tmp_path / f"data{i}"
        shutil.copytree(src, work)
        (work / "families.txt").write_text(text.replace(line, f"jmap    = {expr}\n"))
        with pytest.raises(CatalogError, match="division by zero"):
            load_catalog(str(work))
        monkeypatch.setenv("SQUAREDISC_DATA_DIR", str(work))
        assert main(["family", "--N", "2", "--t", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "division by zero" in report["counterexamples"][0]["reason"]


def test_data_dir_env_override(tmp_path, monkeypatch):
    src = os.path.join(os.path.dirname(os.path.abspath(load_catalog.__code__.co_filename)), "data")
    work = tmp_path / "data"
    shutil.copytree(src, work)
    monkeypatch.setenv("SQUAREDISC_DATA_DIR", str(work))
    assert load_catalog().family(2).F == h * (h + 64)

"""Genus computation and bounded-height point search on C_N and X_N."""

import math
from datetime import timedelta
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from squaredisc.curve_search import (
    _SquareRoot,
    cusp_check,
    genus_hyperelliptic,
    search_C,
    search_X,
    table_levels_C,
    table_levels_X,
)
from squaredisc.families import family, solve_param_C
from squaredisc.polynomials import Poly
from squaredisc.rationals import sqrt_rational

h = Poly.variable()


def test_genus_values():
    assert genus_hyperelliptic(family(5).F) == 1
    assert genus_hyperelliptic(family(2).F) == 0
    assert genus_hyperelliptic(family(25).F) == 3
    with pytest.raises(ValueError, match="singular"):
        genus_hyperelliptic((h + 1) ** 2)
    with pytest.raises(ValueError):
        genus_hyperelliptic(Poly.const(3))


def test_search_C_examples():
    got = {p.as_tuple() for p in search_C(10, 30)}
    assert got == {(F(0), F(0)), (F(4), F(0)), (F(-1), F(5)), (F(-1), F(-5))}
    got = {p.as_tuple() for p in search_C(12, 10)}
    assert got == {(F(0), F(3)), (F(0), F(-3)), (F(3), F(0)), (F(-3), F(0)), (F(1), F(0)), (F(-1), F(0))}
    assert {p.as_tuple() for p in search_C(5, 30)} == {(F(0), F(0))}


def test_search_C_ordering_is_canonical():
    pts = search_C(10, 30)
    keys = [(p.h.denominator, p.h.numerator, p.y) for p in pts]
    assert keys == sorted(keys)


def test_search_soundness_via_sympy():
    x = sympy.Symbol("h")
    for n in (2, 10, 12):
        fam = family(n)
        fx = sum(sympy.Rational(c) * x ** i for i, c in enumerate(fam.F.coeffs))
        for p in search_C(n, 12):
            assert sympy.Rational(p.y) ** 2 == fx.subs(x, sympy.Rational(p.h)), (n, p)


def test_search_monotone_in_height():
    assert set(search_C(10, 20)) <= set(search_C(10, 40))
    assert set(search_X(6, 10)) <= set(search_X(6, 30))


def test_search_X_examples():
    got = {p.as_tuple() for p in search_X(6, 12)}
    assert got == {
        (F(-9), F(3), F(0)), (F(-9), F(-3), F(0)),
        (F(-8), F(0), F(1)), (F(-8), F(0), F(-1)),
        (F(0), F(0), F(3)), (F(0), F(0), F(-3)),
    }
    got = {p.as_tuple() for p in search_X(8, 10)}
    assert got == {(F(4), F(0), F(2)), (F(4), F(0), F(-2))}
    # brute force over the height-5 box on y^2 = z^2 = h: h in {0, 1, 4, 1/4}
    pts = search_X(3, 5)
    assert len(pts) == 13
    assert {p.h for p in pts} == {F(0), F(1), F(4), F(1, 4)}


def test_genus0_points_lie_on_parametrization():
    for n in (2, 3, 4, 6, 7, 8):
        for p in search_C(n, 15):
            t = solve_param_C(n, p.h, p.y)
            assert t is not None, (n, p)
            fam = family(n)
            assert fam.h_param_C(t) == p.h and fam.y_param_C(t) == p.y


def test_table_reproduction_moderate_height():
    for n in table_levels_C():
        fam = family(n)
        got = {p.as_tuple() for p in search_C(n, 30)}
        assert got == set(fam.known_points_C), n


def _box(H):
    """The candidates a/b of height <= H, in canonical (b, a) order."""
    return [(a, b) for b in range(1, H + 1) for a in range(-H, H + 1) if math.gcd(a, b) == 1]


def _reference_roots(f, H):
    """h -> sqrt(f(h)) for the square values, evaluated over Fractions."""
    roots = {}
    for a, b in _box(H):
        y = sqrt_rational(f(F(a, b)))
        if y is not None:
            roots[F(a, b)] = y
    return roots


def _signs(y):
    return (y,) if y == 0 else (-y, y)


def test_search_matches_fraction_reference_at_every_table_level():
    for n in table_levels_C():
        ys = _reference_roots(family(n).F, 30)
        expected = [(h, y) for h, root in ys.items() for y in _signs(root)]
        assert [p.as_tuple() for p in search_C(n, 30)] == expected, n
    for n in table_levels_X():
        fam = family(n)
        ys = _reference_roots(fam.F, 30)
        zs = _reference_roots(fam.G, 30)
        expected = [
            (h, y, z) for h, root in ys.items() if h in zs for y in _signs(root) for z in _signs(zs[h])
        ]
        assert [p.as_tuple() for p in search_X(n, 30)] == expected, n


_coeffs = st.builds(F, st.integers(-(10 ** 6), 10 ** 6), st.integers(1, 60))
_candidates = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True)
@given(
    scale=_coeffs.filter(bool),
    square=st.lists(_coeffs, max_size=4),
    roots=st.lists(_candidates, max_size=3),
    rest=st.lists(_coeffs, min_size=1, max_size=5),
)
def test_integer_square_test_matches_fraction_reference(scale, square, roots, rest):
    # f = scale * s(h)^2 * prod (h - r) * rest(h): odd and even degree, any
    # sign of the leading coefficient, non-integral coefficients, zeros at
    # candidates (y = 0) and square values away from them
    f = Poly.const(scale) * Poly(square or [1]) ** 2 * Poly(rest)
    for r in roots:
        f = f * Poly([-r, 1])
    sqrt_f = _SquareRoot(f)
    box = _box(6)
    for a, b in box + box[::-1]:
        assert sqrt_f(a, b) == sqrt_rational(f(F(a, b))), (f, a, b)


def test_cusp_check():
    for n in table_levels_C():
        rows = cusp_check(n, "C")
        assert rows and all(r["ok"] for r in rows), n
    for n in table_levels_X():
        rows = cusp_check(n, "X")
        assert rows and all(r["ok"] for r in rows), n
    by_h = {r["h"]: r for r in cusp_check(10, "C")}
    assert by_h["-1"]["is_cusp"]  # pole of j_10 at h = -1
    with pytest.raises(ValueError):
        cusp_check(2, "C")
    with pytest.raises(ValueError):
        cusp_check(5, "X")


def test_search_rejects_unknown_level():
    with pytest.raises(KeyError):
        search_C(11, 10)

"""Polynomial algebra over Q: gcd, squarefree structure, square classes."""

import random
from datetime import timedelta
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squaredisc.polynomials import (
    PoleError,
    Poly,
    RationalFunction,
    is_perfect_square_poly,
    mod_square_class_rf,
    parse_poly,
    parse_rational_function,
    poly_gcd,
    rational_roots,
    rf_sqrt,
    squarefree_decomposition,
    squarefree_part_poly,
)

h = Poly.variable()


def _random_poly(rng, max_deg=6, lim=9):
    coeffs = [F(rng.randint(-lim, lim), rng.randint(1, 4)) for _ in range(rng.randint(1, max_deg + 1))]
    return Poly(coeffs)


def _to_sympy(p, x):
    return sum(sympy.Rational(c) * x ** i for i, c in enumerate(p.coeffs))


def test_gcd_examples():
    assert poly_gcd(h ** 2 - 1, h - 1) == h - 1
    assert poly_gcd(h * (h + 64), h + 64) == h + 64
    assert poly_gcd((h - 8) ** 2 * (h + 64), h ** 3) == Poly.const(1)
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_gcd_against_sympy():
    rng = random.Random(5)
    x = sympy.Symbol("x")
    for _ in range(60):
        common = _random_poly(rng, 3)
        a = _random_poly(rng, 4) * common
        b = _random_poly(rng, 4) * common
        if a.is_zero() or b.is_zero():
            continue
        ours = poly_gcd(a, b)
        theirs = sympy.gcd(_to_sympy(a, x), _to_sympy(b, x)).as_poly(x)
        theirs = theirs / theirs.LC()
        assert _to_sympy(ours, x).as_poly(x) == theirs


def test_squarefree_part_poly():
    assert squarefree_part_poly((h + 1) ** 2) == h + 1
    p = h ** 3 + 48 * h ** 2 - 960 * h + 4096
    assert p == (h - 8) ** 2 * (h + 64)       # double root at 8: p(8) == 0 twice
    assert p(F(8)) == 0 and p.derivative()(F(8)) == 0
    assert squarefree_part_poly(p) == h ** 2 + 56 * h - 512
    F25 = parse_poly("(h-1)*(h^2+4)*(h^4+h^3+6*h^2+6*h+11)", "h")
    assert poly_gcd(F25, F25.derivative()).degree == 0
    assert squarefree_part_poly(F25) == F25.monic()


def test_is_perfect_square_poly():
    assert is_perfect_square_poly(h ** 2 + 2 * h + 1) == h + 1
    assert is_perfect_square_poly(h) is None
    target = h ** 4 + 112 * h ** 3 + 2112 * h ** 2 - 57344 * h + 262144
    root = h ** 2 + 56 * h - 512
    assert root * root == target
    assert is_perfect_square_poly(target) == root


def test_perfect_square_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        p = _random_poly(rng, 8)
        if p.is_zero():
            continue
        recovered = is_perfect_square_poly(p * p)
        assert recovered is not None
        assert recovered == p or recovered == -p


def test_mod_square_class_examples():
    f = RationalFunction((h - 8) ** 2 * (h + 64), h)
    assert mod_square_class_rf(f) == (h * (h + 64), F(1))
    g = RationalFunction((h + 64) * (h - 512) ** 2, h ** 2)
    assert mod_square_class_rf(g) == (h + 64, F(1))
    assert mod_square_class_rf(RationalFunction((h + 1) ** 2)) == (Poly.const(1), F(1))
    with pytest.raises(ValueError):
        mod_square_class_rf(RationalFunction(Poly()))


def test_mod_square_class_is_square_invariant():
    rng = random.Random(12)
    for _ in range(50):
        fn = _random_poly(rng, 4)
        fd = _random_poly(rng, 3)
        gn = _random_poly(rng, 3)
        gd = _random_poly(rng, 2)
        if fn.is_zero() or fd.is_zero() or gn.is_zero() or gd.is_zero():
            continue
        f = RationalFunction(fn, fd)
        g = RationalFunction(gn, gd)
        m1, c1 = mod_square_class_rf(f)
        m2, c2 = mod_square_class_rf(f * g * g)
        assert m1 == m2
        from squaredisc.rationals import is_square_rational
        assert is_square_rational(c1 / c2)


def test_rf_call():
    j2 = parse_rational_function("(h+16)^3/h", "h")
    assert j2(8) == 1728
    with pytest.raises(PoleError, match="cusp"):
        j2(0)
    F2 = parse_rational_function("h*(h+64)", "h")
    assert F2(36) == 3600


def test_rf_call_matches_direct_evaluation():
    rng = random.Random(13)
    checked = 0
    while checked < 1000:
        num = _random_poly(rng, 5)
        den = _random_poly(rng, 4)
        if num.is_zero() or den.is_zero():
            continue
        f = RationalFunction(num, den)
        x = F(rng.randint(-50, 50), rng.randint(1, 20))
        if den(x) == 0 or f.den(x) == 0:
            continue
        assert f(x) == num(x) / den(x)
        checked += 1


def test_squarefree_decomposition():
    c, parts = squarefree_decomposition(7 * (h - 1) ** 3 * (h + 2) ** 2 * (h - 5))
    assert c == 7
    assert parts == [(h - 5, 1), (h + 2, 2), (h - 1, 3)]


def test_rf_sqrt():
    f = RationalFunction((h + 64) * (h - 512) ** 2, h ** 2) * RationalFunction(h + 64)
    w = rf_sqrt(f)
    assert w is not None and w * w == f
    assert rf_sqrt(RationalFunction(h)) is None
    assert rf_sqrt(RationalFunction(2 * h * h)) is None  # constant 2 is not a square


def test_parser_roundtrip_against_sympy():
    x = sympy.Symbol("h")
    cases = [
        "(h+16)^3/h",
        "h*(h+64)",
        "(h^2-3)^3*(h^6-9*h^4+3*h^2-3)^3/(h^4*(h^2-9)*(h^2-1)^3)",
        "2*(t^2+2*t+2)/(t+1)".replace("t", "h"),
        "-3*h^2+h-7",
    ]
    for text in cases:
        rf = parse_rational_function(text, "h")
        expr = sympy.together(sympy.sympify(text.replace("^", "**")))
        num, den = sympy.fraction(sympy.cancel(expr))
        num = sympy.Poly(num, x)
        den = sympy.Poly(den, x)
        lc = den.LC()
        assert _to_sympy(rf.num, x).as_poly(x) == (num / lc).as_poly(x)
        assert _to_sympy(rf.den, x).as_poly(x) == (den / lc).as_poly(x)
    with pytest.raises(ValueError):
        parse_rational_function("h + ", "h")
    with pytest.raises(ValueError):
        parse_rational_function("x + 1", "h")
    with pytest.raises(ValueError):
        parse_poly("(h+1)/h", "h")


def test_rational_roots():
    assert rational_roots(h ** 3 - h) == [F(-1), F(0), F(1)]
    assert rational_roots(h ** 3 - 11 * h + 14) == [F(2)]
    assert rational_roots(3 * h ** 4 + 6 * h ** 2 - Poly.const(1)) == []
    assert rational_roots(3 * h ** 4 - 6 * h ** 2 - Poly.const(1)) == []
    assert rational_roots((2 * h - 3) * (5 * h + 7) * (h ** 2 + 1)) == [F(-7, 5), F(3, 2)]
    # roots recovered without factoring the (large) constant term
    big = (987654321 * h - 123456789) * (h ** 2 + h + 3)
    assert rational_roots(big) == [F(123456789, 987654321)]
    rng = random.Random(17)
    for _ in range(50):
        roots = sorted({F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))})
        p = Poly.const(rng.randint(1, 5))
        for r in roots:
            p = p * Poly([-r, 1])
        p = p * (h ** 2 + rng.randint(1, 5))  # irrational/complex factor
        assert rational_roots(p) == roots, roots


_rationals = st.builds(F, st.integers(-(10 ** 12), 10 ** 12), st.integers(1, 10 ** 12)) | st.just(F(0))


@settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True)
@given(
    lead=st.integers(-(10 ** 20), 10 ** 20).filter(bool),
    roots=st.lists(st.tuples(_rationals, st.integers(1, 3)), max_size=5),
    cofactor=st.lists(st.integers(-(10 ** 60), 10 ** 60), max_size=6),
)
def test_rational_roots_against_sympy(lead, roots, cofactor):
    """Degree 1-8, repeated and zero roots, non-monic, coefficients of up
    to about 60 digits (the cofactor alone reaches 60)."""
    p = Poly.const(lead)
    for r, mult in roots:
        p = p * Poly([-r, 1]) ** mult
    if cofactor and cofactor[-1]:
        p = p * Poly(cofactor)
    assume(1 <= p.degree <= 8)
    x = sympy.Symbol("x")
    linear = [f for f, _ in sympy.factor_list(_to_sympy(p, x), x)[1] if sympy.degree(f, x) == 1]
    expected = sorted(F(str(sympy.solve(f, x)[0])) for f in linear)
    assert rational_roots(p) == expected


def test_poly_string_rendering():
    assert (h ** 2 + 56 * h - 512).to_string() == "h^2 + 56*h - 512"
    assert Poly().to_string() == "0"
    assert RationalFunction(h + 64, h).to_string() == "(h + 64) / (h)"

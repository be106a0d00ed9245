"""Polynomial algebra over Q: gcd, squarefree structure, square classes."""

import contextlib
import math
import random
import signal
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


_PRIMORIAL_60 = math.prod(p for p in range(2, 60) if sympy.isprime(p))


@pytest.mark.parametrize(
    "p",
    [
        # roots congruent modulo every prime below 60: those primes are skipped
        (h - 7) * (h - 7 - _PRIMORIAL_60) * (h ** 2 + 1),
        (2 * h + 1) * (2 * h + 1 + 2 * _PRIMORIAL_60) * (h ** 2 + h + 1) * (h - 5),
        # leading coefficients divisible by 2*3*5*7
        210 * (h - F(1, 2)) * (h + F(5, 7)) * (h ** 2 - 2),
        (210 * h + 1) * (h - 3) * (h ** 2 + 3),
        2310 * h ** 5 - 7 * h + 11,
        # zero roots
        h * (h - 4) * (h ** 2 + 5),
        h * (h ** 2 - 2),
        (3 * h ** 2 + 1) * h ** 3,
        # repeated roots: the input is not squarefree
        (h - 2) ** 3 * (3 * h + 1) ** 2 * (h ** 2 + 1),
        (h + 1) ** 4,
        (5 * h - 3) ** 2 * (h ** 3 - 2) ** 2,
        # degrees 1 and 2, square and non-square discriminants
        6 * h + 4,
        h - F(7, 3),
        (3 * h - 2) * (2 * h + 1),
        h ** 2 - 2,
        h ** 2 + 1,
        4 * h ** 2 - 9,
        # no root mod 3, with a repeated root mod 2 that rules out p = 2
        h ** 3 + 3 * h ** 2 - 4 * h + 4,
    ],
)
def test_rational_roots_on_inputs_aimed_at_the_prime_choice(p):
    x = sympy.Symbol("x")
    linear = [f for f, _ in sympy.factor_list(_to_sympy(p, x), x)[1] if sympy.degree(f, x) == 1]
    assert rational_roots(p) == sorted(F(str(sympy.solve(f, x)[0])) for f in linear)


def test_poly_string_rendering():
    assert (h ** 2 + 56 * h - 512).to_string() == "h^2 + 56*h - 512"
    assert Poly().to_string() == "0"
    assert RationalFunction(h + 64, h).to_string() == "(h + 64) / (h)"


# -- the integer-content core against sympy ------------------------------------

X = sympy.Symbol("x")
_fracs = st.builds(F, st.integers(-(10 ** 6), 10 ** 6), st.integers(1, 60))


def _poly_strategy(max_size):
    return st.lists(_fracs, max_size=max_size).map(Poly)


def _nonzero(strategy):
    return strategy.filter(lambda p: not p.is_zero())


_polys = _poly_strategy(7)
_nonzero_polys = _nonzero(_polys)
_points = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
_core = settings(max_examples=120, deadline=timedelta(seconds=5), derandomize=True)


def _sym(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], X, domain="QQ")


def _sym_rf(f):
    return _sym(f.num).as_expr() / _sym(f.den).as_expr()


def test_poly_normal_form():
    p = Poly([F(3, 4), F(-3, 2), 0, F(9, 8)])
    assert p.content == F(3, 8) and p.prim == (2, -4, 0, 3)
    assert (-p).content == F(-3, 8) and (-p).prim == p.prim
    assert p.int_primitive() == (F(3, 8), (2, -4, 0, 3))
    assert p.coeffs == (F(3, 4), F(-3, 2), F(0), F(9, 8))
    assert Poly([0, 0]).prim == () and Poly().content == 0
    assert Poly(["1/2", 3]) == Poly([F(1, 2), 3]) and Poly.const("0").is_zero()
    assert p.monic().prim == p.prim and p.monic().lc == 1


@_core
@given(p=_polys, q=_polys, n=st.integers(0, 3))
def test_ring_operations_against_sympy(p, q, n):
    P, Q = _sym(p), _sym(q)
    assert _sym(p * q) == P * Q
    assert _sym(p + q) == P + Q
    assert _sym(p - q) == P - Q
    assert _sym(-p) == -P
    assert _sym(p ** n) == P ** n
    assert _sym(p.derivative()) == P.diff(X)
    for r in (p * q, p + q, p - q):
        # the normal form: primitive integer part with a positive lead
        assert r.is_zero() or (math.gcd(*r.prim) == 1 and r.prim[-1] > 0)


@_core
@given(p=_polys, q=_nonzero_polys)
def test_divmod_against_sympy(p, q):
    quo, rem = p.divmod(q)
    squo, srem = sympy.div(_sym(p), _sym(q))
    assert (_sym(quo), _sym(rem)) == (squo, srem)
    assert (p * q).exact_div(q) == p


@_core
@given(p=_nonzero_polys, q=_nonzero_polys, g=_nonzero_polys)
def test_gcd_against_sympy_on_shared_factors(p, q, g):
    ours = poly_gcd(p * g, q * g)
    assert _sym(ours) == sympy.gcd(_sym(p * g), _sym(q * g))
    assert ours.lc == 1


_factor_lists = st.lists(st.tuples(_nonzero_polys, st.integers(1, 4)), min_size=1, max_size=4)


@_core
@given(factors=_factor_lists)
def test_squarefree_decomposition_against_sympy(factors):
    p = Poly.const(1)
    for f, k in factors:
        p = p * f ** k
    assume(p.degree <= 24)
    c, parts = squarefree_decomposition(p)
    lc, sparts = _sym(p).sqf_list()
    assert c == F(str(lc))
    assert [(_sym(a), k) for a, k in parts] == [(s, k) for s, k in sparts if s.degree() > 0]


@_core
@given(num=_factor_lists, den=_factor_lists)
def test_square_classes_against_sympy(num, den):
    n = d = Poly.const(1)
    for f, k in num:
        n = n * f ** k
    for f, k in den:
        d = d * f ** k
    assume(n.degree <= 16 and d.degree <= 16)
    f = RationalFunction(n, d)
    M, c = mod_square_class_rf(f)
    lc, sparts = (_sym(f.num) * _sym(f.den)).sqf_list()
    odd = sympy.Poly(1, X, domain="QQ")
    for s, k in sparts:
        if k % 2:
            odd *= s
    assert (_sym(M), c) == (odd, F(str(lc)))
    # f is a square iff its square class is trivial
    root = rf_sqrt(f)
    assert (root is not None) == (M == 1 and _is_rational_square(c))
    if root is not None:
        assert root * root == f and root.num.lc > 0
    assert rf_sqrt(f * f) in (f, -f)


def _is_rational_square(c):
    return c >= 0 and math.isqrt(c.numerator) ** 2 == c.numerator and math.isqrt(c.denominator) ** 2 == c.denominator


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True)
@given(
    f_num=_poly_strategy(5),
    f_den=_nonzero(_poly_strategy(5)),
    g_num=_poly_strategy(4),
    g_den=_nonzero(_poly_strategy(4)),
)
def test_compose_against_sympy(f_num, f_den, g_num, g_den):
    f = RationalFunction(f_num, f_den)
    g = RationalFunction(g_num, g_den)
    expected = sympy.cancel(_sym_rf(f).subs(X, _sym_rf(g)))
    try:
        ours = f.compose(g)
    except ZeroDivisionError:
        # g is a constant at a pole of f
        assert g.is_constant() and expected.has(sympy.zoo, sympy.nan)
        return
    assert sympy.cancel(_sym_rf(ours) - expected) == 0


@_core
@given(num=_polys, den=_nonzero_polys, x=_points)
def test_evaluation_at_rationals_and_poles_against_sympy(num, den, x):
    f = RationalFunction(num, den)
    expr = sympy.cancel(_sym_rf(f))
    _, sym_den = sympy.fraction(expr)
    assert num(x) == F(str(_sym(num).eval(sympy.Rational(x.numerator, x.denominator))))
    at = sympy.Rational(x.numerator, x.denominator)
    if sym_den.subs(X, at) == 0:
        with pytest.raises(PoleError):
            f(x)
    else:
        assert f(x) == F(str(expr.subs(X, at)))


@contextlib.contextmanager
def _time_bound(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _phi_sized(rng, degree, digits):
    bound = 10 ** digits
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)] + [rng.randint(bound // 10, bound)]
    return Poly(coeffs) * F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_phi_sized_polynomials(seed):
    """Degree 12-36 and 100-340-digit coefficients, the size of the modular
    polynomials Phi_N for composite N, within a fixed time per example."""
    rng = random.Random(seed)
    digits = rng.randint(100, 340)
    p = _phi_sized(rng, rng.randint(12, 36), digits)
    q = _phi_sized(rng, rng.randint(12, 36), digits)
    g = _phi_sized(rng, rng.randint(1, 4), digits)
    x = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
    with _time_bound(20):
        assert (p * q + g).divmod(q) == (p, g)
        assert (p * q).exact_div(p) == q
        assert _sym(p + q) == _sym(p) + _sym(q)
        assert poly_gcd(p * g, q * g) == g.monic()
        c, parts = squarefree_decomposition(p * g ** 2)
        lc, sparts = _sym(p * g ** 2).sqf_list()
        assert c == F(str(lc)) and [(_sym(a), k) for a, k in parts] == sparts
        reference = F(0)
        for coeff in reversed(p.coeffs):
            reference = reference * x + coeff
        assert p(x) == reference
        f = RationalFunction(p, q * Poly([-x, 1]))
        assert f(x + 1) == p(x + 1) / q(x + 1) / (x + 1 - x)
        with pytest.raises(PoleError):
            f(x)
        inner = RationalFunction(Poly([x, 1, 1]), Poly([1, 1]))
        assert RationalFunction(p).compose(inner)(F(2)) == p(inner(F(2)))


def test_rational_roots_of_phi_sized_polynomials():
    """-5 and 3/7 planted in a degree-36 polynomial with 340-digit
    coefficients, which is irreducible by Eisenstein at 2, so that they are
    its only rational roots."""
    rng = random.Random(36)
    bound = 10 ** 340
    coeffs = [2 * rng.randint(-bound, bound) for _ in range(36)] + [2 * rng.randint(0, bound) + 1]
    coeffs[0] = 2 * (2 * rng.randint(bound // 10, bound) + 1)
    p = Poly(coeffs) * (h + 5) * (7 * h - 3)
    with _time_bound(5):
        assert rational_roots(p) == [F(-5), F(3, 7)]

"""Weierstrass models: invariants, coordinate changes, twists."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squaredisc.rationals import same_square_class
from squaredisc.weierstrass import (
    ChangeOfVariables,
    GeneralModel,
    ShortModel,
    SingularModelError,
    parse_curve,
    quadratic_twist,
    quartic_twist,
    sextic_twist,
    short_form,
    transform,
)


def test_invariants_reference_curves():
    assert ShortModel(1, 0).discriminant == -64
    assert ShortModel(1, 0).j == 1728
    assert ShortModel(0, 1).discriminant == -432
    assert ShortModel(0, 1).j == 0
    g = GeneralModel(0, -1, 1, 0, 0)  # y^2 + y = x^3 - x^2
    inv = g.invariants()
    assert (inv.b2, inv.b4, inv.b6, inv.b8) == (-4, 0, 1, -1)
    assert inv.disc == -11


def _random_model(rng):
    return GeneralModel(*[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)])


def test_invariants_are_cached_without_changing_model_identity():
    rng = random.Random(16)
    for _ in range(50):
        coeffs = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(5)]
        cached = GeneralModel(*coeffs)
        first = cached.invariants()
        assert cached.invariants() is first
        uncached = GeneralModel(*coeffs)
        assert "_invariants" not in vars(uncached)
        assert cached == uncached and hash(cached) == hash(uncached)
        assert repr(cached) == repr(uncached) and len({cached, uncached}) == 1
        assert first == uncached.invariants()


def test_c4_c6_disc_identity():
    rng = random.Random(3)
    for _ in range(1000):
        inv = _random_model(rng).invariants()
        assert inv.c4 ** 3 - inv.c6 ** 2 == 1728 * inv.disc


def test_transform_scaling():
    out = transform(ShortModel(-1, 0), ChangeOfVariables(2))
    assert (out.a4, out.a6) == (F(-1, 16), 0)
    assert ShortModel(-1, 0).discriminant == 2 ** 12 * out.discriminant
    g = GeneralModel(1, 2, 3, 4, 5)
    assert transform(g, ChangeOfVariables.identity()) == g
    # completing the square on y^2 + y = x^3 - x^2 keeps the discriminant
    g2 = GeneralModel(0, -1, 1, 0, 0)
    out2 = transform(g2, ChangeOfVariables(1, 0, 0, F(-1, 2)))
    assert out2.a1 == 0 and out2.a3 == 0
    assert out2.discriminant == -11


def _random_cov(rng):
    u = F(0)
    while u == 0:
        u = F(rng.randint(-6, 6), rng.randint(1, 4))
    return ChangeOfVariables(
        u,
        F(rng.randint(-5, 5), rng.randint(1, 3)),
        F(rng.randint(-5, 5), rng.randint(1, 3)),
        F(rng.randint(-5, 5), rng.randint(1, 3)),
    )


def test_transform_roundtrip_and_disc_law():
    rng = random.Random(4)
    for _ in range(200):
        m = _random_model(rng)
        c = _random_cov(rng)
        out = transform(m, c)
        assert m.discriminant == c.u ** 12 * out.discriminant
        assert transform(out, c.inverse()) == m
        if m.discriminant != 0:
            assert out.j == m.j
        c2 = _random_cov(rng)
        assert transform(transform(m, c), c2) == transform(m, c.compose(c2))


def test_transform_rejects_zero_scale():
    with pytest.raises(ValueError):
        ChangeOfVariables(0)


def test_short_form():
    g = GeneralModel(0, -1, 1, 0, 0)
    s, cov = short_form(g)
    assert s.j == F(-4096, 11)
    assert same_square_class(s.discriminant, -11)
    assert transform(g, cov) == s.to_general()
    # already-short models come back untouched
    m = ShortModel(F(3, 5), 7)
    s2, cov2 = short_form(m)
    assert s2 == m and cov2 == ChangeOfVariables.identity()
    g3 = GeneralModel(1, 0, 0, 0, 1)
    s3, cov3 = short_form(g3)
    assert s3.j == g3.j
    assert transform(g3, cov3) == s3.to_general()
    # the chosen scale clears denominators
    assert s3.A.denominator == 1 and s3.B.denominator == 1


def test_short_form_random_roundtrip():
    rng = random.Random(6)
    for _ in range(100):
        m = _random_model(rng)
        s, cov = short_form(m)
        assert transform(m, cov) == s.to_general()
        if m.discriminant != 0:
            assert s.j == m.j


def test_quadratic_twist():
    t = quadratic_twist(ShortModel(1, 1), 2)
    assert t == ShortModel(4, 8)
    assert t.discriminant == -31744 == 2 ** 6 * ShortModel(1, 1).discriminant
    assert quadratic_twist(ShortModel(1, 1), 1) == ShortModel(1, 1)
    m = ShortModel(-27 * 1729, 54 * 1729)
    assert quadratic_twist(m, 1) == m
    with pytest.raises(ValueError):
        quadratic_twist(m, 0)


def test_quartic_twist():
    q = quartic_twist(1, -1)
    assert q == ShortModel(-1, 0)
    assert q.discriminant == 64 == (-1) ** 3 * ShortModel(1, 0).discriminant
    assert quartic_twist(1, 1) == ShortModel(1, 0)
    q2 = quartic_twist(-1, 16)
    assert q2 == ShortModel(-16, 0)
    assert q2.discriminant == -16 * 4 * (-16) ** 3 == 2 ** 18
    with pytest.raises(ValueError):
        quartic_twist(0, 2)


def test_sextic_twist():
    s = sextic_twist(1, 2)
    assert s == ShortModel(0, 2)
    assert s.discriminant == -1728 == 2 ** 2 * ShortModel(0, 1).discriminant
    assert sextic_twist(1, 1) == ShortModel(0, 1)
    assert sextic_twist(1, -3).discriminant == -3888 == 9 * -432
    with pytest.raises(ValueError):
        sextic_twist(0, 1)


def test_twist_properties():
    rng = random.Random(8)
    for _ in range(200):
        m = ShortModel(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
        if m.is_singular():
            continue
        d = F(0)
        while d == 0:
            d = F(rng.randint(-9, 9), rng.randint(1, 4))
        tw = quadratic_twist(m, d)
        assert tw.j == m.j
        assert same_square_class(tw.discriminant / m.discriminant, 1)
        if m.A != 0:
            assert quartic_twist(m.A, d * d) == quadratic_twist(ShortModel(m.A, 0), d)


def test_degenerate_models():
    singular = ShortModel(0, 0)
    assert singular.is_singular() and singular.j is None
    with pytest.raises(SingularModelError):
        singular.assert_nonsingular()
    assert GeneralModel(0, 0, 0, 0, 0).invariants().j is None


def test_curve_serialization():
    assert parse_curve("[-1, 0]") == ShortModel(-1, 0)
    assert parse_curve('["1/2", "-3"]') == ShortModel(F(1, 2), -3)
    assert parse_curve("[0,-1,1,0,0]") == GeneralModel(0, -1, 1, 0, 0)
    with pytest.raises(ValueError):
        parse_curve("[1, 2, 3]")


def _fraction_invariants(a1, a2, a3, a4, a6):
    """The textbook formulas, evaluated coefficient by coefficient over Q."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2 * b8) - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return (b2, b4, b6, b8, c4, c6, disc, c4 ** 3 / disc if disc else None)


_entries = st.builds(F, st.integers(-(10 ** 9), 10 ** 9), st.integers(1, 10 ** 9)) | st.integers(-3, 3).map(F)

# singular models (disc = 0), with integral and non-integral coefficients
_SINGULAR = [
    (0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),              # y^2 = x^3 + x^2, a node
    (0, 0, 0, -3, 2),             # y^2 = (x - 1)^2 (x + 2)
    (0, 0, 0, F(-3, 4), F(1, 4)),  # y^2 = (x - 1/2)^2 (x + 1)
    transform(ShortModel(-3, 2), ChangeOfVariables(F(2, 3), F(1, 2), F(1, 5), F(-1, 7))).coefficients(),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coeffs=st.tuples(_entries, _entries, _entries, _entries, _entries))
def test_integer_invariants_match_the_fraction_formulas(coeffs):
    assert tuple(GeneralModel(*coeffs).invariants()) == _fraction_invariants(*coeffs)
    A, B = coeffs[3], coeffs[4]
    short = ShortModel(A, B)
    disc = -16 * (4 * A ** 3 + 27 * B ** 2)
    assert short.discriminant == disc
    assert short.j == (-1728 * (4 * A) ** 3 / disc if disc else None)
    assert tuple(short.invariants()) == _fraction_invariants(0, 0, 0, A, B)
    # the integral form is cached per instance, outside the model's identity
    fresh = ShortModel(A, B)
    assert "_integral_disc" in vars(short) and "_integral_disc" not in vars(fresh)
    assert short == fresh and hash(short) == hash(fresh) and repr(short) == repr(fresh)


def test_singular_models_have_no_j():
    for coeffs in _SINGULAR:
        inv = GeneralModel(*coeffs).invariants()
        assert inv.disc == 0 and inv.j is None, coeffs
        assert tuple(inv) == _fraction_invariants(*map(F, coeffs))
    for A, B in ((0, 0), (-3, 2), (F(-3, 4), F(1, 4)), (F(-3, 100), F(1, 500))):
        assert ShortModel(A, B).discriminant == 0 and ShortModel(A, B).j is None

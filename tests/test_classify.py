"""The square-discriminant classifier and the CM machinery."""

import random
import signal
from fractions import Fraction as F

import pytest
import sympy

from squaredisc.classify import (
    CM_J_INVARIANTS,
    cm_isogeny_graph,
    cm_nonsquare_scan,
    curve_from_j,
    is_cm_j,
    square_disc_by_j,
    square_disc_direct,
)
from squaredisc.rationals import same_square_class
from squaredisc.weierstrass import (
    ChangeOfVariables,
    GeneralModel,
    ShortModel,
    SingularModelError,
    quadratic_twist,
    quartic_twist,
    sextic_twist,
    transform,
)


def test_square_disc_direct_examples():
    assert square_disc_direct(ShortModel(-1, 0))          # disc = 64
    assert not square_disc_direct(ShortModel(1, 0))       # disc = -64
    assert not square_disc_direct(GeneralModel(0, -1, 1, 0, 0))  # disc = -11
    with pytest.raises(SingularModelError):
        square_disc_direct(ShortModel(0, 0))


def test_square_disc_by_j_branches():
    v = square_disc_by_j(ShortModel(-1, 0))
    assert v.is_square and v.branch == "j-1728" and v.witness == 1
    v = square_disc_by_j(ShortModel(0, 2))
    assert not v.is_square and v.branch == "j-zero" and v.witness is None
    v = square_disc_by_j(curve_from_j(1729))
    assert v.is_square and v.branch == "generic-j" and v.witness == 1
    assert v.witness ** 2 == F(1729) - 1728


def test_j1728_verdict_does_not_factor_the_model_denominators():
    # u = p*q, a product of two 19-digit primes, puts p*q into the
    # denominators of the long model; splitting it would take Pollard rho
    # about 10^9 steps, so a verdict inside the alarm shows nothing factors.
    p, q = sympy.nextprime(10 ** 18), sympy.nextprime(2 * 10 ** 18)
    cov = ChangeOfVariables(p * q, F(3, 7), F(-2, 5), F(1, 11))

    def overrun(signum, frame):
        raise TimeoutError("square_disc_by_j overran its 5 s bound")

    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        for A, square in ((-4, True), (1, False), (-2, False), (F(-9, 25), True)):
            m = transform(ShortModel(A, 0), cov)
            assert m.a1 != 0 and m.j == 1728
            signal.alarm(5)
            v = square_disc_by_j(m)
            signal.alarm(0)
            assert v.branch == "j-1728"
            assert v.is_square == square == square_disc_direct(m)
            assert (v.witness is not None) == square
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_curve_from_j():
    m = curve_from_j(1729)
    assert m == ShortModel(-27 * 1729, 54 * 1729)
    assert m.discriminant == 2 ** 12 * 3 ** 12 * 1729 ** 2
    assert curve_from_j(0) == ShortModel(0, 1)
    assert curve_from_j(1728) == ShortModel(1, 0)


def test_curve_from_j_roundtrip_and_disc_identity():
    rng = random.Random(31)
    for _ in range(500):
        j0 = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 1000))
        if j0 in (0, 1728):
            continue
        m = curve_from_j(j0)
        assert m.j == j0
        assert m.discriminant == 2 ** 12 * 3 ** 12 * j0 ** 2 / (j0 - 1728) ** 3


def test_cm_set():
    assert is_cm_j(1728)
    assert is_cm_j(287496)
    assert not is_cm_j(1729)
    assert len(CM_J_INVARIANTS) == 13
    assert is_cm_j(-262537412640768000)


def test_cm_isogeny_graph():
    g = cm_isogeny_graph(1)
    assert g.quotient_1728.discriminant == -4096
    assert g.quotient_plus.discriminant == 512
    assert g.quotient_minus == ShortModel(-11, -14)
    assert g.quotient_plus.j == 287496 and g.quotient_1728.j == 1728
    g2 = cm_isogeny_graph(2)
    assert g2.quotient_1728.discriminant == -(2 ** 12) * 64
    with pytest.raises(ValueError):
        cm_isogeny_graph(0)


def test_cm_nonsquare_scan():
    rows = cm_nonsquare_scan()
    assert len(rows) == 12
    assert all(r["ok"] for r in rows)
    by_j = {r["j"]: r for r in rows}
    assert not by_j["0"]["j_minus_1728_is_square"]
    assert not by_j["54000"]["j_minus_1728_is_square"]  # 52272 = 2^4 * 3^3 * 11^2
    assert 54000 - 1728 == 2 ** 4 * 3 ** 3 * 11 ** 2
    assert "-32768" in by_j


def _random_nonzero(rng, lim=9):
    v = 0
    while v == 0:
        v = rng.randint(-lim, lim)
    return F(v, rng.randint(1, lim))


def _random_twisted_model(rng):
    kind = rng.randrange(4)
    if kind == 0:
        while True:
            m = ShortModel(_random_nonzero(rng), _random_nonzero(rng))
            if not m.is_singular():
                return m
    if kind == 1:
        while True:
            m = ShortModel(_random_nonzero(rng), _random_nonzero(rng))
            if not m.is_singular():
                return quadratic_twist(m, _random_nonzero(rng))
    if kind == 2:
        return quartic_twist(_random_nonzero(rng), _random_nonzero(rng))
    return sextic_twist(_random_nonzero(rng), _random_nonzero(rng))


def test_classifier_equivalence():
    """The central mechanized equivalence: the j-route must agree with the
    direct discriminant test, including through coordinate changes."""
    rng = random.Random(1728)
    for i in range(1000):
        m = _random_twisted_model(rng)
        direct = square_disc_direct(m)
        assert square_disc_by_j(m).is_square == direct, (i, m)
        if i % 10 == 0:
            u = _random_nonzero(rng, 5)
            moved = transform(m, ChangeOfVariables(u, _random_nonzero(rng, 5), 0, 1))
            assert square_disc_by_j(moved).is_square == direct
            assert square_disc_direct(moved) == direct


def test_neg_square_quartic_class_is_always_square():
    rng = random.Random(33)
    for _ in range(100):
        t = _random_nonzero(rng)
        m = ShortModel(-t * t, 0)
        assert square_disc_direct(m)
        assert square_disc_by_j(m).is_square
        d = _random_nonzero(rng)
        tw = quartic_twist(m.A, d ** 4)  # fourth-power twists stay isomorphic
        assert square_disc_by_j(tw).is_square
        u = _random_nonzero(rng, 5)
        moved = transform(m, ChangeOfVariables(u, 1, 0, 0))
        assert square_disc_by_j(moved).is_square


def test_sextic_twists_never_square():
    rng = random.Random(34)
    for _ in range(100):
        d = _random_nonzero(rng)
        m = sextic_twist(1, d)
        assert not square_disc_by_j(m).is_square
        assert not square_disc_direct(m)
        assert same_square_class(m.discriminant, -3)


def test_verdict_serialization():
    v = square_disc_by_j(curve_from_j(1729))
    assert v.as_dict() == {"is_square": True, "branch": "generic-j", "witness": "1"}

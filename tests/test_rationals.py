"""Exact rational arithmetic: square tests, square classes, power-free parts."""

import random
from fractions import Fraction as F

import pytest
import sympy

from squaredisc.rationals import (
    factorize,
    is_square_rational,
    nth_power_free_part,
    nth_root_rational,
    same_square_class,
    sqrt_rational,
    squarefree_part,
)


def test_is_square_basic():
    assert is_square_rational(F(9, 4))
    assert not is_square_rational(-1)
    assert is_square_rational(0)
    # all exponents even: 2^12 3^12 1729^2 (checked via sympy.factorint below)
    n = 2 ** 12 * 3 ** 12 * 1729 ** 2
    assert all(e % 2 == 0 for e in sympy.factorint(n).values())
    assert is_square_rational(n)


def test_sqrt_rational():
    assert sqrt_rational(F(9, 4)) == F(3, 2)
    assert sqrt_rational(2) is None
    assert sqrt_rational(F(50, 2)) == 5


def test_squarefree_part_examples():
    assert squarefree_part(18) == 2           # 18 = 2 * 3^2
    assert squarefree_part(-4) == -1          # -4 = -1 * 2^2
    assert squarefree_part(F(125, 4)) == 5    # 125/4 = 5 * (5/2)^2
    with pytest.raises(ValueError, match="unit"):
        squarefree_part(0)


def test_squarefree_part_against_sympy():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 10 ** 7) * rng.choice((1, -1))
        expected = 1 if n > 0 else -1
        for p, e in sympy.factorint(abs(n)).items():
            if e % 2:
                expected *= int(p)
        assert squarefree_part(n) == expected, n


def test_same_square_class():
    assert same_square_class(8, 2)
    assert not same_square_class(-3, 3)
    # j'_2(1) - 1728 = 257^3 - 1728 = 65 * 511^2 pairs with G_2(1) = 65
    assert 257 ** 3 - 1728 == 65 * 511 ** 2
    assert same_square_class(257 ** 3 - 1728, 65)
    with pytest.raises(ValueError):
        same_square_class(0, 3)


def test_nth_root_of_huge_integers():
    # far beyond the float range: 10^400 overflows a float
    assert nth_root_rational(10 ** 400, 2) == 10 ** 200
    assert nth_root_rational(10 ** 400 + 1, 2) is None
    assert nth_root_rational(F(1, 10 ** 400), 4) == F(1, 10 ** 100)
    assert nth_root_rational(-(3 ** 999), 3) == -(3 ** 333)


def test_nth_power_free_part():
    assert nth_power_free_part(32, 4) == 2
    assert nth_power_free_part(64, 6) == 1
    assert nth_power_free_part(-16, 4) == -1
    assert nth_power_free_part(F(1, 8), 2) == F(1, 2)
    with pytest.raises(ValueError):
        nth_power_free_part(0, 2)
    with pytest.raises(ValueError):
        nth_power_free_part(5, 3)


def _random_nonzero(rng, lim=1000):
    num = 0
    while num == 0:
        num = rng.randint(-lim, lim)
    return F(num, rng.randint(1, lim))


def test_square_class_properties():
    rng = random.Random(20)
    for _ in range(300):
        r = _random_nonzero(rng)
        s = _random_nonzero(rng, 60)
        assert same_square_class(r, squarefree_part(r))
        assert is_square_rational(r * s * s) == is_square_rational(r)
        assert squarefree_part(squarefree_part(r)) == squarefree_part(r)


def test_power_free_quotients_are_powers():
    rng = random.Random(21)
    for _ in range(200):
        r = _random_nonzero(rng)
        for n in (2, 4, 6):
            quotient = r / nth_power_free_part(r, n)
            assert nth_root_rational(quotient, n) is not None, (r, n)


def test_factorize_large_cofactors():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9  # both prime; forces the rho fallback
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(-(2 ** 10) * p) == {2: 10, p: 1}
    assert squarefree_part(p * p * 3) == 3

"""Exact rational arithmetic: square tests, square classes, factorization."""

import contextlib
import math
import random
import signal
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from squaredisc.rationals import (
    _affine_x,
    as_fraction,
    factorize,
    is_square_rational,
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


def test_as_fraction_rejects_a_zero_denominator():
    assert as_fraction(" -6/4 ") == F(-3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")


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


def test_affine_x_inverts_a_batch_and_reports_the_first_shared_factor():
    p, q = 1009, 10007
    n = p * q
    rng = random.Random(16)
    points = []
    while len(points) < 40:
        z = rng.randrange(1, n)
        if math.gcd(z, n) == 1:
            points.append((rng.randrange(n), z))
    assert _affine_x(points, n) == (1, [x * pow(z, -1, n) % n for x, z in points])
    # the per-point loop stops at the first z sharing a factor with n
    assert _affine_x(points[:5] + [(1, 7 * q), (2, 3 * p), (3, 0)], n) == (q, [])
    assert _affine_x([(1, 0)] + points, n) == (n, [])


def test_factorize_large_cofactors():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9  # both prime, beyond the capped rho; ECM splits them
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(-(2 ** 10) * p) == {2: 10, p: 1}
    assert squarefree_part(p * p * 3) == 3


@contextlib.contextmanager
def _within(seconds):
    def overrun(signum, frame):
        raise TimeoutError(f"factorize overran its {seconds} s bound")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _oracle(n):
    return {int(p): e for p, e in sympy.factorint(n).items()}


# primes of 5-17 digits, and primes just above the 2^14 sieve limit, which
# trial division misses, alone or as squares and cubes
_prime_powers = st.one_of(
    st.integers(5, 17).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d)).map(
        lambda a: (int(sympy.nextprime(a)), 1)
    ),
    st.tuples(st.integers(1 << 14, (1 << 14) + 3000).map(lambda a: int(sympy.nextprime(a))), st.integers(1, 3)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_prime_powers, min_size=2, max_size=4))
def test_factorize_against_sympy(prime_powers):
    n = math.prod(p ** e for p, e in prime_powers)
    with _within(10):
        got = factorize(n)
    assert got == _oracle(n)


@pytest.mark.parametrize(
    "n",
    [
        # two small factors that one ECM curve tends to find together, so
        # that its gcd is the whole cofactor; the short rho splits them first
        595140352219862923,  # 20483 * 27239 * 1066681279
        4970204761644689321873,  # 17581 * 231317 * 1222146183649
        # cofactors of 4-6-digit classify discriminants, with 13-17-digit
        # primes; Pollard rho alone needs several seconds for each
        7014386137717549673797105023637,
        272351036453654607703205712202021,
        17541574114289106165351216134135987987573,
    ],
)
def test_factorize_regressions(n):
    with _within(2):
        got = factorize(n)
    assert got == _oracle(n)


def test_factorize_prime_powers():
    # an ECM curve that finds p in p^3 often returns p^3 itself
    p, q = 63394690271794507, 10 ** 9 + 7
    with _within(5):
        assert factorize(p ** 3) == {p: 3}
        assert factorize(p ** 2 * q ** 6) == {p: 2, q: 6}
        assert factorize((p * q) ** 12) == {p: 12, q: 12}

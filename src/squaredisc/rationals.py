"""Exact rational arithmetic helpers: square tests and power-free parts.

Rationals are plain ``fractions.Fraction`` values (always in lowest terms,
positive denominator), so every operation here is pure and exact.  Square
testing never factors anything: it only needs integer square roots.  The
square-class and n-th-power-free computations do factor: the sieved primes
below 2^14 are divided out, and Pollard rho splits whatever cofactor is
left.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int, str]

_SIEVE_LIMIT = 1 << 14
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class FactorizationError(ArithmeticError):
    """An integer cofactor resisted factorization within the budget."""


def _small_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _small_primes(_SIEVE_LIMIT)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic far beyond every integer handled here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            if r > 1 << 22:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise FactorizationError(f"Pollard rho gave up on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0) as an exponent dictionary.

    Trial division by the sieved primes below 2^14 stops once p^2 exceeds
    the cofactor; Pollard rho then splits any remaining composite, which
    has no prime factor below 2^14.  Raises FactorizationError rather than
    guessing.
    """
    if n == 0:
        raise ValueError("zero has no factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            root = math.isqrt(m)
            if root * root == m:
                stack.extend((root, root))
                continue
            g = _pollard_rho(m)
            stack.extend((g, m // g))
    return out


def sqrt_rational(r: RationalLike) -> Optional[Fraction]:
    """Exact nonnegative square root of r, or None if r is not a square."""
    r = as_fraction(r)
    if r < 0:
        return None
    ns = math.isqrt(r.numerator)
    if ns * ns != r.numerator:
        return None
    ds = math.isqrt(r.denominator)
    if ds * ds != r.denominator:
        return None
    return Fraction(ns, ds)


def nth_root_rational(r: RationalLike, n: int) -> Optional[Fraction]:
    """Exact rational n-th root of r, or None if it does not exist."""
    r = as_fraction(r)
    if n <= 0:
        raise ValueError("root index must be positive")
    if r < 0:
        if n % 2 == 0:
            return None
        root = nth_root_rational(-r, n)
        return None if root is None else -root
    def iroot(m: int) -> Optional[int]:
        lo, hi = 0, 1 << (m.bit_length() // n + 2)
        while lo <= hi:
            mid = (lo + hi) // 2
            v = mid ** n
            if v == m:
                return mid
            if v < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None
    ns = iroot(r.numerator)
    if ns is None:
        return None
    ds = iroot(r.denominator)
    if ds is None:
        return None
    return Fraction(ns, ds)


def is_square_rational(r: RationalLike) -> bool:
    """True iff r is the square of a rational (0 counts as a square)."""
    r = as_fraction(r)
    if r == 0:
        return True
    return sqrt_rational(r) is not None


def squarefree_part(r: RationalLike) -> int:
    """The unique squarefree integer m with r = m * s^2 for some rational s.

    Raises ValueError on r = 0 (zero is not a unit of Q).
    """
    r = as_fraction(r)
    if r == 0:
        raise ValueError("not a unit of Q")
    # p/q = (p*q) * (1/q)^2, so only the integer p*q matters.
    n = r.numerator * r.denominator
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def same_square_class(a: RationalLike, b: RationalLike) -> bool:
    """True iff a and b differ by the square of a rational (a, b != 0)."""
    a = as_fraction(a)
    b = as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("square classes are defined for nonzero rationals")
    return sqrt_rational(a / b) is not None


def nth_power_free_part(r: RationalLike, n: int) -> Fraction:
    """Representative of r modulo n-th powers, for n in {2, 4, 6}.

    The result has integer numerator and denominator free of n-th-power
    prime factors, and r divided by the result is an exact n-th power.
    """
    if n not in (2, 4, 6):
        raise ValueError("power-free reduction is supported for n in {2, 4, 6}")
    r = as_fraction(r)
    if r == 0:
        raise ValueError("not a unit of Q")
    num = 1
    den = 1
    for p, e in factorize(r.numerator).items():
        num *= p ** (e % n)
    for p, e in factorize(r.denominator).items():
        den *= p ** (e % n)
    sign = -1 if r < 0 else 1
    return Fraction(sign * num, den)

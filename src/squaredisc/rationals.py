"""Exact rational arithmetic helpers: square tests and square classes.

Rationals are plain ``fractions.Fraction`` values (always in lowest terms,
positive denominator), so every operation here is pure and exact.  Square
testing never factors anything: it only needs integer square roots.  The
squarefree part of a rational does factor: the sieved primes below 2^14
are divided out, perfect powers are reduced to their roots, and the
remaining cofactor is split by a short Pollard rho, then by ECM
(Lenstra's elliptic-curve method on Montgomery curves).  Factoring is
deterministic: fixed curves and fixed step counts, no randomness and no
wall-clock budget.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int, str]

_SIEVE_LIMIT = 1 << 14
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RHO_ITERATIONS = 1 << 13
# ECM: (B1, curves) in the order tried, as in GMP-ECM's table for 15- and
# 20-digit factors; stage 2 runs to B2 = _B2_PER_B1 * B1 in giant steps of
# D = _GIANT_STEP = 2*3*5*7*11.
_ECM_SCHEDULE = ((2000, 25), (11000, 90))
_B2_PER_B1 = 100
_GIANT_STEP = 2310


class FactorizationError(ArithmeticError):
    """An integer cofactor resisted factorization within the budget."""


def _sieve(limit: int) -> bytearray:
    """flags[i] == 1 exactly when i <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


_SMALL_PRIMES = tuple(i for i, flag in enumerate(_sieve(_SIEVE_LIMIT)) if flag)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to the 13 prime bases up to 41.

    The answer is proved correct below 3.3 * 10^24 (no composite below
    3317044064679887385961981 is a strong pseudoprime to all 13 bases).
    Above that it is a probable-prime test: composites that pass all 13
    bases exist, and one would be reported prime, so factorize would
    return it as a prime factor.
    """
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


def _exact_root(m: int, k: int) -> Optional[int]:
    """The integer r >= 0 with r^k = m >= 0, or None; Newton's method from above."""
    if m < 2:
        return m
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == m else None
        r = s


def _perfect_power(m: int) -> Optional[tuple[int, int]]:
    """(r, k) with r^k = m for a prime k, or None.

    m has no prime factor below _SIEVE_LIMIT, so r > _SIEVE_LIMIT and only
    the k with _SIEVE_LIMIT^k < m need a test.
    """
    for k in _SMALL_PRIMES:
        if _SIEVE_LIMIT ** k > m:
            break
        r = _exact_root(m, k)
        if r is not None:
            return r, k
    return None


def _pollard_rho(n: int) -> Optional[int]:
    """Brent's cycle variant, capped at _RHO_ITERATIONS steps.

    Returns a nontrivial factor of the odd composite n, or None when the
    cap is reached first.  The cap finds prime factors below about 10^8.
    """
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = 0
    while g == 1 and r < _RHO_ITERATIONS:
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + 1) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + 1) % n
            g = math.gcd(abs(x - ys), n)
    return g if 1 < g < n else None


@functools.cache
def _stage1_scalar(b1: int) -> int:
    """The product of the largest powers p^e <= b1 of the primes p <= b1."""
    k = 1
    for p in _SMALL_PRIMES:
        if p > b1:
            break
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    return k


@functools.cache
def _stage2_plan(b1: int) -> tuple[int, tuple[bytes, ...]]:
    """Stage 2 from b1 to b2 = _B2_PER_B1 * b1, planned once per b1.

    The baby steps are the odd j < D/2 prime to D, so every prime p > D/2
    is m D - j or m D + j for one of them.  Returns the first giant step m0
    and, for m = m0, m0 + 1, ..., the indices into the baby steps of the j
    for which m D - j or m D + j is a prime in (b1, b2].
    """
    b2 = _B2_PER_B1 * b1
    flags = _sieve(b2 + 2 * _GIANT_STEP)
    flags[: b1 + 1] = bytes(b1 + 1)
    flags[b2 + 1 :] = bytes(2 * _GIANT_STEP)
    baby = [j for j in range(1, _GIANT_STEP // 2, 2) if math.gcd(j, _GIANT_STEP) == 1]
    m0 = max(1, b1 // _GIANT_STEP)
    plan = []
    for m in range(m0, b2 // _GIANT_STEP + 2):
        centre = m * _GIANT_STEP
        plan.append(bytes(i for i, j in enumerate(baby) if flags[centre - j] or flags[centre + j]))
    return m0, tuple(plan)


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """x-only doubling on the Montgomery curve with (A + 2)/4 = a24."""
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """x-only P + Q, given P - Q = (xd : zd)."""
    u = (xp - zp) * (xq + zq)
    v = (xp + zp) * (xq - zq)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """(x : z) multiplied by k >= 1 with the Montgomery ladder."""
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0 = _xadd(x1, z1, x0, z0, x, z, n)
            x1, z1 = _xdbl(x1, z1, a24, n)
        else:
            x1, z1 = _xadd(x1, z1, x0, z0, x, z, n)
            x0, z0 = _xdbl(x0, z0, a24, n)
    return x0, z0


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """gcd with n found by one curve; 1 or n when the curve failed."""
    # Suyama's parametrisation: P = (u^3 : v^3) on the curve with
    # (A + 2)/4 = (v - u)^3 (3u + v) / (16 u^3 v); its group order is a
    # multiple of 12
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3 = pow(u, 3, n)
    den = 16 * u3 * pow(v, 3, n) % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    x = 16 * u3 * u3 * inv % n  # u^3 / v^3
    a24 = pow(v - u, 3, n) * (3 * u + v) * v * v * inv % n
    # stage 1: Q = k P, with k the b1-smooth scalar
    qx, qz = _ladder(_stage1_scalar(b1), x, 1, a24, n)
    g = math.gcd(qz, n)
    if g != 1:
        return g
    # stage 2: a prime p = m D +- j in (b1, b2] with p Q = O mod a prime
    # factor of n shows as x(m D Q) = x(j Q) there; baby steps j Q and
    # giant steps m D Q are made affine, one inversion per batch, so that
    # each p costs one product
    m0, plan = _stage2_plan(b1)
    step2 = _xdbl(qx, qz, a24, n)
    points = []
    prev = cur = (qx, qz)  # (j - 2) Q and j Q for j = 1; -Q has the x of Q
    for j in range(1, _GIANT_STEP // 2, 2):
        if math.gcd(j, _GIANT_STEP) == 1:
            points.append(cur)
        prev, cur = cur, _xadd(*cur, *step2, *prev, n)
    g, baby = _affine_x(points, n)
    if g != 1:
        return g
    giant = _ladder(_GIANT_STEP, qx, qz, a24, n)
    r = _ladder(m0, *giant, a24, n)
    r_next = _ladder(m0 + 1, *giant, a24, n)
    points = []
    for _ in plan:
        points.append(r)
        r, r_next = r_next, _xadd(*r_next, *giant, *r, n)
    g, giant_x = _affine_x(points, n)
    if g != 1:
        return g
    acc = 1
    for rx, indices in zip(giant_x, plan):
        for i in indices:
            acc = acc * (rx - baby[i]) % n
    return math.gcd(acc, n)


def _affine_x(points: list[tuple[int, int]], n: int) -> tuple[int, list[int]]:
    """(1, [x/z mod n for each (x : z)]) with one inversion (Montgomery's
    trick), or (g, []) with g the first gcd(z, n) != 1 in order."""
    prefix = []
    acc = 1
    for _, z in points:
        acc = acc * z % n
        prefix.append(acc)
    if math.gcd(acc, n) != 1:
        # a prime factor of n dividing the product divides one of the z
        return next(g for g in (math.gcd(z, n) for _, z in points) if g != 1), []
    inv = pow(acc, -1, n)  # 1 / (z_0 ... z_i), for i counting down
    xs = [0] * len(points)
    for i in range(len(points) - 1, 0, -1):
        x, z = points[i]
        xs[i] = x * inv * prefix[i - 1] % n
        inv = inv * z % n
    xs[0] = points[0][0] * inv % n
    return 1, xs


def _ecm(n: int) -> int:
    """A nontrivial factor of the odd composite n by Lenstra's ECM.

    Montgomery curves with Suyama's parametrisation at sigma = 6, 7, 8, ...
    run through _ECM_SCHEDULE; raises FactorizationError when it runs out.
    """
    sigma = 6
    for b1, curves in _ECM_SCHEDULE:
        for _ in range(curves):
            g = _ecm_curve(n, sigma, b1)
            sigma += 1
            if 1 < g < n:
                return g
    raise FactorizationError(f"ECM gave up on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0) as an exponent dictionary.

    Trial division by the sieved primes below 2^14 stops once p^2 exceeds
    the cofactor.  A composite cofactor is reduced to its root if it is a
    perfect power, else split by Pollard rho capped at _RHO_ITERATIONS
    steps and then by ECM.  Each part carries its multiplicity, so a root
    is factored once.  Every step is deterministic; raises
    FactorizationError rather than guessing.
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
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            root, k = power
            stack.append((root, k * e))
            continue
        g = _pollard_rho(m) or _ecm(m)
        stack.extend(((g, e), (m // g, e)))
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


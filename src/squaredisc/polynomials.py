"""Dense univariate polynomials and rational functions over Q.

Everything is exact, and the arithmetic runs on plain Python ints.  A
polynomial is stored as content * P: the content is a ``Fraction`` and P is
a primitive integer tuple (coefficient gcd 1, positive leading coefficient);
the zero polynomial is (0, ()).  A product multiplies the contents and
convolves the tuples, with no gcd, because a product of primitive
polynomials is primitive (Gauss's lemma); a sum meets over one common
denominator and takes one gcd.  Division is pseudo-division, which is exact
integer division whenever the divisor divides, and gcds come from primitive
pseudo-remainder sequences.  Evaluation at x = a/b is one homogeneous Horner
pass sum P_i a^i b^(d-i), so each value costs one ``Fraction``.  Rational
functions are kept reduced with monic denominator, and the mod-squares
reduction used by the congruence checks is computed through Yun's squarefree
decomposition.  Degrees in this project stay around 30, so the dense
representation is entirely adequate.  Rational roots come from one
integer-only finder: the monic transform turns them into integer roots,
which are found p-adically, by roots modulo a small prime, Hensel lifting
past twice their Cauchy bound, an exact check, and exact deflation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .rationals import _SMALL_PRIMES, as_fraction, is_probable_prime, sqrt_rational

Scalar = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleError(ArithmeticError):
    """Evaluation hit a pole of a rational function (a cusp candidate)."""

    label = "cusp candidate"


# -- integer coefficient sequences (ascending, trailing zeros stripped) ----


def _strip(v: list[int]) -> list[int]:
    while v and not v[-1]:
        v.pop()
    return v


def _int_primitive(v: Sequence[int]) -> list[int]:
    """v divided by its content, with a positive leading coefficient."""
    g = math.gcd(*v)
    if g == 0:
        return []
    if v[-1] < 0:
        g = -g
    return [c // g for c in v]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y
    return out


def _int_derivative(v: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(v)][1:]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s * a = q * b + r and deg r < deg b.

    s > 0 is a power of |lc(b)|, picked up only at steps whose leading term
    lc(b) does not divide; so an exact division is exact integer division
    with s = 1, and r is s times the remainder of a mod b over Q.
    """
    lc, db = b[-1], len(b) - 1
    m = abs(lc)
    r = list(a)
    q = [0] * max(0, len(r) - db)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        top = r[k + db]
        if not top:
            continue
        t, rest = divmod(top, lc)
        if rest:
            r = [c * m for c in r]
            q = [c * m for c in q]
            s *= m
            t = top * m // lc
        q[k] = t
        for i in range(db):
            r[k + i] -= t * b[i]
    del r[db:]  # each step cancelled its top entry
    return _strip(q), _strip(r), s


def _int_pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _pseudo_divmod(a, b)[1]


def _horner(v: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(v):
        acc = acc * x + c
    return acc


def _hom_eval(v: Sequence[int], a: int, b: int) -> int:
    """sum v_i a^i b^(d-i), d = len(v) - 1: b^d * v(a/b), by Horner."""
    if b == 1 or not v:
        return _horner(v, a)
    acc = v[-1]
    bp = 1
    for c in reversed(v[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return acc


def _int_quo(a: Sequence[int], b: Sequence[int]) -> Optional[list[int]]:
    """a / b when b divides a with an integral quotient, else None.

    A primitive b that divides a over Q always gives an integral quotient.
    """
    lc, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        t, rest = divmod(r[k + db], lc)
        if rest:
            return None
        q[k] = t
        if t:
            for i in range(db):
                r[k + i] -= t * b[i]
    return None if any(r[:db]) else q


def _exact_quo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    q = _int_quo(a, b)
    if q is None:
        raise ValueError("division is not exact")
    return q


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd of two nonzero primitive sequences.

    First the heuristic gcd of Char, Geddes and Gonnet: at an integer
    xi >= 2 min(|a|, |b|) + 2 (max norms) take h = gcd(a(xi), b(xi)), read
    the balanced xi-adic digits of h as G = c * pp(G), and keep pp(G) if it
    divides a and b.  It is then the gcd D = pp(G) * K: D(xi) divides h,
    so K(xi) divides c, and |c| <= xi / 2; but the roots of K, common to a
    and b, have absolute value below 1 + min(|a|, |b|) <= xi / 2 (Cauchy),
    so a nonconstant K has |K(xi)| > xi / 2.  When three points fail, the
    primitive pseudo-remainder sequence decides.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(3):
        h = math.gcd(_horner(a, xi), _horner(b, xi))
        g = []
        while h:
            digit = h % xi
            if 2 * digit > xi:
                digit -= xi
            g.append(digit)
            h = (h - digit) // xi
        g = _int_primitive(g)
        if _int_quo(a, g) is not None and _int_quo(b, g) is not None:
            return tuple(g)
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(_int_pseudo_rem(a, b))
    return tuple(a)


# -- polynomials -------------------------------------------------------------


def _make(content: Fraction, prim: tuple[int, ...]) -> "Poly":
    """A Poly from its normal form: prim primitive with lc > 0, or (0, ())."""
    p = object.__new__(Poly)
    object.__setattr__(p, "content", content)
    object.__setattr__(p, "prim", prim)
    return p


def _from_ints(v: list[int], num: int = 1, den: int = 1) -> "Poly":
    """The polynomial (num / den) * sum v_i x^i."""
    _strip(v)
    if not v or not num:
        return _make(_ZERO, ())
    g = math.gcd(*v)
    if v[-1] < 0:
        g = -g
    prim = tuple(v) if g == 1 else tuple(c // g for c in v)
    return _make(Fraction(num * g, den), prim)


class Poly:
    """Immutable dense polynomial content * P over Q.

    prim[i] is the coefficient of x^i in the primitive integer part P;
    coeffs[i] = content * prim[i] is derived on demand.
    """

    __slots__ = ("content", "prim", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        fracs = [c if isinstance(c, Fraction) else as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        q = _from_ints([c.numerator * (den // c.denominator) for c in fracs], 1, den)
        object.__setattr__(self, "content", q.content)
        object.__setattr__(self, "prim", q.prim)

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "Poly":
        c = c if isinstance(c, Fraction) else as_fraction(c)
        return _make(c, (1,)) if c else _make(_ZERO, ())

    @staticmethod
    def variable() -> "Poly":
        return _make(_ONE, (0, 1))

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.prim) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.prim

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        try:
            return self._coeffs
        except AttributeError:
            n, d = self.content.numerator, self.content.denominator
            cs = tuple(Fraction(n * c, d) for c in self.prim)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    @property
    def lc(self) -> Fraction:
        if not self.prim:
            return _ZERO
        return Fraction(self.content.numerator * self.prim[-1], self.content.denominator)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.prim == other.prim and self.content == other.content
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.content, self.prim))

    def __bool__(self) -> bool:
        return bool(self.prim)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.prim:
            return self
        if not self.prim:
            return other
        c1, c2 = self.content, other.content
        den = math.lcm(c1.denominator, c2.denominator)
        m1 = c1.numerator * (den // c1.denominator)
        m2 = c2.numerator * (den // c2.denominator)
        a, b = self.prim, other.prim
        if len(a) < len(b):
            a, b, m1, m2 = b, a, m2, m1
        out = [m1 * c for c in a]
        for i, c in enumerate(b):
            out[i] += m2 * c
        return _from_ints(out, 1, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make(-self.content, self.prim)

    def __sub__(self, other) -> "Poly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.prim, other.prim
        if not a or not b:
            return _make(_ZERO, ())
        if len(b) == 1:
            prim = a
        elif len(a) == 1:
            prim = b
        else:
            prim = tuple(_convolve(a, b))
        return _make(self.content * other.content, prim)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other.prim:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self.prim, other.prim)
        # self = c1 * P1 with s * P1 = q * P2 + r, and other = c2 * P2
        c1, c2 = self.content, other.content
        return (
            _from_ints(q, c1.numerator * c2.denominator, c1.denominator * c2.numerator * s),
            _from_ints(r, c1.numerator, c1.denominator * s),
        )

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- calculus / evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        c = self.content
        return _from_ints(_int_derivative(self.prim), c.numerator, c.denominator)

    def __call__(self, x: Scalar) -> Fraction:
        """Value at a rational x = a/b, from one homogeneous Horner pass."""
        x = x if isinstance(x, Fraction) else as_fraction(x)
        c = self.content
        v = _hom_eval(self.prim, x.numerator, x.denominator)
        return Fraction(c.numerator * v, c.denominator * x.denominator ** max(self.degree, 0))

    def compose_fraction(self, num: "Poly", den: "Poly") -> "Poly":
        """Numerator of self(num/den) cleared by den^degree."""
        if not self.prim:
            return _make(_ZERO, ())
        # homogeneous Horner: sum P_i num^i den^(d-i), then the content
        acc = Poly.const(self.prim[-1])
        den_pow = Poly.const(1)
        for c in reversed(self.prim[:-1]):
            den_pow = den_pow * den
            acc = acc * num + den_pow * c
        return acc * self.content

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "Poly":
        if not self.prim:
            raise ValueError("the zero polynomial has no monic form")
        return _make(Fraction(1, self.prim[-1]), self.prim)

    def int_primitive(self) -> tuple[Fraction, tuple[int, ...]]:
        """Write self = content * P with P primitive over Z, lc(P) > 0."""
        return self.content, self.prim

    def to_string(self, var: str = "h") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = var if i == 1 else f"{var}^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.to_string('x')})"


def _coerce_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


# -- gcd and squarefree structure -----------------------------------------


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the primitive pseudo-remainder sequence."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    g = _int_gcd(p.prim, q.prim)
    return _make(Fraction(1, g[-1]), g)


def squarefree_part_poly(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p (its radical)."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no squarefree part")
    if p.degree == 0:
        return Poly.const(1)
    P = _int_squarefree_part(p.prim)
    return _make(Fraction(1, P[-1]), tuple(P))


def _int_squarefree_part(v: Sequence[int]) -> list[int]:
    """Primitive squarefree part of a primitive sequence of degree >= 1."""
    g = _int_gcd(v, _int_primitive(_int_derivative(v)))
    return list(v) if len(g) == 1 else _exact_quo(v, g)


def squarefree_decomposition(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun's algorithm: p = c * prod a_i^i with the a_i monic, squarefree,
    and pairwise coprime.  Factors with a_i = 1 are omitted.

    Runs on the primitive integer part: each b below is primitive and each
    d integral, and they carry one common scalar, which no gcd sees.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    c, P = p.lc, p.prim
    if len(P) == 1:
        return c, []
    dP = _int_derivative(P)
    g = _int_gcd(P, _int_primitive(dP))
    if len(g) == 1:
        return c, [(p.monic(), 1)]
    b = _exact_quo(P, g)
    d = _sub_ints(_exact_quo(dP, g), _int_derivative(b))
    out: list[tuple[Poly, int]] = []
    i = 1
    while len(b) > 1:
        a = _int_gcd(b, _int_primitive(d)) if d else tuple(b)
        if len(a) > 1:
            out.append((_make(Fraction(1, a[-1]), a), i))
        b = _exact_quo(b, a)
        d = _sub_ints(_exact_quo(d, a) if d else [], _int_derivative(b))
        i += 1
    return c, out


def _sub_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _strip(out)


def _int_sqrt_poly(v: Sequence[int]) -> Optional[list[int]]:
    """The w with lc(w) > 0 and w * w == v over Z, or None."""
    if (len(v) - 1) % 2:
        return None
    d = (len(v) - 1) // 2
    lead = math.isqrt(v[-1]) if v[-1] > 0 else 0
    if lead * lead != v[-1] or not lead:
        return None
    w = [0] * (d + 1)
    w[d] = lead
    for k in range(1, d + 1):
        # match the coefficient of x^(2d - k)
        s = sum(w[a] * w[2 * d - k - a] for a in range(d - k + 1, d))
        t, rest = divmod(v[2 * d - k] - s, 2 * lead)
        if rest:
            return None
        w[d - k] = t
    return w if _convolve(w, w) == list(v) else None


def is_perfect_square_poly(p: Poly) -> Optional[Poly]:
    """Return q with q*q == p (leading coefficient > 0), else None.

    p = c * P is a square exactly when c is a rational square and the
    primitive P is the square of a primitive integer polynomial.
    """
    if p.is_zero():
        return Poly()
    if p.degree % 2 != 0:
        return None
    lead = sqrt_rational(p.content)
    if lead is None:
        return None
    root = _int_sqrt_poly(p.prim)
    if root is None:
        return None
    return _make(lead, tuple(root))


# -- rational functions ----------------------------------------------------


class RationalFunction:
    """Reduced fraction of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly.const(1)):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly.const(1)
        else:
            if num.degree > 0 and den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            lc = den.lc
            if lc != 1:
                num = _make(num.content / lc, num.prim)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def const(c: Scalar) -> "RationalFunction":
        return RationalFunction(Poly.const(c))

    @staticmethod
    def variable() -> "RationalFunction":
        return RationalFunction(Poly.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce_rf(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __call__(self, x: Scalar) -> Fraction:
        """Value at a rational x = a/b: numerator and denominator are
        evaluated homogeneously over Z, and one Fraction is built."""
        x = as_fraction(x) if not isinstance(x, Fraction) else x
        a, b = x.numerator, x.denominator
        num, den = self.num, self.den
        dv = _hom_eval(den.prim, a, b)
        if dv == 0:
            raise PoleError(f"pole at {x} (cusp candidate)")
        nv = _hom_eval(num.prim, a, b)
        cn, cd = num.content, den.content
        top = cn.numerator * cd.denominator * nv
        bottom = cn.denominator * cd.numerator * dv
        # num(x) / den(x) = (cn / cd) * (nv / dv) * b^(deg den - deg num)
        shift = den.degree - num.degree
        if shift > 0:
            top *= b ** shift
        elif shift < 0:
            bottom *= b ** -shift
        return Fraction(top, bottom)

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner), as a reduced rational function."""
        num = self.num.compose_fraction(inner.num, inner.den)
        den = self.den.compose_fraction(inner.num, inner.den)
        # both were cleared by inner.den^deg of their own polynomial; rebalance
        dn = self.num.degree if not self.num.is_zero() else 0
        dd = self.den.degree if not self.den.is_zero() else 0
        if dn < dd:
            num = num * inner.den ** (dd - dn)
        elif dd < dn:
            den = den * inner.den ** (dn - dd)
        return RationalFunction(num, den)

    def to_string(self, var: str = "h") -> str:
        ns = self.num.to_string(var)
        if self.den.degree <= 0:
            return ns
        return f"({ns}) / ({self.den.to_string(var)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.to_string('x')})"


def _coerce_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Poly):
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction(Poly.const(value))
    return NotImplemented


def mod_square_class_rf(f: RationalFunction) -> tuple[Poly, Fraction]:
    """Reduce f modulo squares of rational functions.

    Returns (M, c) with M monic and c rational such that f = c * M * g^2
    for some rational function g: M is the product of the irreducible
    factors appearing to odd order in num(f) * den(f), and c is the
    leading-coefficient content.  Two nonzero functions lie in the same
    square class iff their M's are equal and the ratio of their c's is a
    rational square.
    """
    if f.is_zero():
        raise ValueError("the zero function has no square class")
    w = f.num * f.den
    c, factors = squarefree_decomposition(w)
    odd = Poly.const(1)
    for a, mult in factors:
        if mult % 2 == 1:
            odd = odd * a
    return odd, c


def rf_sqrt(f: RationalFunction) -> Optional[RationalFunction]:
    """Exact square root of f as a rational function, if one exists."""
    if f.is_zero():
        return RationalFunction(Poly())
    c = f.num.lc  # denominator is monic
    s = sqrt_rational(c)
    if s is None:
        return None
    num_root = is_perfect_square_poly(f.num.monic())
    if num_root is None:
        return None
    den_root = is_perfect_square_poly(f.den)
    if den_root is None:
        return None
    return RationalFunction(Poly.const(s) * num_root, den_root)


# -- expression parsing -----------------------------------------------------


class _Parser:
    """Recursive-descent parser for +, -, *, /, ^, integers and one variable."""

    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.pos = 0

    def error(self, msg: str):
        raise ValueError(f"parse error at position {self.pos} in {self.text!r}: {msg}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> RationalFunction:
        try:
            value = self.expr()
        except ZeroDivisionError:
            self.error("division by zero")
        if self.peek():
            self.error("trailing input")
        return value

    def expr(self) -> RationalFunction:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            value = -self.term()
        else:
            value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> RationalFunction:
        value = self.power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.power()
            elif ch == "/":
                self.pos += 1
                value = value / self.power()
            else:
                return value

    def power(self) -> RationalFunction:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            neg = False
            if self.peek() == "-":
                neg = True
                self.pos += 1
            exp = self.integer()
            return base ** (-exp if neg else exp)
        return base

    def atom(self) -> RationalFunction:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit():
            return RationalFunction.const(self.integer())
        if ch.isalpha():
            name = ch
            self.pos += 1
            if name != self.var:
                self.error(f"unknown variable {name!r} (expected {self.var!r})")
            return RationalFunction.variable()
        self.error("expected a value")

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])


def parse_rational_function(text: str, var: str) -> RationalFunction:
    return _Parser(text, var).parse()


def parse_poly(text: str, var: str) -> Poly:
    rf = parse_rational_function(text, var)
    if rf.den.degree != 0 or rf.den.lc != 1:
        raise ValueError(f"{text!r} is not a polynomial in {var}")
    return rf.num


# -- exact rational roots ----------------------------------------------------


def _horner_mod(v: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(v):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod(q: Sequence[int], p: int) -> Optional[list[int]]:
    """The roots of q modulo the prime p, or None if one of them is repeated."""
    v = [c % p for c in q]
    dv = _int_derivative(v)
    roots = []
    for r in range(p):
        if not _horner_mod(v, r, p):
            if not _horner_mod(dv, r, p):
                return None
            roots.append(r)
    return roots


def _primes() -> Iterator[int]:
    yield from _SMALL_PRIMES
    yield from filter(is_probable_prime, itertools.count(_SMALL_PRIMES[-1] + 2, 2))


def _deflate(q: Sequence[int], z: int) -> tuple[list[int], int]:
    """(q / (x - z), q(z)) by synthetic division: Horner, keeping each step."""
    out = [0] * (len(q) - 1)
    acc = 0
    for i in range(len(q) - 1, 0, -1):
        acc = acc * z + q[i]
        out[i - 1] = acc
    return out, acc * z + q[0]


def _monic_integer_roots(q: list[int], bound: int) -> list[int]:
    """The integer roots of the squarefree monic q, all of them below bound
    in absolute value."""
    if len(q) == 2:
        return [-q[0]]
    if len(q) == 3:
        disc = q[1] * q[1] - 4 * q[0]  # nonzero: q is squarefree
        if disc < 0:
            return []
        s = math.isqrt(disc)
        # s^2 = q1^2 (mod 4) makes s = q1 (mod 2), so both roots are integers
        return [(-q[1] - s) // 2, (-q[1] + s) // 2] if s * s == disc else []
    for p in _primes():
        residues = _simple_roots_mod(q, p)
        if residues is not None:
            break
    roots = []
    for r in residues:
        if len(q) <= 3:
            return roots + _monic_integer_roots(q, bound)
        dq = _int_derivative(q)
        z, m = r, p
        while m <= 2 * bound:
            m *= m
            z = (z - _horner_mod(q, z, m) * pow(_horner_mod(dq, z, m), -1, m)) % m
        if 2 * z > m:
            z -= m
        quotient, value = _deflate(q, z)
        if not value:
            roots.append(z)
            q = quotient
    return roots


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, exactly, without factoring any integers.

    Let P be the squarefree primitive integer form of p, with leading
    coefficient a > 0 and degree d.  Every rational root of P is z/a for an
    integer root z of the monic Q(z) = a^(d-1) * P(z/a), and |z| < B =
    a + max|P| by Cauchy's bound.  The integer roots of Q are found
    p-adically (Loos 1983; von zur Gathen and Gerhard, section 15.4):

    - Take the first prime p at which every root of Q mod p is simple
      (Q'(r) != 0 mod p), found by trying all p residues.  Q is squarefree,
      so only the finitely many primes dividing its discriminant can fail.
      An integer root reduces to a root mod p, so none mod p means none.
    - A simple root r mod p lifts to exactly one root mod p^k for each k
      (Hensel): if z and z + t p^j (j > 0, p not dividing t) were both
      roots mod p^(j+1), Q(z + t p^j) = Q(z) + t p^j Q'(z) mod p^(j+1)
      would force p | Q'(z), that is p | Q'(r).
      Newton steps z <- z - Q(z) / Q'(z), each mod the square of the last
      modulus, find that root, and an integer root congruent to r is
      congruent to it mod every p^k.
    - Stop at a modulus m > 2B.  An integer root z has |z| < B < m/2, so it
      is the symmetric residue of the lift, the one in (-m/2, m/2].
    - Keep the residue only if Q at it is exactly 0, which proves it a root,
      and divide Q by (x - z); the other roots mod p stay simple roots of
      the quotient.  Degrees 2 and 1 are solved in closed form.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    if p.degree < 1:
        return []
    P = _int_squarefree_part(p.prim)
    a, d = P[-1], len(P) - 1
    Q = [c * a ** (d - 1 - i) for i, c in enumerate(P[:-1])] + [1]
    return sorted(Fraction(z, a) for z in _monic_integer_roots(Q, a + max(map(abs, P))))

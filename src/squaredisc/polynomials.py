"""Dense univariate polynomials and rational functions over Q.

Everything is exact: coefficients are ``Fraction`` values, rational
functions are kept reduced with monic denominator, and the mod-squares
reduction used by the congruence checks is computed through Yun's
squarefree decomposition.  Degrees in this project stay around 30, so the
dense representation and primitive-PRS gcd are entirely adequate.  Rational
roots come from one integer-only finder: the monic transform turns them into
integer roots, which a Sturm chain over Z and bisection on integer endpoints
locate with plain-int Horner evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence, Union

from .rationals import as_fraction, sqrt_rational

Scalar = Union[Fraction, int]


class PoleError(ArithmeticError):
    """Evaluation hit a pole of a rational function (a cusp candidate)."""

    label = "cusp candidate"


class Poly:
    """Immutable dense polynomial; coeffs[i] is the coefficient of x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def variable() -> "Poly":
        return Poly([0, 1])

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

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
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + k] += a * b
        return Poly(out)

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
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        inv_lc = 1 / other.lc
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] * inv_lc
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= factor * c
            rem.pop()
        return Poly(q), Poly(rem)

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
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; works for Fraction and RationalFunction inputs."""
        if not self.coeffs:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose_fraction(self, num: "Poly", den: "Poly") -> "Poly":
        """Numerator of self(num/den) cleared by den^degree."""
        if self.is_zero():
            return Poly()
        d = self.degree
        acc = Poly()
        num_pow = Poly.const(1)
        den_pows = [Poly.const(1)]
        for _ in range(d):
            den_pows.append(den_pows[-1] * den)
        for i, c in enumerate(self.coeffs):
            if c != 0:
                acc = acc + Poly.const(c) * num_pow * den_pows[d - i]
            num_pow = num_pow * num
        return acc

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic form")
        inv = 1 / self.lc
        return Poly([c * inv for c in self.coeffs])

    def int_primitive(self) -> tuple[Fraction, tuple[int, ...]]:
        """Write self = content * P with P primitive over Z, lc(P) > 0."""
        if self.is_zero():
            return Fraction(0), ()
        den_lcm = reduce(math.lcm, (c.denominator for c in self.coeffs), 1)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = reduce(math.gcd, (abs(v) for v in ints), 0)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den_lcm), tuple(v // g for v in ints)

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


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of |lc(b)|^k * a on division by b, for integer coefficient
    sequences (ascending).  The multiplier is positive, so the result has
    the sign of a mod b, as Sturm chains need."""
    a = a[:]
    db = len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) > db:
        top = a.pop() * sign
        if top:
            k = len(a) - db
            a = [c * scale for c in a]
            for i, c in enumerate(b[:-1]):
                a[k + i] -= top * c
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_primitive(v: list[int]) -> list[int]:
    g = reduce(math.gcd, (abs(c) for c in v), 0)
    if g == 0:
        return []
    if v[-1] < 0:
        g = -g
    return [c // g for c in v]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd via the primitive pseudo-remainder sequence."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    _, a = p.int_primitive()
    _, b = q.int_primitive()
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_pseudo_rem(a, b)
        a, b = b, _int_primitive(r)
    return Poly(a).monic()


def squarefree_part_poly(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p (its radical)."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no squarefree part")
    if p.degree == 0:
        return Poly.const(1)
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g).monic()


def squarefree_decomposition(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun's algorithm: p = c * prod a_i^i with the a_i monic, squarefree,
    and pairwise coprime.  Factors with a_i = 1 are omitted."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    c = p.lc
    p = p.monic()
    if p.degree == 0:
        return c, []
    out: list[tuple[Poly, int]] = []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return c, [(p, 1)]
    b = p.exact_div(g)
    d = p.derivative().exact_div(g) - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d) if not d.is_zero() else b.monic()
        if a.degree > 0:
            out.append((a.monic(), i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return c, out


def is_perfect_square_poly(p: Poly) -> Optional[Poly]:
    """Return q with q*q == p (leading coefficient > 0), else None."""
    if p.is_zero():
        return Poly()
    if p.degree % 2 != 0:
        return None
    lead = sqrt_rational(p.lc)
    if lead is None:
        return None
    d = p.degree // 2
    q = [Fraction(0)] * (d + 1)
    q[d] = lead
    inv2lead = 1 / (2 * lead)
    for k in range(1, d + 1):
        # match the coefficient of x^(2d - k)
        s = Fraction(0)
        for a in range(d - k + 1, d):
            b = 2 * d - k - a
            if d - k < b <= d:
                s += q[a] * q[b]
        target = p.coeffs[2 * d - k] if 2 * d - k < len(p.coeffs) else Fraction(0)
        q[d - k] = (target - s) * inv2lead
    cand = Poly(q)
    if cand * cand == p:
        return cand
    return None


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
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.lc
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
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
        x = as_fraction(x) if not isinstance(x, Fraction) else x
        dv = self.den(x)
        if dv == 0:
            raise PoleError(f"pole at {x} (cusp candidate)")
        return self.num(x) / dv

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
        value = self.expr()
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


def _horner(v: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(v):
        acc = acc * x + c
    return acc


def _sign_changes(chain: Sequence[Sequence[int]], x: int) -> int:
    signs = [v > 0 for v in (_horner(c, x) for c in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, exactly, without factoring any integers.

    Let P be the squarefree primitive integer form of p, with leading
    coefficient a > 0 and degree d.  Every rational root of P is z/a for an
    integer root z of the monic Q(z) = a^(d-1) * P(z/a), and |z| < a + max|P|
    by Cauchy's bound.  The Sturm chain of P over Z, carried through the same
    substitution, counts the roots of Q in half-open integer intervals;
    bisection on integer endpoints, with plain-int Horner evaluation, then
    pins each root to a unit interval and keeps it if it is an integer.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    _, P = squarefree_part_poly(p).int_primitive()
    a, d = P[-1], len(P) - 1
    if d < 1:
        return []
    chain = [list(P), [i * c for i, c in enumerate(P)][1:]]
    while len(chain[-1]) > 1:
        # next member: -(previous mod current), divided by its positive content
        r = _int_pseudo_rem(chain[-2], chain[-1])
        g = reduce(math.gcd, r, 0)
        chain.append([-c // g for c in r])
    # a^deg(v) * v(z/a) has the sign of v(z/a), and chain[0] becomes a * Q
    chain = [[c * a ** (len(v) - 1 - i) for i, c in enumerate(v)] for v in chain]
    q = chain[0]
    bound = a + max(abs(c) for c in P)
    roots = []
    work = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while work:
        lo, hi, vlo, vhi = work.pop()
        if vlo == vhi:
            continue
        if vlo - vhi > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = _sign_changes(chain, mid)
            work += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
            continue
        # one simple root in (lo, hi], or the unit interval's only integer hi:
        # q keeps the sign of q(hi) on the root's right and flips on its left
        qhi = _horner(q, hi)
        while qhi and hi - lo > 1:
            mid = (lo + hi) // 2
            qmid = _horner(q, mid)
            if qmid == 0 or (qmid > 0) == (qhi > 0):
                hi, qhi = mid, qmid
            else:
                lo = mid
        if qhi == 0:
            roots.append(Fraction(hi, a))
    return sorted(roots)

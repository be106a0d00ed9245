"""Weierstrass models over Q: invariants, coordinate changes, twists.

Models are immutable; a degenerate model (discriminant zero) is
representable so parametrization endpoints can be passed around, but any
operation that needs an elliptic curve raises SingularModelError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

# factorize is unused here, but perfbench/tracing.py wraps weierstrass.factorize
from .rationals import RationalLike, as_fraction, factorize


class SingularModelError(ValueError):
    """The model has discriminant zero where a smooth curve is required."""


class Invariants(NamedTuple):
    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Optional[Fraction]  # None when disc == 0 ("j undefined")


@dataclass(frozen=True)
class GeneralModel:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    def invariants(self) -> Invariants:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
        disc = -(b2 * b2 * b8) - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        j = c4 ** 3 / disc if disc != 0 else None
        return Invariants(b2, b4, b6, b8, c4, c6, disc, j)

    @property
    def discriminant(self) -> Fraction:
        return self.invariants().disc

    @property
    def j(self) -> Optional[Fraction]:
        return self.invariants().j

    def is_singular(self) -> bool:
        return self.discriminant == 0

    def assert_nonsingular(self) -> None:
        if self.is_singular():
            raise SingularModelError(f"discriminant is zero: {self}")

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self) -> str:
        return (
            f"y^2 + {self.a1}*x*y + {self.a3}*y = "
            f"x^3 + {self.a2}*x^2 + {self.a4}*x + {self.a6}"
        )


@dataclass(frozen=True)
class ShortModel:
    """y^2 = x^3 + A*x + B."""

    A: Fraction
    B: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", as_fraction(self.A))
        object.__setattr__(self, "B", as_fraction(self.B))

    def to_general(self) -> GeneralModel:
        return GeneralModel(0, 0, 0, self.A, self.B)

    @property
    def discriminant(self) -> Fraction:
        return -16 * (4 * self.A ** 3 + 27 * self.B ** 2)

    @property
    def j(self) -> Optional[Fraction]:
        disc = self.discriminant
        if disc == 0:
            return None
        return -1728 * (4 * self.A) ** 3 / disc

    def invariants(self) -> Invariants:
        return self.to_general().invariants()

    def is_singular(self) -> bool:
        return self.discriminant == 0

    def assert_nonsingular(self) -> None:
        if self.is_singular():
            raise SingularModelError(f"discriminant is zero: {self}")

    def __str__(self) -> str:
        return f"y^2 = x^3 + {self.A}*x + {self.B}"


AnyModel = Union[GeneralModel, ShortModel]


def as_general(m: AnyModel) -> GeneralModel:
    return m.to_general() if isinstance(m, ShortModel) else m


@dataclass(frozen=True)
class ChangeOfVariables:
    """x = u^2 x' + r,  y = u^3 y' + u^2 s x' + t  (u != 0)."""

    u: Fraction
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.u == 0:
            raise ValueError("a change of variables needs u != 0")

    @staticmethod
    def identity() -> "ChangeOfVariables":
        return ChangeOfVariables(1)

    def compose(self, second: "ChangeOfVariables") -> "ChangeOfVariables":
        """Apply self first, then second (as coordinate substitutions)."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = second.u, second.r, second.s, second.t
        return ChangeOfVariables(
            u1 * u2,
            u1 * u1 * r2 + r1,
            u1 * s2 + s1,
            u1 ** 3 * t2 + u1 * u1 * s1 * r2 + t1,
        )

    def inverse(self) -> "ChangeOfVariables":
        u, r, s, t = self.u, self.r, self.s, self.t
        return ChangeOfVariables(1 / u, -r / u ** 2, -s / u, (r * s - t) / u ** 3)


def transform(m: AnyModel, c: ChangeOfVariables) -> GeneralModel:
    """Rewrite the model in the new coordinates; disc(m) = u^12 * disc(result)."""
    g = as_general(m)
    u, r, s, t = c.u, c.r, c.s, c.t
    a1, a2, a3, a4, a6 = g.coefficients()
    a1n = (a1 + 2 * s) / u
    a2n = (a2 - s * a1 + 3 * r - s * s) / u ** 2
    a3n = (a3 + r * a1 + 2 * t) / u ** 3
    a4n = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4
    a6n = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6
    return GeneralModel(a1n, a2n, a3n, a4n, a6n)


def short_form(m: AnyModel) -> tuple[ShortModel, ChangeOfVariables]:
    """Short Weierstrass model plus the coordinate change that reaches it.

    transform(m, cov) equals the returned short model; j is preserved and
    disc(m) = u^12 * disc(short).  The scale u = 1/k with
    k = lcm(den a0, den b0) clears the denominators of the completed-square
    coefficients a0 = -c4/48 and b0 = -c6/864, without factoring anything.
    """
    g = as_general(m)
    if g.a1 == 0 and g.a2 == 0 and g.a3 == 0:
        return ShortModel(g.a4, g.a6), ChangeOfVariables.identity()
    inv = g.invariants()
    a0 = -inv.c4 / 48
    b0 = -inv.c6 / 864
    k = math.lcm(a0.denominator, b0.denominator)
    # kill a1, a3, then a2, then rescale by u = 1/k
    cov = ChangeOfVariables(1, 0, -g.a1 / 2, -g.a3 / 2)
    cov = cov.compose(ChangeOfVariables(1, -inv.b2 / 12, 0, 0))
    cov = cov.compose(ChangeOfVariables(Fraction(1, k), 0, 0, 0))
    short = ShortModel(a0 * k ** 4, b0 * k ** 6)
    return short, cov


def quadratic_twist(m: ShortModel, d: RationalLike) -> ShortModel:
    """Twist by d: (A, B) -> (d^2 A, d^3 B); disc scales by d^6, j is kept."""
    d = as_fraction(d)
    if d == 0:
        raise ValueError("twist parameter must be nonzero")
    return ShortModel(d * d * m.A, d ** 3 * m.B)


def quartic_twist(A: RationalLike, d: RationalLike) -> ShortModel:
    """y^2 = x^3 + d*A*x (j = 1728 family); disc scales by d^3."""
    A = as_fraction(A)
    d = as_fraction(d)
    if A == 0 or d == 0:
        raise ValueError("quartic twist needs A != 0 and d != 0")
    return ShortModel(d * A, 0)


def sextic_twist(B: RationalLike, d: RationalLike) -> ShortModel:
    """y^2 = x^3 + d*B (j = 0 family); disc scales by d^2."""
    B = as_fraction(B)
    d = as_fraction(d)
    if B == 0 or d == 0:
        raise ValueError("sextic twist needs B != 0 and d != 0")
    return ShortModel(0, d * B)


# -- serialization (CLI wire format) ----------------------------------------


def parse_curve(text: str) -> AnyModel:
    """Parse "[a1,a2,a3,a4,a6]" or "[A,B]" with entries like "3" or "-1/2"."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raw = [part.strip() for part in text.strip().strip("[]").split(",")]
    if not isinstance(raw, list) or len(raw) not in (2, 5):
        raise ValueError("curve must be a 2-tuple [A,B] or 5-tuple [a1,a2,a3,a4,a6]")
    values = [as_fraction(str(v)) for v in raw]
    if len(values) == 2:
        return ShortModel(*values)
    return GeneralModel(*values)


def model_to_strings(m: AnyModel) -> list[str]:
    if isinstance(m, ShortModel):
        return [str(m.A), str(m.B)]
    return [str(c) for c in m.coefficients()]

"""Square-discriminant classification of elliptic curves over Q.

Two independent routes decide whether disc(E) is a rational square: the
direct route computes the discriminant and tests squareness; the
j-invariant route uses the twist structure of the three reference models

    E_j0: y^2 = x^3 - 27j0/(j0-1728) x + 54j0/(j0-1728)   (j0 != 0, 1728)
    E_0: y^2 = x^3 + 1                                    (j = 0)
    E_1728: y^2 = x^3 + x                                 (j = 1728)

and must agree with the direct route on every curve.  The CM machinery
(the thirteen rational CM j-invariants and the isogeny graph of
y^2 = x^3 - t^2 x) lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rationals import RationalLike, as_fraction, is_square_rational, sqrt_rational
from .weierstrass import AnyModel, ShortModel, as_general, short_form

BRANCH_GENERIC = "generic-j"
BRANCH_J_ZERO = "j-zero"
BRANCH_J_1728 = "j-1728"

# The thirteen j-invariants of CM elliptic curves over Q.
CM_J_INVARIANTS: tuple[int, ...] = (
    0,
    54000,              # 2^4 3^3 5^3
    -12288000,          # -2^15 3 5^3
    1728,               # 2^6 3^3
    287496,             # 2^3 3^3 11^3
    -3375,              # -3^3 5^3
    16581375,           # 3^3 5^3 17^3
    8000,               # 2^6 5^3
    -32768,             # -2^15
    -884736,            # -2^15 3^3
    -884736000,         # -2^18 3^3 5^3
    -147197952000,      # -2^15 3^3 5^3 11^3
    -262537412640768000, # -2^18 3^3 5^3 23^3 29^3
)

_CM_SET = frozenset(Fraction(v) for v in CM_J_INVARIANTS)


@dataclass(frozen=True)
class SquareDiscVerdict:
    is_square: bool
    branch: str
    witness: Optional[Fraction]  # t with j = t^2 + 1728, or s with A = -s^2

    def as_dict(self) -> dict:
        return {
            "is_square": self.is_square,
            "branch": self.branch,
            "witness": None if self.witness is None else str(self.witness),
        }


def square_disc_direct(m: AnyModel) -> bool:
    """Squareness of the discriminant, decided directly."""
    m.assert_nonsingular()
    return is_square_rational(m.discriminant)


def square_disc_by_j(m: AnyModel) -> SquareDiscVerdict:
    """Squareness decided through the j-invariant twist criteria.

    Branches: for generic j the test is whether j - 1728 is a rational
    square; for j = 0 the answer is always no; for j = 1728 the input
    itself is reduced to y^2 = x^3 + Ax and the test is whether -A is a
    rational square.  Agrees with square_disc_direct on every curve.
    """
    m.assert_nonsingular()
    j = as_general(m).j
    if j == 0:
        return SquareDiscVerdict(False, BRANCH_J_ZERO, None)
    if j == 1728:
        short, _ = short_form(m)
        # j = 1728 forces B = 0 in any short model
        witness = sqrt_rational(-short.A)
        return SquareDiscVerdict(witness is not None, BRANCH_J_1728, witness)
    witness = sqrt_rational(j - 1728)
    return SquareDiscVerdict(witness is not None, BRANCH_GENERIC, witness)


def curve_from_j(j0: RationalLike) -> ShortModel:
    """A short model with the requested j-invariant.

    For j0 outside {0, 1728} the model is E_j0 above, whose discriminant
    is exactly 2^12 3^12 j0^2/(j0-1728)^3; the exceptional values get
    y^2 = x^3 + 1 and y^2 = x^3 + x.
    """
    j0 = as_fraction(j0)
    if j0 == 0:
        return ShortModel(0, 1)
    if j0 == 1728:
        return ShortModel(1, 0)
    c = j0 / (j0 - 1728)
    return ShortModel(-27 * c, 54 * c)


def is_cm_j(j: RationalLike) -> bool:
    """Membership in the thirteen rational CM j-invariants."""
    return as_fraction(j) in _CM_SET


@dataclass(frozen=True)
class CmIsogenyGraph:
    """The four CM curves around y^2 = x^3 - t^2 x and its 2-isogenies."""

    center: ShortModel        # E_{-t^2}: y^2 = x^3 - t^2 x
    quotient_1728: ShortModel  # E_{4t^2}: y^2 = x^3 + 4 t^2 x
    quotient_plus: ShortModel  # E'_{+t}:  y^2 = x^3 - 11 t^2 x + 14 t^3
    quotient_minus: ShortModel  # E'_{-t}: y^2 = x^3 - 11 t^2 x - 14 t^3

    def as_dict(self) -> dict:
        return {
            "center": [str(self.center.A), str(self.center.B)],
            "quotient_1728": [str(self.quotient_1728.A), str(self.quotient_1728.B)],
            "quotient_plus": [str(self.quotient_plus.A), str(self.quotient_plus.B)],
            "quotient_minus": [str(self.quotient_minus.A), str(self.quotient_minus.B)],
        }


def cm_isogeny_graph(t: RationalLike) -> CmIsogenyGraph:
    """Models around E_{-t^2}, with their discriminants checked exactly:
    disc(E_{4t^2}) = -2^12 t^6 and disc(E'_{+-t}) = 2^9 t^6."""
    t = as_fraction(t)
    if t == 0:
        raise ValueError("the CM family needs t != 0")
    t2 = t * t
    center = ShortModel(-t2, 0)
    quot = ShortModel(4 * t2, 0)
    plus = ShortModel(-11 * t2, 14 * t ** 3)
    minus = ShortModel(-11 * t2, -14 * t ** 3)
    t6 = t2 ** 3
    if quot.discriminant != -(2 ** 12) * t6:
        raise AssertionError("disc(E_{4t^2}) != -2^12 t^6")
    for member in (plus, minus):
        if member.discriminant != 2 ** 9 * t6:
            raise AssertionError("disc(E'_{+-t}) != 2^9 t^6")
    if quot.j != 1728 or plus.j != 287496 or minus.j != 287496:
        raise AssertionError("unexpected j on the CM isogeny graph")
    return CmIsogenyGraph(center, quot, plus, minus)


def cm_nonsquare_scan() -> list[dict]:
    """For each CM j-invariant other than 1728, check j - 1728 is not a
    rational square; returns one verdict record per value."""
    out = []
    for j in CM_J_INVARIANTS:
        if j == 1728:
            continue
        shifted = Fraction(j) - 1728
        out.append(
            {
                "j": str(j),
                "j_minus_1728_is_square": is_square_rational(shifted),
                "ok": not is_square_rational(shifted),
            }
        )
    return out

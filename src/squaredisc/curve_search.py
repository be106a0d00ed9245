"""Genus bookkeeping and bounded-height rational point search on C_N, X_N.

The search is exact end to end: candidate h values are fractions a/b in
lowest terms with |a| <= H and 0 < b <= H.  Squareness of F(a/b) (and
G(a/b) for X_N) is decided over the integers, as in Stoll's ratpoints:
with F = (n/m) * P for the primitive integer P and e = 2*ceil(deg/2),
F(a/b) = W / (m b^(e/2))^2 for the integer W = n m sum of P_i a^i b^(e-i),
so F(a/b) is a square exactly when W is.  A negative W or a non-residue
modulo 64, 63, 65 or 11 is rejected before any integer square root.
Results come back in a canonical order (denominator, numerator, then sign
of the y and z coordinates), so the outcome does not depend on how the
candidate box is partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .families import family, load_catalog
from .polynomials import Poly, poly_gcd


@dataclass(frozen=True, order=True)
class AffinePointC:
    h: Fraction
    y: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.h, self.y)


@dataclass(frozen=True, order=True)
class AffinePointX:
    h: Fraction
    y: Fraction
    z: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.h, self.y, self.z)


def genus_hyperelliptic(f: Poly) -> int:
    """Genus of y^2 = f(h) for squarefree f: floor((deg f - 1) / 2)."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("model is singular; take squarefree part first")
    return (f.degree - 1) // 2


def _square_flags(m: int) -> bytes:
    """flags[r] == 1 exactly when r is a square modulo m."""
    flags = bytearray(m)
    for x in range(m):
        flags[x * x % m] = 1
    return bytes(flags)


# A square integer is a square modulo each of these; a random integer
# passes all four with probability about 1/120.
_SQ64, _SQ63, _SQ65, _SQ11 = map(_square_flags, (64, 63, 65, 11))


class _SquareRoot:
    """h = a/b -> the nonnegative square root of f(a/b), or None.

    With f = (n/m) * P for the primitive integer P, evaluates the integer
    W = n m sum P_i a^i b^(e-i), so that f(a/b) = W / (m b^(e/2))^2; the row
    of n m P_i b^(e-i) is rebuilt only when b changes, so a search grouped
    by b pays one Horner pass in a per candidate.
    """

    __slots__ = ("_terms", "_m", "_half", "_b", "_row", "_den")

    def __init__(self, f: Poly):
        n, m = f.content.numerator, f.content.denominator
        self._half = (f.degree + 1) // 2
        # (e - i, n m P_i) from the leading term down, ready for Horner in a
        self._terms = tuple(
            (2 * self._half - i, n * m * c) for i, c in reversed(tuple(enumerate(f.prim)))
        )
        self._m = m
        self._b = 0

    def __call__(self, a: int, b: int) -> Optional[Fraction]:
        if b != self._b:
            self._b = b
            self._row = tuple(c * b ** k for k, c in self._terms)
            self._den = self._m * b ** self._half
        w = 0
        for c in self._row:
            w = w * a + c
        if w < 0 or not (_SQ64[w & 63] and _SQ63[w % 63] and _SQ65[w % 65] and _SQ11[w % 11]):
            return None
        root = math.isqrt(w)
        if root * root != w:
            return None
        return Fraction(root, self._den)


def _height_box(H: int):
    """All (a, b) in lowest terms with |a| <= H, 0 < b <= H, grouped by b."""
    for b in range(1, H + 1):
        for a in range(-H, H + 1):
            if math.gcd(a, b) == 1:
                yield a, b


def search_C(N: int, H: int, data_dir: Optional[str] = None) -> list[AffinePointC]:
    """All affine points of C_N with height(h) <= H, canonically ordered."""
    sqrt_F = _SquareRoot(family(N, data_dir).F)
    points = []
    for a, b in _height_box(H):
        y = sqrt_F(a, b)
        if y is None:
            continue
        h = Fraction(a, b)
        if y == 0:
            points.append(AffinePointC(h, y))
        else:
            points.append(AffinePointC(h, -y))
            points.append(AffinePointC(h, y))
    points.sort(key=lambda p: (p.h.denominator, p.h.numerator, p.y))
    return points


def search_X(N: int, H: int, data_dir: Optional[str] = None) -> list[AffinePointX]:
    """All affine points of X_N with height(h) <= H, canonically ordered."""
    fam = family(N, data_dir)
    sqrt_F = _SquareRoot(fam.F)
    sqrt_G = _SquareRoot(fam.G)
    points = []
    for a, b in _height_box(H):
        y = sqrt_F(a, b)
        if y is None:
            continue
        z = sqrt_G(a, b)
        if z is None:
            continue
        h = Fraction(a, b)
        ys = (y,) if y == 0 else (-y, y)
        zs = (z,) if z == 0 else (-z, z)
        for yy in ys:
            for zz in zs:
                points.append(AffinePointX(h, yy, zz))
    points.sort(key=lambda p: (p.h.denominator, p.h.numerator, p.y, p.z))
    return points


def cusp_check(
    N: int, which: str = "C", data_dir: Optional[str] = None
) -> list[dict]:
    """Every stated point of C_N (or X_N) must sit over a cusp: its h must
    be a pole of j_N (for C) or of j_N or j'_N (for X)."""
    fam = family(N, data_dir)
    out = []
    if which == "C":
        if fam.genus_C < 1:
            raise ValueError(f"C_{N} has genus 0: no finite point table to check")
        for h, y in fam.known_points_C:
            ok = fam.j_map.den(h) == 0
            out.append({"point": f"({h},{y})", "h": str(h), "is_cusp": ok, "ok": ok})
    elif which == "X":
        if fam.genus_X is None or fam.genus_X < 1:
            raise ValueError(f"X_{N} has genus 0: no finite point table to check")
        for h, y, z in fam.known_points_X:
            ok = fam.j_map.den(h) == 0 or fam.jprime_map.den(h) == 0
            out.append({"point": f"({h},{y},{z})", "h": str(h), "is_cusp": ok, "ok": ok})
    else:
        raise ValueError("which must be 'C' or 'X'")
    return out


def table_levels_C(data_dir: Optional[str] = None) -> list[int]:
    """Levels whose C_N has positive genus (finite stated point sets)."""
    cat = load_catalog(data_dir)
    return sorted(n for n, fam in cat.families.items() if fam.genus_C >= 1)


def table_levels_X(data_dir: Optional[str] = None) -> list[int]:
    cat = load_catalog(data_dir)
    return sorted(
        n for n, fam in cat.families.items() if fam.genus_X is not None and fam.genus_X >= 1
    )

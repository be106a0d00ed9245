"""The isogeny-family catalog and its verifiers.

The data file carries, for each level N with infinitely many N-isogenous
pairs, the j-maps of the pair, the square-condition polynomials F and G,
the genus data and parametrizations of the curves C_N and X_N, and the
closed-form j parametrizations of the square-discriminant families.  The
loader cross-checks every factored string against its expanded
coefficient list and validates the structural invariants before anything
else runs; the verifiers then mechanize the claims (congruences,
parametrization identities, finite-level scans) as exact computations.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .classify import is_cm_j
from .polynomials import (
    Poly,
    PoleError,
    RationalFunction,
    mod_square_class_rf,
    parse_poly,
    parse_rational_function,
    poly_gcd,
    rational_roots,
    rf_sqrt,
)
# sqrt_rational is unused here, but perfbench/tracing.py wraps families.sqrt_rational
from .rationals import RationalLike, as_fraction, is_square_rational, sqrt_rational

GENUS_ZERO_LEVELS = (2, 3, 4, 6, 7, 8)
THEOREM1_LEVELS = (2, 3, 4, 6, 7, 8)
THEOREM2_LEVELS = (2, 3, 4, 7)
ALL_LEVELS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)
FINITE_LEVELS = (11, 14, 15, 17, 19, 21, 27, 37, 43, 67, 163)
LEMMA_LEVELS = (11, 15, 17, 21, 37)

DATA_ENV_VAR = "SQUAREDISC_DATA_DIR"


class CatalogError(ValueError):
    """The family catalog failed a startup self-check."""


@dataclass(frozen=True)
class IsogenyFamily:
    N: int
    j_map: RationalFunction
    jprime_map: RationalFunction
    F: Poly
    G: Poly
    genus_C: int
    genus_X: Optional[int]
    h_param_C: Optional[RationalFunction]
    y_param_C: Optional[RationalFunction]
    h_param_X: Optional[RationalFunction]
    y_param_X: Optional[RationalFunction]
    z_param_X: Optional[RationalFunction]
    thm1_j: Optional[RationalFunction]
    thm2_pair: Optional[tuple[RationalFunction, RationalFunction]]
    known_points_C: tuple[tuple[Fraction, Fraction], ...]
    known_points_X: tuple[tuple[Fraction, Fraction, Fraction], ...]


@dataclass(frozen=True)
class FiniteIsogenyCase:
    N: int
    j: Fraction
    j_prime: Fraction
    has_cm: bool


@dataclass(frozen=True)
class Catalog:
    families: dict[int, IsogenyFamily]
    finite_cases: tuple[FiniteIsogenyCase, ...]

    def family(self, N: int) -> IsogenyFamily:
        if N not in self.families:
            raise KeyError(f"no parametrized family for N = {N}")
        return self.families[N]


_BUNDLED_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def default_data_dir() -> str:
    return os.environ.get(DATA_ENV_VAR) or _BUNDLED_DATA_DIR


def _parse_points(text: str, arity: int) -> tuple[tuple[Fraction, ...], ...]:
    points = []
    for chunk in re.findall(r"\(([^)]*)\)", text):
        parts = [as_fraction(p.strip()) for p in chunk.split(",")]
        if len(parts) != arity:
            raise CatalogError(f"point {chunk!r} should have {arity} coordinates")
        points.append(tuple(parts))
    return tuple(points)


def _check_coeffs(name: str, poly: Poly, text: Optional[str]) -> None:
    if text is None:
        raise CatalogError(f"{name}: expanded coefficient list is missing")
    stated = [as_fraction(tok) for tok in text.split()]
    if stated == [Fraction(0)]:
        stated = []
    if list(poly.coeffs) != stated:
        raise CatalogError(f"{name}: factored form and coefficient list disagree")


def _build_family(n: int, fields: dict[str, str]) -> IsogenyFamily:
    def parsed(parse, key: str, var: str):
        try:
            return parse(fields[key], var)
        except ValueError as exc:
            raise CatalogError(f"[{n}] {key}: {exc}") from exc

    def rf(key: str, var: str) -> Optional[RationalFunction]:
        if key not in fields:
            return None
        return parsed(parse_rational_function, key, var)

    j_map = rf("jmap", "h")
    jprime_map = rf("jpmap", "h")
    F = parsed(parse_poly, "F", "h")
    G = parsed(parse_poly, "G", "h")
    for key, value in (("jmap", j_map), ("jpmap", jprime_map)):
        _check_coeffs(f"[{n}] {key}.num", value.num, fields.get(f"{key}.num.coeffs"))
        _check_coeffs(f"[{n}] {key}.den", value.den, fields.get(f"{key}.den.coeffs"))
    _check_coeffs(f"[{n}] F", F, fields.get("F.coeffs"))
    _check_coeffs(f"[{n}] G", G, fields.get("G.coeffs"))

    thm2j = rf("thm2j", "t")
    thm2jp = rf("thm2jp", "t")
    family = IsogenyFamily(
        N=n,
        j_map=j_map,
        jprime_map=jprime_map,
        F=F,
        G=G,
        genus_C=int(fields["genusC"]),
        genus_X=int(fields["genusX"]) if "genusX" in fields else None,
        h_param_C=rf("hC", "t"),
        y_param_C=rf("yC", "t"),
        h_param_X=rf("hX", "t"),
        y_param_X=rf("yX", "t"),
        z_param_X=rf("zX", "t"),
        thm1_j=rf("thm1", "t"),
        thm2_pair=(thm2j, thm2jp) if thm2j is not None else None,
        known_points_C=_parse_points(fields.get("pointsC", ""), 2),
        known_points_X=_parse_points(fields.get("pointsX", ""), 3),
    )
    _validate_family(family)
    return family


def _validate_family(fam: IsogenyFamily) -> None:
    n = fam.N
    if n not in ALL_LEVELS:
        raise CatalogError(f"unexpected level {n}")
    if fam.j_map.is_constant() or fam.jprime_map.is_constant():
        raise CatalogError(f"[{n}] constant j-map")
    if fam.F.is_zero() or fam.G.is_zero():
        raise CatalogError(f"[{n}] zero square-condition polynomial")
    if n in (3, 7) and fam.F != fam.G:
        raise CatalogError(f"[{n}] F and G must coincide")
    if poly_gcd(fam.F, fam.F.derivative()).degree != 0:
        raise CatalogError(f"[{n}] F is not squarefree")
    if fam.genus_C != (fam.F.degree - 1) // 2:
        raise CatalogError(f"[{n}] stated genus does not match deg F")
    if (fam.h_param_C is not None) != (fam.genus_C == 0):
        raise CatalogError(f"[{n}] C-parametrization presence mismatch")
    if (fam.thm1_j is not None) != (n in THEOREM1_LEVELS):
        raise CatalogError(f"[{n}] thm1 presence mismatch")
    if (fam.thm2_pair is not None) != (n in THEOREM2_LEVELS):
        raise CatalogError(f"[{n}] thm2 presence mismatch")
    if (fam.h_param_X is not None) != (n in THEOREM2_LEVELS):
        raise CatalogError(f"[{n}] X-parametrization presence mismatch")
    # derived y/z components must square to the curve equations
    FC = RationalFunction(fam.F)
    GC = RationalFunction(fam.G)
    if fam.h_param_C is not None:
        if fam.y_param_C * fam.y_param_C != FC.compose(fam.h_param_C):
            raise CatalogError(f"[{n}] yC^2 != F(hC)")
    if fam.h_param_X is not None:
        if fam.y_param_X * fam.y_param_X != FC.compose(fam.h_param_X):
            raise CatalogError(f"[{n}] yX^2 != F(hX)")
        if fam.z_param_X * fam.z_param_X != GC.compose(fam.h_param_X):
            raise CatalogError(f"[{n}] zX^2 != G(hX)")
    for h, y in fam.known_points_C:
        if y * y != fam.F(h):
            raise CatalogError(f"[{n}] stated C-point ({h},{y}) is not on C")
    for h, y, z in fam.known_points_X:
        if y * y != fam.F(h) or z * z != fam.G(h):
            raise CatalogError(f"[{n}] stated X-point ({h},{y},{z}) is not on X")


def _load_catalog_file(path: str) -> Catalog:
    families: dict[int, IsogenyFamily] = {}
    finite: list[FiniteIsogenyCase] = []
    current: Optional[int] = None
    fields: dict[str, str] = {}
    in_finite = False

    def flush():
        nonlocal current, fields
        if current is not None:
            families[current] = _build_family(current, fields)
        current, fields = None, {}

    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            header = re.match(r"\[family\s+(\d+)\]", line)
            if header:
                flush()
                in_finite = False
                current = int(header.group(1))
                continue
            if line == "[finite]":
                flush()
                in_finite = True
                continue
            if in_finite:
                n_str, j_str, jp_str, cm_str = line.split()
                finite.append(
                    FiniteIsogenyCase(
                        N=int(n_str),
                        j=as_fraction(j_str),
                        j_prime=as_fraction(jp_str),
                        has_cm=cm_str == "yes",
                    )
                )
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    flush()

    if sorted(families) != sorted(ALL_LEVELS):
        raise CatalogError(f"catalog levels {sorted(families)} != {sorted(ALL_LEVELS)}")
    if sorted({c.N for c in finite}) != sorted(FINITE_LEVELS):
        raise CatalogError("finite-level rows incomplete")
    return Catalog(families=families, finite_cases=tuple(finite))


@lru_cache(maxsize=None)
def _cached_catalog(path: str) -> Catalog:
    return _load_catalog_file(path)


def load_catalog(data_dir: Optional[str] = None) -> Catalog:
    directory = data_dir or default_data_dir()
    return _cached_catalog(os.path.join(directory, "families.txt"))


def family(N: int, data_dir: Optional[str] = None) -> IsogenyFamily:
    return load_catalog(data_dir).family(N)


def finite_cases(data_dir: Optional[str] = None) -> tuple[FiniteIsogenyCase, ...]:
    return load_catalog(data_dir).finite_cases


# -- the parametrized-family evaluators --------------------------------------


def theorem1_j(N: int, t: RationalLike, data_dir: Optional[str] = None) -> Fraction:
    """j(t) of the square-discriminant family admitting an N-isogeny.

    Defined for N in {2,3,4,6,7,8}; raises PoleError at the finitely many
    degenerate t (cusps).
    """
    fam = family(N, data_dir)
    if fam.thm1_j is None:
        raise ValueError(f"N = {N} is not in the one-curve family list {THEOREM1_LEVELS}")
    return fam.thm1_j(as_fraction(t))


def theorem2_pair(
    N: int, t: RationalLike, data_dir: Optional[str] = None
) -> tuple[Fraction, Fraction]:
    """(j, j') of the square-discriminant N-isogenous pair family.

    Defined for N in {2,3,4,7}; raises PoleError at degenerate t.
    """
    fam = family(N, data_dir)
    if fam.thm2_pair is None:
        raise ValueError(f"N = {N} is not in the two-curve family list {THEOREM2_LEVELS}")
    t = as_fraction(t)
    return fam.thm2_pair[0](t), fam.thm2_pair[1](t)


@dataclass(frozen=True)
class CongruenceResult:
    N: int
    ok_F: bool
    ok_G: bool
    witness_F: Optional[RationalFunction]
    witness_G: Optional[RationalFunction]

    @property
    def ok(self) -> bool:
        return self.ok_F and self.ok_G


def _same_square_class_rf(f: RationalFunction, g: RationalFunction) -> bool:
    mf, cf = mod_square_class_rf(f)
    mg, cg = mod_square_class_rf(g)
    return mf == mg and is_square_rational(cf / cg)


def verify_congruence(N: int, data_dir: Optional[str] = None) -> CongruenceResult:
    """Check that F matches j - 1728 and G matches j' - 1728 mod squares.

    The witnesses are the exact square roots of (j - 1728) * F and
    (j' - 1728) * G as rational functions.
    """
    fam = family(N, data_dir)
    lhs_F = fam.j_map - 1728
    lhs_G = fam.jprime_map - 1728
    ok_F = _same_square_class_rf(lhs_F, RationalFunction(fam.F))
    ok_G = _same_square_class_rf(lhs_G, RationalFunction(fam.G))
    witness_F = rf_sqrt(lhs_F * RationalFunction(fam.F))
    witness_G = rf_sqrt(lhs_G * RationalFunction(fam.G))
    return CongruenceResult(N, ok_F and witness_F is not None, ok_G and witness_G is not None, witness_F, witness_G)


def finite_cases_scan(data_dir: Optional[str] = None) -> list[dict]:
    """Scan the finite levels: j - 1728 must be non-square wherever a curve
    admits an isogeny of degree 11, 15, 17, 21 or 37, and every CM-flagged
    pair must consist of CM j-invariants."""
    out = []
    for case in finite_cases(data_dir):
        row: dict = {"N": case.N, "j": str(case.j), "j_prime": str(case.j_prime)}
        checks = []
        if case.N in LEMMA_LEVELS:
            for label, j in (("j", case.j), ("j_prime", case.j_prime)):
                nonsquare = not is_square_rational(j - 1728)
                row[f"{label}_minus_1728_nonsquare"] = nonsquare
                checks.append(nonsquare)
        if case.has_cm:
            cm_ok = is_cm_j(case.j) and is_cm_j(case.j_prime)
            row["cm_flag_consistent"] = cm_ok
            checks.append(cm_ok)
        row["ok"] = all(checks) if checks else True
        out.append(row)
    return out


def solve_param_C(
    N: int, h: RationalLike, y: RationalLike, data_dir: Optional[str] = None
) -> Optional[Fraction]:
    """Find t with (hC(t), yC(t)) == (h, y) exactly, if one exists.

    Only meaningful for the genus-0 levels; the candidate preimages are
    the rational roots of hC.num - h * hC.den.
    """
    fam = family(N, data_dir)
    if fam.h_param_C is None:
        raise ValueError(f"C_{N} has positive genus")
    h = as_fraction(h)
    y = as_fraction(y)
    poly = fam.h_param_C.num - Poly.const(h) * fam.h_param_C.den
    for t in rational_roots(poly):
        try:
            if fam.h_param_C(t) == h and fam.y_param_C(t) == y:
                return t
        except PoleError:
            continue
    return None

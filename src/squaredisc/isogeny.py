"""Independent isogeny oracles: Velu 2- and 3-steps and modular polynomials.

Two unrelated routes certify that the parametrized j-pairs really are
N-isogenous.  For N in {2,3,4,6,8} a breadth-first chain of explicit Velu
steps (degree factorizations 2, 3, 2*2, 2*3, 2*2*2) is searched from a
model with the first j-invariant to the second.  For N in {2,3,7} the
classical modular polynomial Phi_N is evaluated instead; its coefficients
live in a data file that is spot-checked against the j-maps at load time
and refuses to load on any failure.

The chain runs on integer models y^2 = x^3 + Ax + B (Velu, Isogenies entre
courbes elliptiques, C. R. Acad. Sci. Paris 273, 1971):

- Start.  The chain compares only j-invariants, and the quadratic twist
  by d maps kernels x0 to d*x0 and codomains to their twists ([-1] maps
  each subgroup to itself, at every j), so it starts from the integer
  twist (u^2 A, u^3 B), u the lcm of the denominators; nothing is
  factored.  Quartic and sextic twists at j in {0, 1728} do change the
  kernels, and a quadratic twist is neither.
- 2-steps.  The kernel at a root x0 of x^3 + Ax + B gives the codomain
  (A', B') = (A - 5t, B - 7x0 t) with t = 3x0^2 + A.  Using
  B = -x0^3 - A x0, its cubic factors as
  (X + 2x0)(X^2 - 2x0 X + A' + 4x0^2), whose quadratic factor has
  discriminant 4x0^2 - 4(A' + 4x0^2) = -4(A - 5t) - 12x0^2 = 16t.  So the
  codomain's rational 2-torsion is the dual kernel -2x0 and, when t is a
  square, x0 +- 2 sqrt(t).  Only the start cubic (and a cubic after a
  3-step) needs a root search; every later 2-step takes one isqrt.
- 3-steps.  The rational roots of psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2 are
  integers on an integer model: a root p/3 with 3 not dividing p would
  give 0 = 27 psi_3(p/3) = p^4 + 18Ap^2 + 108Bp - 27A^2 = p^4 (mod 9).
- Each j is computed once, as 6912 A^3 / (4A^3 + 27B^2).
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .classify import curve_from_j
from .families import default_data_dir, family
from .polynomials import Poly, rational_roots
from .rationals import RationalLike, as_fraction
from .weierstrass import ShortModel, _integral

CHAIN_LEVELS = (2, 3, 4, 6, 8)
MODULAR_LEVELS = (2, 3, 7)

# degree factorizations explored by the chain search
_CHAIN_STEPS = {2: [(2,)], 3: [(3,)], 4: [(2, 2)], 6: [(2, 3), (3, 2)], 8: [(2, 2, 2)]}


@dataclass(frozen=True)
class IsogenyStep:
    degree: int
    domain: ShortModel
    codomain: ShortModel
    kernel_x: Fraction


class ModularDataError(RuntimeError):
    """The modular polynomial data failed a load-time spot check."""


def two_torsion_x(m: ShortModel) -> list[Fraction]:
    """All rational roots of x^3 + Ax + B (the 2-torsion x-coordinates)."""
    m.assert_nonsingular()
    return rational_roots(Poly([m.B, m.A, 0, 1]))


def three_division_poly(m: ShortModel) -> Poly:
    """psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2."""
    return _psi_3(m.A, m.B)


def _psi_3(A, B) -> Poly:
    return Poly([-A * A, 12 * B, 6 * A, 0, 3])


def three_kernel_x(m: ShortModel) -> list[Fraction]:
    """Rational roots of the 3-division polynomial: x-coordinates whose
    +-point pairs generate rational 3-isogeny kernels."""
    m.assert_nonsingular()
    return rational_roots(three_division_poly(m))


def _velu_2(A, B, x0):
    """Codomain (A - 5t, B - 7*x0*t), t = 3x0^2 + A, of the 2-step with
    kernel x0; exact on ints and Fractions alike."""
    t = 3 * x0 * x0 + A
    return A - 5 * t, B - 7 * x0 * t


def _velu_3(A, B, x0):
    """Codomain (A - 5t, B - 7w) of the 3-step with kernel x-coordinate x0,
    where t = 2(3x0^2 + A) and w = 4(x0^3 + A x0 + B) + x0 t."""
    t = 2 * (3 * x0 * x0 + A)
    w = 4 * (x0 ** 3 + A * x0 + B) + x0 * t
    return A - 5 * t, B - 7 * w


def _codomain_two_torsion(A: int, x0: int) -> list[int]:
    """The rational 2-torsion of the integer 2-step codomain at x0 other than
    the dual kernel -2x0: x0 +- 2 sqrt(t) if t = 3x0^2 + A is a square."""
    t = 3 * x0 * x0 + A  # nonzero: x0 is a simple root
    s = math.isqrt(t) if t > 0 else 0
    return [x0 - 2 * s, x0 + 2 * s] if s * s == t else []


def _int_roots(p: Poly) -> list[int]:
    """The rational roots of p, where they are all integers: p is a monic
    cubic, or psi_3 of an integer model."""
    return [int(x) for x in rational_roots(p)]


def _j(A: int, B: int) -> Fraction:
    return Fraction(6912 * A ** 3, 4 * A ** 3 + 27 * B * B)


def velu_2(m: ShortModel, x0: RationalLike) -> IsogenyStep:
    """Quotient by the order-2 subgroup at x0: with t = 3x0^2 + A the
    codomain is (A - 5t, B - 7*x0*t)."""
    x0 = as_fraction(x0)
    if x0 ** 3 + m.A * x0 + m.B != 0:
        raise ValueError(f"{x0} is not a 2-torsion x-coordinate of {m}")
    return IsogenyStep(2, m, ShortModel(*_velu_2(m.A, m.B, x0)), x0)


def velu_odd(m: ShortModel, x0: RationalLike, degree: int = 3) -> IsogenyStep:
    """Quotient by the order-3 subgroup {O, +-P} with x(P) = x0.

    Only y(P)^2 = x0^3 + A x0 + B enters the formulas, so the kernel need
    not contain rational points, just a rational x-coordinate.
    """
    if degree != 3:
        raise ValueError("only degree 3 is supported for odd Velu steps")
    x0 = as_fraction(x0)
    if three_division_poly(m)(x0) != 0:
        raise ValueError(f"{x0} is not a 3-kernel x-coordinate of {m}")
    return IsogenyStep(3, m, ShortModel(*_velu_3(m.A, m.B, x0)), x0)


def chain_exists(start: ShortModel, N: int, j_target: RationalLike) -> bool:
    """Non-backtracking Velu chain of total degree N from the given model
    to a curve with the target j-invariant (quadratic-twist insensitive)."""
    if N not in _CHAIN_STEPS:
        raise ValueError(f"chain oracle supports N in {CHAIN_LEVELS}")
    start.assert_nonsingular()
    j_target = as_fraction(j_target)
    A0, B0 = _integral((start.A, start.B), (2, 3))[1]
    for degrees in _CHAIN_STEPS[N]:
        last = len(degrees) - 1
        # (A, B, (A, x0) of the 2-step that made it or None, j path)
        queue = deque([(A0, B0, None, (start.j,))])
        while queue:
            A, B, parent, j_path = queue.popleft()
            depth = len(j_path) - 1
            if degrees[depth] == 2:
                xs = _codomain_two_torsion(*parent) if parent else _int_roots(Poly([B, A, 0, 1]))
                codomains = [(_velu_2(A, B, x0), (A, x0)) for x0 in xs]
            else:
                xs = _int_roots(_psi_3(A, B))
                codomains = [(_velu_3(A, B, x0), None) for x0 in xs]
            for (A1, B1), parent1 in codomains:
                j_new = _j(A1, B1)
                if j_new in j_path:  # non-backtracking: never revisit a j
                    continue
                if depth == last:
                    if j_new == j_target:
                        return True
                    continue
                queue.append((A1, B1, parent1, j_path + (j_new,)))
    return False


def chain_check(N: int, h0: RationalLike, data_dir: Optional[str] = None) -> bool:
    """Velu-chain oracle for the level-N j-map pair at h0.

    True iff some non-backtracking chain of 2- and 3-steps of total degree
    N leads from a model with j = j_N(h0) to a curve with j = j'_N(h0).
    The start model is the reference curve for j_N(h0); for start j in
    {0, 1728} the reference twist may not carry the isogeny, so callers
    should stick to generic h0.
    """
    fam = family(N, data_dir)
    h0 = as_fraction(h0)
    j_start = fam.j_map(h0)      # PoleError at cusps
    j_target = fam.jprime_map(h0)
    return chain_exists(curve_from_j(j_start), N, j_target)


# -- modular polynomial oracle ------------------------------------------------


@dataclass(frozen=True)
class ModularPolynomial:
    N: int
    coeffs: tuple[tuple[int, int, int], ...]  # (i, k, c) with i >= k

    def __call__(self, x: RationalLike, y: RationalLike) -> Fraction:
        """Phi_N(p/q, r/s) = sum c p^i q^(D-i) r^k s^(D-k) / (q s)^D, D = N + 1,
        summed over the integers."""
        x = as_fraction(x)
        y = as_fraction(y)
        deg = self.N + 1
        xs = _homogeneous_powers(x, deg)
        ys = _homogeneous_powers(y, deg)
        total = 0
        for i, k, c in self.coeffs:
            total += c * xs[i] * ys[k]
            if i != k:
                total += c * xs[k] * ys[i]
        return Fraction(total, (x.denominator * y.denominator) ** deg)

    def degree_in_x(self) -> int:
        return max(i for i, _, _ in self.coeffs)


def _homogeneous_powers(x: Fraction, deg: int) -> list[int]:
    """[p^i * q^(deg-i) for i = 0..deg], for x = p/q."""
    p, q = x.numerator, x.denominator
    ps, qs = [1], [1]
    for _ in range(deg):
        ps.append(ps[-1] * p)
        qs.append(qs[-1] * q)
    return [ps[i] * qs[deg - i] for i in range(deg + 1)]


def _load_modular_file(path: str) -> dict[int, ModularPolynomial]:
    raw: dict[int, list[tuple[int, int, int]]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            n_str, i_str, k_str, c_str = line.split()
            n, i, k, c = int(n_str), int(i_str), int(k_str), int(c_str)
            if i < k:
                raise ModularDataError(f"storage must have i >= k, got {line!r}")
            raw.setdefault(n, []).append((i, k, c))
    out = {}
    for n, entries in raw.items():
        if len({(i, k) for i, k, _ in entries}) != len(entries):
            raise ModularDataError(f"duplicate Phi_{n} entries")
        out[n] = ModularPolynomial(n, tuple(sorted(entries, reverse=True)))
    return out


def _spot_check(polys: dict[int, ModularPolynomial], data_dir: str) -> None:
    rng = random.Random(1728)
    for n in MODULAR_LEVELS:
        if n not in polys:
            raise ModularDataError(f"Phi_{n} missing from data file")
        phi = polys[n]
        if phi.degree_in_x() != n + 1:
            raise ModularDataError(f"Phi_{n} has wrong degree")
        fam = family(n, data_dir)
        checked = 0
        while checked < 20:
            h = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            if fam.j_map.den(h) == 0 or fam.jprime_map.den(h) == 0:
                continue
            if phi(fam.j_map(h), fam.jprime_map(h)) != 0:
                raise ModularDataError(f"Phi_{n} does not vanish on the level-{n} j-pair at h = {h}")
            checked += 1
        # a mismatched pair must not vanish
        if phi(fam.j_map(Fraction(1)), fam.j_map(Fraction(1)) + 1) == 0:
            raise ModularDataError(f"Phi_{n} vanishes on a mismatched pair")


@lru_cache(maxsize=None)
def _cached_modular(data_dir: str) -> dict[int, ModularPolynomial]:
    polys = _load_modular_file(os.path.join(data_dir, "modular_polynomials.txt"))
    _spot_check(polys, data_dir)
    return polys


def load_modular_polynomials(data_dir: Optional[str] = None) -> dict[int, ModularPolynomial]:
    return _cached_modular(data_dir or default_data_dir())


def modular_poly_check(
    N: int, j1: RationalLike, j2: RationalLike, data_dir: Optional[str] = None
) -> bool:
    """True iff Phi_N(j1, j2) = 0 exactly (N in {2, 3, 7})."""
    if N not in MODULAR_LEVELS:
        raise ValueError(f"modular data is shipped for N in {MODULAR_LEVELS}")
    phi = load_modular_polynomials(data_dir)[N]
    return phi(as_fraction(j1), as_fraction(j2)) == 0

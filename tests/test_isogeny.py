"""Velu steps, chain search, and the modular polynomial oracle."""

import random
from collections import deque
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squaredisc.classify import curve_from_j
from squaredisc.families import family
from squaredisc.isogeny import (
    ModularDataError,
    _codomain_two_torsion,
    _velu_2,
    chain_check,
    chain_exists,
    load_modular_polynomials,
    modular_poly_check,
    three_kernel_x,
    two_torsion_x,
    velu_2,
    velu_odd,
)
from squaredisc.polynomials import PoleError
from squaredisc.weierstrass import ShortModel, quadratic_twist


def test_two_torsion_x():
    assert two_torsion_x(ShortModel(-1, 0)) == [F(-1), F(0), F(1)]
    assert two_torsion_x(ShortModel(-11, 14)) == [F(2)]  # 8 - 22 + 14 = 0
    assert two_torsion_x(ShortModel(0, 1)) == [F(-1)]
    assert two_torsion_x(ShortModel(1, 1)) == []


def test_three_kernel_x():
    assert three_kernel_x(ShortModel(0, 4)) == [F(0)]  # psi_3 = 3x^4 + 48x
    assert three_kernel_x(ShortModel(1, 0)) == []      # 3x^4 + 6x^2 - 1
    assert three_kernel_x(ShortModel(-1, 0)) == []     # 3x^4 - 6x^2 - 1
    assert three_kernel_x(ShortModel(0, 16)) == [F(-4), F(0)]


def test_velu_2_hand_values():
    step = velu_2(ShortModel(-1, 0), 0)
    assert step.codomain == ShortModel(4, 0)
    assert step.codomain.j == 1728 == step.domain.j
    step = velu_2(ShortModel(-11, 14), 2)
    assert step.codomain == ShortModel(-16, 0)
    assert step.codomain.j == 1728
    step = velu_2(ShortModel(-1, 0), 1)
    assert step.codomain == ShortModel(-11, -14)
    assert step.codomain.j == 2 ** 3 * 3 ** 3 * 11 ** 3
    with pytest.raises(ValueError):
        velu_2(ShortModel(-1, 0), 5)


def test_velu_odd():
    step = velu_odd(ShortModel(0, 16), 0)
    assert step.codomain.j == 0
    # the x = -4 kernel has irrational points but a rational x, so the
    # quotient is still defined over Q
    step = velu_odd(ShortModel(0, 16), -4)
    assert not step.codomain.is_singular()
    fam3 = family(3)
    h0 = F(9)
    domain = _family_member(fam3, h0)
    images = {velu_odd(domain, x0).codomain.j for x0 in three_kernel_x(domain)}
    assert fam3.jprime_map(h0) in images  # j'_3(9) = 790272
    h1 = F(1)
    domain = _family_member(fam3, h1)
    assert fam3.j_map(h1) == 1792
    images = {velu_odd(domain, x0).codomain.j for x0 in three_kernel_x(domain)}
    assert fam3.jprime_map(h1) == 28 * 244 ** 3
    assert 28 * 244 ** 3 in images
    with pytest.raises(ValueError):
        velu_odd(ShortModel(0, 16), 1)
    with pytest.raises(ValueError):
        velu_odd(ShortModel(0, 16), 0, degree=5)


def _family_member(fam, h0):
    from squaredisc.classify import curve_from_j

    return curve_from_j(fam.j_map(h0))


def test_dual_step_property():
    rng = random.Random(51)
    for _ in range(60):
        # a depressed cubic with guaranteed rational 2-torsion at x = r
        r = F(rng.randint(-9, 9), rng.randint(1, 4))
        c = F(rng.randint(-9, 9), rng.randint(1, 4))
        m = _curve_with_root(r, c)
        if m is None:
            continue
        for x0 in two_torsion_x(m):
            image = velu_2(m, x0).codomain
            if image.is_singular():
                continue
            back = {velu_2(image, x1).codomain.j for x1 in two_torsion_x(image)}
            assert m.j in back, (m, x0)


def _curve_with_root(r, c):
    """y^2 = (x - r)(x^2 + rx + c): monic depressed cubic with root r."""
    A = c - r * r
    B = -r * c
    m = ShortModel(A, B)
    if m.is_singular():
        return None
    assert r in two_torsion_x(m)
    return m


def test_chain_oracle_is_quadratic_twist_invariant():
    from squaredisc.classify import curve_from_j

    rng = random.Random(50)
    checked = 0
    while checked < 50:
        n = rng.choice((2, 3, 4))
        fam = family(n)
        h0 = F(rng.randint(-30, 30) or 2, rng.randint(1, 20))
        try:
            j1, j2 = fam.j_map(h0), fam.jprime_map(h0)
        except PoleError:
            continue
        if j1 in (0, 1728) or j2 in (0, 1728):
            continue
        d = F(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice((1, -1))
        base = curve_from_j(j1)
        twisted = quadratic_twist(base, d)
        assert chain_exists(base, n, j2) == chain_exists(twisted, n, j2) == True  # noqa: E712
        checked += 1


def test_kernel_rationality_is_quadratic_twist_invariant():
    rng = random.Random(52)
    checked = 0
    while checked < 50:
        m = ShortModel(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-9, 9), rng.randint(1, 3)))
        if m.is_singular():
            continue
        d = F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
        tw = quadratic_twist(m, d)
        assert two_torsion_x(tw) == sorted(d * x for x in two_torsion_x(m))
        assert three_kernel_x(tw) == sorted(d * x for x in three_kernel_x(m))
        checked += 1


def test_chain_check_examples():
    assert chain_check(2, 36)
    assert chain_check(4, 9)
    assert chain_check(6, F(8, 3))  # h for t = 2 on the level-6 parametrization
    assert chain_check(8, 6)
    assert chain_check(3, 9)
    with pytest.raises(PoleError):
        chain_check(2, 0)
    with pytest.raises(ValueError):
        chain_check(7, 1)  # degree-7 kernels are certified by Phi_7 instead


def test_modular_polynomial_spot_values():
    polys = load_modular_polynomials()
    assert set(polys) == {2, 3, 7}
    phi2 = polys[2]
    assert phi2(1728, 287496) == 0
    # j = 1728 has CM by Z[i]; the prime 2 ramifies, giving a 2-endomorphism,
    # so (1728, 1728) genuinely lies on Phi_2 = 0
    assert phi2(1728, 1728) == 0
    assert phi2(4913, 4913) != 0
    assert modular_poly_check(2, 1728, 287496)
    assert not modular_poly_check(2, 4913, 4913)
    fam7 = family(7)
    assert modular_poly_check(7, fam7.j_map(F(1)), fam7.jprime_map(F(1)))
    with pytest.raises(ValueError):
        modular_poly_check(5, 1, 1)


def test_modular_polynomial_symmetry():
    rng = random.Random(53)
    polys = load_modular_polynomials()
    for n, phi in polys.items():
        for _ in range(20):
            a = F(rng.randint(-99, 99), rng.randint(1, 9))
            b = F(rng.randint(-99, 99), rng.randint(1, 9))
            assert phi(a, b) == phi(b, a), n


def test_modular_data_rejects_corruption(tmp_path):
    import os
    import shutil

    from squaredisc.families import load_catalog

    src = os.path.join(os.path.dirname(os.path.abspath(load_catalog.__code__.co_filename)), "data")
    work = tmp_path / "data"
    shutil.copytree(src, work)
    path = work / "modular_polynomials.txt"
    text = path.read_text().replace("2 2 1 1488", "2 2 1 1489", 1)
    path.write_text(text)
    with pytest.raises(ModularDataError):
        load_modular_polynomials(str(work))


def test_oracle_agreement_small():
    rng = random.Random(54)
    for n in (2, 3):
        fam = family(n)
        done = 0
        while done < 20:
            h0 = F(rng.randint(-40, 40) or 1, rng.randint(1, 40))
            try:
                j1, j2 = fam.j_map(h0), fam.jprime_map(h0)
            except PoleError:
                continue
            if j1 in (0, 1728) or j2 in (0, 1728):
                continue
            assert chain_check(n, h0) == modular_poly_check(n, j1, j2) == True  # noqa: E712
            done += 1


def _fraction_phi(phi, x, y):
    """Phi_N(x, y) term by term over Q, from the stored (i, k, c) with i >= k."""
    total = F(0)
    for i, k, c in phi.coeffs:
        total += c * x ** i * y ** k
        if i != k:
            total += c * x ** k * y ** i
    return total


def test_integer_modular_polynomial_matches_the_fraction_formula():
    polys = load_modular_polynomials()
    rng = random.Random(77)
    for n in (2, 3, 7):
        phi = polys[n]
        fam = family(n)
        for _ in range(40):
            x = F(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
            y = F(rng.choice((0, 1, -1, rng.randint(-10 ** 6, 10 ** 6))), rng.randint(1, 10 ** 6))
            assert phi(x, y) == _fraction_phi(phi, x, y)
            assert phi(x, 1728) == _fraction_phi(phi, x, F(1728))
            h = F(rng.randint(1, 500), rng.randint(1, 500))
            j1, j2 = fam.j_map(h), fam.jprime_map(h)
            assert phi(j1, j2) == 0 == _fraction_phi(phi, j1, j2)


def _reference_endpoints(start, N):
    """Every j at the end of a non-backtracking Velu chain of total degree N
    from start, built from the public Fraction helpers alone."""
    steps = {2: [(2,)], 3: [(3,)], 4: [(2, 2)], 6: [(2, 3), (3, 2)], 8: [(2, 2, 2)]}
    ends = set()
    for degrees in steps[N]:
        queue = deque([(start, (start.j,))])
        while queue:
            model, path = queue.popleft()
            if len(path) - 1 == len(degrees):
                ends.add(path[-1])
                continue
            if degrees[len(path) - 1] == 2:
                images = [velu_2(model, x0).codomain for x0 in two_torsion_x(model)]
            else:
                images = [velu_odd(model, x0).codomain for x0 in three_kernel_x(model)]
            for image in images:
                if image.j not in path:
                    queue.append((image, path + (image.j,)))
    return ends


_small_q = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
_nonzero_q = _small_q.filter(bool)


@st.composite
def _chain_start(draw, N):
    """(start model, candidate targets) for a level-N chain: a twisted family
    start with its isogenous j, a j = 0 or j = 1728 start, a curve with full
    2-torsion and a square t = (e1 - e2)(e1 - e3), or one with a rational
    3-kernel x-coordinate."""
    kind = draw(st.sampled_from(("family", "j0", "j1728", "two-torsion", "three-kernel")))
    targets = []
    if kind == "family":
        fam = family(N)
        h = draw(_small_q)
        try:
            j1, j2 = fam.j_map(h), fam.jprime_map(h)
        except PoleError:
            assume(False)
        m = quadratic_twist(curve_from_j(j1), draw(_nonzero_q))
        targets += [j2, j2 + 1, 2 * j2]
    elif kind == "j0":
        c = draw(_nonzero_q)
        m = ShortModel(0, draw(st.sampled_from((1, -1, 2, 4, -4, 16, -27, 3))) * c ** 3)
    elif kind == "j1728":
        c = draw(_nonzero_q)
        m = ShortModel(draw(st.sampled_from((1, -1, 2, -2, 4, -4, 3, -9))) * c ** 2, 0)
    elif kind == "two-torsion":
        k, u, v = draw(_nonzero_q), draw(_small_q), draw(_small_q)
        e1 = k * (u * u + v * v) / 3
        e2, e3 = e1 - k * u * u, e1 - k * v * v
        m = ShortModel(e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)
    else:
        x0, A = draw(_nonzero_q), draw(_small_q)
        m = ShortModel(A, (A * A - 3 * x0 ** 4 - 6 * A * x0 * x0) / (12 * x0))  # psi_3(x0) = 0
    assume(not m.is_singular())
    return m, targets + [m.j, m.j + 1, F(1728), F(0)]


@pytest.mark.parametrize("N", (2, 3, 4, 6, 8))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_chain_matches_the_fraction_reference(N, data):
    m, targets = data.draw(_chain_start(N))
    ends = _reference_endpoints(m, N)
    for j in sorted(ends) + targets:
        assert chain_exists(m, N, j) == (j in ends), (N, m, j)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(r=st.integers(-10 ** 6, 10 ** 6), c=st.integers(-10 ** 6, 10 ** 6))
def test_closed_form_codomain_two_torsion(r, c):
    A, B = c - r * r, -r * c  # x^3 + Ax + B = (x - r)(x^2 + rx + c)
    m = ShortModel(A, B)
    assume(not m.is_singular())
    for x0 in two_torsion_x(m):
        x0 = int(x0)
        image = ShortModel(*_velu_2(A, B, x0))
        assert image == velu_2(m, x0).codomain
        closed = sorted(F(x) for x in [-2 * x0] + _codomain_two_torsion(A, x0))
        assert two_torsion_x(image) == closed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    x0=st.builds(F, st.integers(-10 ** 4, 10 ** 4).filter(bool), st.integers(1, 10 ** 3)),
    A=st.builds(F, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 3)),
)
def test_three_kernels_of_integer_models_are_integers(x0, A):
    # psi_3(x0) = 0 fixes B; then scale to the integer model (u^4 A, u^6 B)
    B = (A * A - 3 * x0 ** 4 - 6 * A * x0 * x0) / (12 * x0)
    m = ShortModel(A, B)
    assume(not m.is_singular())
    u = A.denominator * B.denominator
    integral = ShortModel(A * u ** 4, B * u ** 6)
    assert integral.A.denominator == integral.B.denominator == 1
    kernels = three_kernel_x(integral)
    assert x0 * u * u in kernels
    assert all(x.denominator == 1 for x in kernels)

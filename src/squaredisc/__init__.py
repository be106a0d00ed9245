"""Exact-arithmetic toolkit for square-discriminant elliptic curves over Q.

Classifies curves by whether their discriminant is a rational square,
generates the parametrized families of N-isogenous curves with square
discriminants, and verifies the associated identities, tables, and
rational-point sets with exact rational and polynomial arithmetic.
"""

from .classify import (
    CM_J_INVARIANTS,
    SquareDiscVerdict,
    cm_isogeny_graph,
    cm_nonsquare_scan,
    curve_from_j,
    is_cm_j,
    square_disc_by_j,
    square_disc_direct,
)
from .curve_search import (
    AffinePointC,
    AffinePointX,
    cusp_check,
    genus_hyperelliptic,
    search_C,
    search_X,
)
from .families import (
    ALL_LEVELS,
    IsogenyFamily,
    family,
    finite_cases,
    finite_cases_scan,
    load_catalog,
    theorem1_j,
    theorem2_pair,
    verify_congruence,
)
from .isogeny import (
    IsogenyStep,
    chain_check,
    modular_poly_check,
    three_kernel_x,
    two_torsion_x,
    velu_2,
    velu_odd,
)
from .polynomials import (
    PoleError,
    Poly,
    RationalFunction,
    is_perfect_square_poly,
    mod_square_class_rf,
    poly_gcd,
    rational_roots,
    squarefree_part_poly,
)
from .rationals import (
    is_square_rational,
    same_square_class,
    sqrt_rational,
    squarefree_part,
)
from .weierstrass import (
    ChangeOfVariables,
    GeneralModel,
    ShortModel,
    SingularModelError,
    quadratic_twist,
    quartic_twist,
    sextic_twist,
    short_form,
    transform,
)

__version__ = "0.1.0"

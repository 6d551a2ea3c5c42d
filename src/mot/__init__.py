"""Structural decomposition of martingale optimal transport between
finitely supported measures: convex-order checks, martingale couplings,
polar-pair detection, convex pavings, one-dimensional potentials and
affine-behaviour components of piecewise-linear convex functions."""

from .coupling import (
    Coupling,
    Kernel,
    disintegrate,
    find_coupling,
    max_mass_on_pair,
    min_mass_on_pair,
    polar_matrix,
    reachable_set,
)
from .geometry import (
    AffineSubspace,
    Polytope,
    affine_hull,
    convex_hull,
    in_relative_interior,
    minimal_face,
    relative_interiors_intersect,
)
from .measures import (
    DiscreteMeasure,
    PotentialFunction,
    barycenter,
    check_convex_order,
    pairing,
    potential,
    potential_domain,
)
from .paving import (
    ConvexPaving,
    PavingCell,
    compute_paving,
    locate,
    verify_against_coupling,
)
from .pwl import (
    AffineFunction,
    PwlConvex,
    affine_component,
    asymptotic_component,
    check_barycenter_face,
    delta,
    flat_region,
    supporting_affine,
)

__version__ = "0.1.0"

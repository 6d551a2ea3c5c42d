"""The package's one tolerance policy.

Every decision that compares numbers up to round-off takes its
threshold from this module, and every threshold is relative, so no
answer changes under a translation, a spatial scaling or a common mass
factor of the input:

* Spatial decisions (merging atoms and vertices, affine rank,
  membership, tightness and the relative-interior margin) compare a
  distance with a constant times the ``extent`` of the point set or
  polytope in hand: the length of its bounding box's diagonal, or for
  a single point the largest absolute coordinate, the only scale a
  point has.
* Mass decisions compare a mass with a constant times the total mass.
* The coupling LPs, their certificate and the non-polar mask work on
  normalised arrays: weights over mu's total mass, and points centred
  on their measure's barycentre and divided by the extent of supp mu
  and supp nu together.  HiGHS's feasibility tolerance and the
  certificate's lowest entry are then relative to the instance, but
  never finer than the round-off of its coordinates (``feasibility``);
  where that round-off exceeds RESIDUAL, the instance is too coarse to
  decide and raises InvalidInput.  Two measures whose barycentres differ by more
  than the LP holds its barycentre rows to are not in convex order,
  however the question is asked.

Tolerances a caller still sets: the ``tol`` of
``DiscreteMeasure.equals``, ``Polytope.same_vertices`` and
``pwl.asymptotic_component``, absolute in the caller's own units and
defaulting to the constants below; and the ``eps`` of
``potential_domain`` (``mot potential --tol`` or ``MOT_TOL``), a
fraction of total mass times extent.  Values of piecewise-linear
functions, whose scale no instance fixes, are compared at ``GEO`` in
the function's own units.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput

# rank, merging, membership and tightness, per unit of extent; the
# mass mismatch, per unit of mass
GEO = 1e-9
# points computed by solving (candidate vertices, points off an affine
# hull) are held to this, per unit of extent
SLACK = 10 * GEO
# the relative-interior margin, per unit of extent; a barycentric weight
# in relative_interiors_intersect; the default domain tolerance of
# potential_domain and the default tol of Polytope.same_vertices
INTERIOR = 1e-7
# a coupling entry above POLAR times the total mass is a transport
POLAR = 1e-8
# HiGHS's primal and dual feasibility tolerance on the normalised
# coupling LPs, the lowest entry a certified coupling may have, and the
# barycentre mismatch, per unit of extent, the order tolerates
FEAS = 1e-10
# the largest residual of a certified coupling on the normalised system
RESIDUAL = 1e-8
# the round-off of a coordinate, per unit of its magnitude: an instance
# translated far from the origin is known no more finely than that.  16
# units in the last place is the smallest power of two at which each of
# 3 328 translations of the 104 test instances (by +-1e6 and 30 random
# shifts of 1e4-1e6 each) paved as unmoved; at 8 units 7 of them, at 12
# units 1, raised SolverError
ROUND = 16 * float(np.finfo(float).eps)


def extent(*point_sets: np.ndarray) -> float:
    """Length of the diagonal of the bounding box of one or more (n, d)
    arrays of points taken together; where all the points coincide, the
    largest absolute coordinate (0 at the origin)."""
    pts = point_sets[0] if len(point_sets) == 1 else np.concatenate(point_sets)
    return box_extent(pts.min(axis=0), pts.max(axis=0))


def box_extent(lo: np.ndarray, hi: np.ndarray) -> float:
    """``extent`` of points whose bounding box has the corners lo and hi."""
    side = hi - lo
    diagonal = math.sqrt(float(side @ side))
    return diagonal if diagonal > 0.0 else float(np.abs(hi).max())


def feasibility(scale: float, magnitude: float) -> float:
    """The feasibility tolerance of a normalised coupling system whose
    points have extent ``scale`` and largest absolute coordinate
    ``magnitude``: FEAS, or the round-off of such coordinates per unit
    of extent where that is coarser.  Where that round-off exceeds
    RESIDUAL, no coupling could be certified, so the points are too
    coarse for their extent and InvalidInput is raised."""
    feas = max(FEAS, ROUND * magnitude / scale)
    if feas > RESIDUAL:
        raise InvalidInput(
            f"coordinates up to {magnitude:.3g} are too coarse for an extent of {scale:.3g}"
        )
    return feas

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
  point has.  A polytope's rank, membership and vertex merging never
  go below the round-off of its coordinates (ROUND times the largest).
* Mass decisions compare a mass with a constant times the total mass.
* The coupling LPs and their certificate work on normalised arrays:
  weights over mu's total mass, and points centred on their measure's
  barycentre and divided by the extent of supp mu and supp nu together.
  HiGHS's feasibility tolerance and the certificate's lowest entry are
  then relative to the instance, but never finer than the round-off of
  its coordinates (``feasibility``); where that round-off exceeds
  RESIDUAL, the instance is too coarse to decide and raises
  InvalidInput.  Two measures whose barycentres differ by more than the
  LP holds its barycentre rows to are not in convex order, however the
  question is asked.  ``find_coupling``'s LP poses a shortlist of pairs;
  where it has no solution, HiGHS's Farkas ray y (largest entry 1)
  prices every pair, and the order fails only where every price a^T y
  lies below the margin b^T y less ROUND, the round-off of a price:
  every coupling has entries summing to 1, so none then exists.  The
  margin is not compared with FEAS.  The max-support LP runs at
  SOLVER_FEAS; its mask stands where its coupling's residual is within
  the feasibility tolerance, or else where ``find_coupling`` finds the
  order holds.
* The non-polar mask and ``potential_domain`` read u_nu - u_mu on the
  coordinate axes in turn, in dimension one on the line itself: a
  breakpoint where it is at most the feasibility tolerance times mu's
  total mass times the extent of both supports, and where a nu-atom
  sits, within GEO times that extent, is a zero, and a value below
  minus that level refutes the order.  An axis drops the pairs its
  zeros separate only where their superhedge bounds the mass on them
  by POLAR times the total mass.  The axes stop at the first after
  which the pairs left force a coupling whose row-mass and barycentre
  defects sum to at most the feasibility tolerance: that coupling is
  certified, and it keeps u_nu - u_mu above minus that level on every
  line, so no axis left could refute the order.  In dimension one what
  an axis whose bound holds leaves is the mask; otherwise, in every
  dimension, the max-support LP decides the pairs left where the axes
  stop on no such coupling.

The one tolerance a caller still sets is the ``tol`` of
``DiscreteMeasure.equals``, ``Polytope.same_vertices`` and
``pwl.asymptotic_component``, absolute in the caller's own units and
defaulting to the constants below; the zero threshold of the line
rule is always the feasibility tolerance.  Values of piecewise-linear
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
# the relative-interior margin, per unit of extent; the default tol of
# Polytope.same_vertices
INTERIOR = 1e-7
# a coupling entry above POLAR times the total mass is a transport; the
# mask's superhedge bounds the mass on the pairs an axis drops by it
POLAR = 1e-8
# HiGHS's primal and dual feasibility tolerance on the normalised
# coupling LPs, the lowest entry a certified coupling may have, the
# barycentre mismatch, per unit of extent, the order tolerates, and the
# gap u_nu - u_mu, per unit of mass times extent, that is a zero on an axis
FEAS = 1e-10
# the largest residual of a certified coupling on the normalised system
RESIDUAL = 1e-8
# HiGHS's default feasibility tolerance, and lp.highs's: the max-support
# LP runs at it, since at finer ones HiGHS ends "Unknown" on an instance
# translated by 1e6 and "Unbounded" on some random dilation pairs
SOLVER_FEAS = 1e-7
# the round-off of a coordinate, and of a Farkas ray's price of a pair,
# per unit of its magnitude: an instance translated far from the origin
# is known no more finely than that.  16 units in the last place is the
# smallest power of two at which each of 3 328 translations of the 104
# test instances (by +-1e6 and 30 random shifts of 1e4-1e6 each) paved
# as unmoved; at 8 units 7 of them, at 12 units 1, raised SolverError
ROUND = 16 * float(np.finfo(float).eps)


def extent(*point_sets: np.ndarray) -> float:
    """Length of the diagonal of the bounding box of one or more (n, d)
    arrays of points taken together; where all the points coincide, the
    largest absolute coordinate (0 at the origin)."""
    pts = point_sets[0] if len(point_sets) == 1 else np.concatenate(point_sets)
    return box_extent(np.minimum.reduce(pts, axis=0), np.maximum.reduce(pts, axis=0))


def box_extent(lo: np.ndarray, hi: np.ndarray) -> float:
    """``extent`` of points whose bounding box has the corners lo and hi."""
    side = hi - lo
    diagonal = math.sqrt(side @ side)
    return diagonal if diagonal > 0.0 else float(np.maximum.reduce(np.abs(hi)))


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

"""Finitely supported measures, convex-order checks and 1-D potentials.

Every question about a pair of measures first asks ``_scaled``, the one
place that decides the pair's mass, barycentres, extent and
feasibility tolerance: it rejects measures of different mass or
barycentre at the tolerances the coupling LPs work to, and returns the
normalised arrays those LPs are posed on, so every way of asking gives
one answer.  ``check_convex_order`` decides mu <=_c nu in dimension two
and up by whether ``coupling.find_coupling`` returns a certified
martingale coupling (Strassen).  In dimension one it and
``potential_domain`` decide it from the potentials, with no LP:
u_nu >= u_mu at every breakpoint.  The zeros of u_nu - u_mu, the
components between them and that refutation of the order are decided
by one rule on one line (``_axis_zeros``), for ``potential_domain`` and
for the non-polar mask on each coordinate axis, so they agree.
Thresholds follow the package's one policy (``tolerance``, and the
README's "Tolerances").  A measure merges atoms within GEO times its
extent into one at their weighted mean, so no two of its atoms lie
that close and merging keeps its barycentre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    MassMismatch,
    NotInConvexOrder,
)
from .geometry import _first_match, _floats, _match_point_sets, as_points
from .tolerance import GEO, box_extent, extent, feasibility


class DiscreteMeasure:
    """Finite positive measure: support points with strictly positive weights.

    Duplicate atoms (coordinate-wise within GEO times the extent of the
    atoms) are merged on construction into one atom at their weighted
    mean, carrying their summed weight, until no two atoms lie that
    close (``_merge_duplicates``); so a measure is identified by its
    action, not by its representation, and merging keeps its barycentre.
    """

    def __init__(self, points, weights):
        pts = as_points(points)
        w = _floats(weights)
        if w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise InvalidInput("one weight per support point required")
        if not np.all(np.isfinite(w)):
            raise InvalidInput("weights must be finite")
        if np.any(w <= 0):
            raise InvalidInput("weights must be strictly positive")
        self.points, self.weights = _merge_duplicates(pts, w)
        self.ambient_dim = self.points.shape[1]

    def __repr__(self):
        return f"DiscreteMeasure({self.n_atoms} atoms, dim {self.ambient_dim})"

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return self._summary[0]

    @cached_property
    def _summary(self):
        """Total mass, barycentre (as an offset from the first atom, free
        of the round-off of large coordinates), the corners of the
        bounding box and the largest absolute coordinate, computed once:
        ``_scaled`` reads them for every LP."""
        mass = float(self.weights.sum())
        ref = self.points[0]
        centre = ref + self.weights @ (self.points - ref) / mass
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        return mass, centre, lo, hi, max(float(hi.max()), -float(lo.min()))

    def equals(self, other: "DiscreteMeasure", tol: float = GEO) -> bool:
        """Atom-by-atom equality of supports and weights: the atoms pair
        off one to one, each pair within the absolute tol in every
        coordinate and in weight."""
        if self.ambient_dim != other.ambient_dim or self.n_atoms != other.n_atoms:
            return False
        return _match_point_sets(
            np.column_stack([self.points, self.weights]),
            np.column_stack([other.points, other.weights]),
            tol,
        )

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "atoms": [
                {"point": p.tolist(), "weight": float(w)}
                for p, w in zip(self.points, self.weights)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiscreteMeasure":
        try:
            dim = int(data["dim"])
            # converted here, so that a list numpy cannot convert reads
            # as malformed JSON
            pts = as_points(np.asarray([a["point"] for a in data["atoms"]], dtype=float), dim)
            w = np.asarray([a["weight"] for a in data["atoms"]], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed measure JSON: {exc}") from exc
        return cls(pts, w)


def _merge_duplicates(pts: np.ndarray, w: np.ndarray):
    """Points and summed weights after merging atoms within GEO times
    their extent, so that no two atoms are that close.

    Each atom joins the first earlier kept atom within that distance in
    every coordinate, if there is one, and is kept otherwise; kept atoms
    stay in input order and collect their weights in input order.  A
    kept atom that absorbed others moves to their weighted mean, its
    point plus the weighted mean of their offsets from it, so merging
    keeps the barycentre (an exact duplicate moves it by nothing, and
    the atom keeps its bits).  Moved atoms can come within that distance
    of each other, so the pass repeats until nothing merges.
    """
    while True:
        n = pts.shape[0]
        owner = _first_match(pts, GEO * extent(pts))
        keep = owner == np.arange(n)
        offsets = w[:, None] * (pts - pts[owner])
        pts, w = pts[keep], np.bincount(owner, weights=w, minlength=n)[keep]
        if keep.all():
            return pts, w
        shift = np.stack([np.bincount(owner, o, n)[keep] for o in offsets.T], axis=1) / w[:, None]
        np.add(pts, shift, out=pts, where=shift != 0.0)


def barycenter(m: DiscreteMeasure) -> np.ndarray:
    """Mass-weighted mean of the atoms."""
    return m._summary[1].copy()


class _Scaled(NamedTuple):
    """An instance in the normalised arrays of the coupling LPs."""

    mass: float  # mu's total mass
    mu_w: np.ndarray  # weights over mass
    nu_w: np.ndarray
    x: np.ndarray  # points centred on their barycentre, over the extent
    y: np.ndarray
    feas: float  # feasibility tolerance of the normalised system
    scale: float  # the extent of both supports
    shift: float  # the distance between the barycentres, over the extent


def _scaled(mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True) -> _Scaled:
    """mu and nu in the normalised arrays of the coupling LPs: mu's total
    mass, weights over it, each measure's points centred on its own
    barycentre and divided by the extent of both supports (1 when every
    atom is at one point), the feasibility tolerance of the normalised
    system (``tolerance.feasibility``), and the distance between the
    barycentres over that extent, which the centring takes out of y - x.

    Measures in different dimensions raise DimensionMismatch, and
    masses that differ by more than GEO times mu's raise MassMismatch.
    With ``martingale`` set, barycentres that differ by more than that
    tolerance times the extent in some coordinate raise
    NotInConvexOrder: the LP holds its normalised barycentre rows to it,
    so the LP, the potentials and the paving agree on such pairs.
    Coordinates too coarse for that extent raise InvalidInput
    (``tolerance.feasibility``).
    """
    if mu.ambient_dim != nu.ambient_dim:
        raise DimensionMismatch("measures live in different dimensions")
    mass, mu_centre, mu_lo, mu_hi, mu_size = mu._summary
    nu_mass, nu_centre, nu_lo, nu_hi, nu_size = nu._summary
    if abs(mass - nu_mass) > GEO * mass:
        raise MassMismatch(f"total masses differ: {mass} vs {nu_mass}")
    scale = box_extent(np.minimum(mu_lo, nu_lo), np.maximum(mu_hi, nu_hi)) or 1.0
    feas = feasibility(scale, max(mu_size, nu_size))
    gap = nu_centre - mu_centre
    if martingale and np.maximum.reduce(np.abs(gap)) > feas * scale:
        raise NotInConvexOrder("barycenters differ: measures are not in convex order")
    return _Scaled(
        mass,
        mu.weights / mass,
        nu.weights / mass,
        (mu.points - mu_centre) / scale,
        (nu.points - nu_centre) / scale,
        feas,
        scale,
        math.sqrt(gap.dot(gap)) / scale,
    )


def check_convex_order(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """mu <=_c nu.  In dimension one the potentials decide it
    (``potential_domain``); elsewhere it holds iff ``find_coupling``
    returns a martingale coupling, which passes its certificate before
    it counts (Strassen: convex order iff a martingale coupling
    exists).  There a coordinate line that refutes the order answers
    before any LP, and the projection filter stops, with no LP solved,
    at the first axis whose kept pairs force a tight coupling, one whose
    defects are within the level below which a line refutes the order
    (``coupling._tight``): no line could refute it, so the answer is
    the one every axis would give.  Otherwise "no" comes with a Farkas
    ray of the coupling LP that every pair prices below its margin
    (``coupling._broken``), never from HiGHS's word alone."""
    try:
        if mu.ambient_dim == 1:
            _potential_domain(mu, nu)
        else:
            from .coupling import find_coupling

            find_coupling(mu, nu)
    except NotInConvexOrder:
        return False
    return True


@dataclass
class PotentialFunction:
    """u(x) = sum_i w_i |x - y_i| for a 1-D measure: piecewise linear and
    convex, with slope -mass at -inf and +mass at +inf."""

    measure: DiscreteMeasure
    breakpoints: np.ndarray  # sorted support abscissae
    values: np.ndarray  # u at the breakpoints
    total_mass: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.interp(x, self.breakpoints, self.values)
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        left = x < lo
        right = x > hi
        out[left] = self.values[0] + self.total_mass * (lo - x[left])
        out[right] = self.values[-1] + self.total_mass * (x[right] - hi)
        return float(out[0]) if scalar else out

    @property
    def slopes(self) -> np.ndarray:
        """Slopes of the linear pieces, outer rays included; nondecreasing."""
        inner = np.diff(self.values) / np.diff(self.breakpoints) if len(self.breakpoints) > 1 else np.zeros(0)
        return np.concatenate([[-self.total_mass], inner, [self.total_mass]])


def potential(lam: DiscreteMeasure) -> PotentialFunction:
    """Exact piecewise-linear representation of the potential of a 1-D
    measure, with breakpoints at its support points."""
    if lam.ambient_dim != 1:
        raise DimensionMismatch("potential functions are one-dimensional")
    xs = lam.points[:, 0]
    order = np.argsort(xs, kind="stable")
    bps = xs[order]
    vals = np.abs(bps[:, None] - xs) @ lam.weights
    return PotentialFunction(lam, bps, vals, lam.total_mass)


def potential_domain(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Maximal open intervals where u_nu - u_mu is positive.

    The potentials decide the convex order without an LP (Beiglböck &
    Juillet 2016): for measures of equal mass on the line, mu <=_c nu iff
    their first moments agree and u_nu >= u_mu at every breakpoint of
    either potential (the difference is linear between breakpoints).
    Barycentres are compared first (``_scaled``); then a breakpoint
    value below minus the coupling LP's feasibility tolerance raises
    NotInConvexOrder (``_axis_zeros``).  The difference vanishes only at
    nu-atoms, and the intervals run from zero to zero, by the same rule
    on the line as the mask's: a breakpoint holding a nu-atom whose
    value is at most that feasibility tolerance is one, so the intervals
    are the hulls of the paving's 1-D cells.  The tolerance is a
    fraction of mu's total mass times the extent of both supports.
    """
    return _potential_domain(mu, nu)[2]


def _potential_domain(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The sorted breakpoints of both potentials, the values of
    u_nu - u_mu there, and ``potential_domain(mu, nu)``: one interval
    per run of non-zeros, between the zeros on either side of it.  The
    one entry to the 1-D zero rule (``_axis_zeros`` on the line, at the
    scales of ``_scaled``), for ``check_convex_order`` too.
    """
    # measures of two dimensions are left to _scaled's message, which
    # find_coupling gives too, so check_convex_order names them alike
    if mu.ambient_dim == nu.ambient_dim != 1:
        raise DimensionMismatch("potential domain is one-dimensional")
    x, y, inst = mu.points[:, 0], nu.points[:, 0], _scaled(mu, nu)
    bps, vals, zero, left, right = _axis_zeros(x, mu.weights, y, nu.weights, inst)
    first = ~zero  # the first breakpoint of each run of non-zeros
    first[1:] &= zero[:-1]
    return bps, vals, [(float(bps[left[i]]), float(bps[right[i]])) for i in np.flatnonzero(first)]


def _axis_zeros(x, mu_w, y, nu_w, inst: _Scaled):
    """The zero rule on one line: x and y are the coordinates of mu's
    and nu's atoms on it and mu_w and nu_w their weights, from the
    instance ``inst`` (for a projection, the whole instance's scales).

    Returns the sorted distinct breakpoints, the values of
    u_nu - u_mu there (``sum |b - y| nu_w - sum |b - x| mu_w``, with no
    interpolation), a flag per breakpoint marking the zeros, and for
    each breakpoint the index of the last zero at or before it and of
    the first at or after it (the first and the last breakpoint where
    there is none).  A value below minus the feasibility tolerance times
    mass times extent refutes the order on this line, and so in the
    whole instance: it raises NotInConvexOrder.  u_nu - u_mu is strictly
    concave at a breakpoint that holds no nu-atom, so it vanishes only
    at nu-atoms: a zero is a breakpoint within GEO times the extent of a
    y whose value is at most that same level, the one zero threshold of
    every line.  Each maximal run of non-zeros is one component.

    The k <= n + m breakpoints are sorted, and the distances from each
    to every atom broadcast, so the work is O((n + m) log(n + m)) plus
    O(k (n + m)), at most O((n + m)^2).  The sort with a run mask, in
    place of ``np.unique``, and ufunc methods such as
    ``np.minimum.reduce``, in place of ``.min()`` and ``.any()``, give
    the same bits: on lines of a few atoms the per-call overhead of those
    wrappers, not the arithmetic, is most of the cost.
    """
    pts = np.concatenate((x, y))
    pts.sort()  # np.unique's own sort, so that of 0.0 and -0.0 the same one is kept
    run = np.empty(pts.size, dtype=bool)
    run[0] = True
    np.not_equal(pts[1:], pts[:-1], out=run[1:])
    bps = pts[run]
    to_nu = np.abs(bps[:, None] - y)
    vals = to_nu @ nu_w - np.abs(bps[:, None] - x) @ mu_w
    level = inst.feas * inst.mass * inst.scale
    if np.minimum.reduce(vals) < -level:
        raise NotInConvexOrder("measures are not in convex order")
    zero = (vals <= level) & np.logical_or.reduce(to_nu <= GEO * inst.scale, axis=1)
    k = bps.size
    idx = np.arange(k)
    left = np.maximum.accumulate(idx * zero)
    right = np.minimum.accumulate(np.where(zero, idx, k - 1)[::-1])[::-1]
    return bps, vals, zero, left, right


def pairing(mu: DiscreteMeasure, nu: DiscreteMeasure, phi) -> float:
    """<nu - mu, phi> for a function evaluable at the support points."""
    if mu.ambient_dim != nu.ambient_dim:
        raise DimensionMismatch("measures live in different dimensions")
    dim = getattr(phi, "dim", None)
    if dim is not None and dim != mu.ambient_dim:
        raise DimensionMismatch("function dimension does not match measures")
    nu_part = sum(w * float(phi(p)) for p, w in zip(nu.points, nu.weights))
    mu_part = sum(w * float(phi(p)) for p, w in zip(mu.points, mu.weights))
    return nu_part - mu_part

"""Finitely supported measures, convex-order checks and 1-D potentials.

``check_convex_order`` decides mu <=_c nu in any dimension by the
feasibility of the martingale-coupling LP (Strassen).  In dimension one
``potential_domain`` decides it from the potentials it computes anyway:
u_nu >= u_mu at every breakpoint; it solves no LP.  Both first ask
``_require_comparable``, which rejects measures of different mass or
barycentre at the tolerances the coupling LP works to, so every way of
asking gives one answer.  Thresholds follow the package's one policy
(``tolerance``, and the README's "Tolerances").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    MassMismatch,
    NotInConvexOrder,
)
from .geometry import _first_match, _match_point_sets, as_points
from .tolerance import GEO, INTERIOR, box_extent, extent, feasibility


class DiscreteMeasure:
    """Finite positive measure: support points with strictly positive weights.

    Duplicate atoms (coordinate-wise within GEO times the extent of the
    atoms) are merged on construction by summing their weights, so a
    measure is identified by its action, not by its representation.
    """

    def __init__(self, points, weights):
        pts = as_points(points)
        w = np.asarray(weights, dtype=float)
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
        ``_require_comparable`` reads them for every LP."""
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
            pts = [a["point"] for a in data["atoms"]]
            w = [a["weight"] for a in data["atoms"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"malformed measure JSON: {exc}") from exc
        pts = as_points(pts, dim)
        return cls(pts, w)


def _merge_duplicates(pts: np.ndarray, w: np.ndarray):
    """Points and summed weights after merging atoms within GEO times
    their extent.

    Each atom joins the first earlier kept atom within that distance in
    every coordinate, if there is one, and is kept otherwise; kept atoms
    stay in input order and collect their weights in input order.
    """
    owner = _first_match(pts, GEO * extent(pts))
    keep = owner == np.arange(pts.shape[0])
    return pts[keep], np.bincount(owner, weights=w, minlength=pts.shape[0])[keep]


def barycenter(m: DiscreteMeasure) -> np.ndarray:
    """Mass-weighted mean of the atoms."""
    return m._summary[1].copy()


def _require_comparable(mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True):
    """mu's total mass, mu's and nu's barycentres and the extent of both
    supports (1 when every atom is at one point), which the coupling LPs
    are normalised by, and the feasibility tolerance of the normalised
    LP (``tolerance.feasibility``).

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
    if martingale and abs(nu_centre - mu_centre).max() > feas * scale:
        raise NotInConvexOrder("barycenters differ: measures are not in convex order")
    return mass, mu_centre, nu_centre, scale, feas


def check_convex_order(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """mu <=_c nu, decided by feasibility of the martingale-coupling LP
    (Strassen: convex order iff a martingale coupling exists)."""
    from .coupling import _constraint_system, _highs

    try:
        A, b, s = _constraint_system(mu, nu)
        _highs(np.zeros(A.shape[1]), A, b, s.feas)
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
    vals = np.array([float(lam.weights @ np.abs(b - xs)) for b in bps])
    return PotentialFunction(lam, bps, vals, lam.total_mass)


def potential_domain(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float = INTERIOR):
    """Maximal open intervals where u_nu - u_mu is positive.

    The potentials decide the convex order without an LP (Beiglböck &
    Juillet 2016): for measures of equal mass on the line, mu <=_c nu iff
    their first moments agree and u_nu >= u_mu at every breakpoint of
    either potential (the difference is linear between breakpoints).
    Barycentres are compared first (``_require_comparable``); then a
    breakpoint value below minus the coupling LP's feasibility tolerance
    raises NotInConvexOrder.  Interval endpoints are exact roots of the
    linear pieces of the difference; a breakpoint value below ``eps``
    counts as zero.  Both thresholds are fractions of mu's total mass
    times the extent of both supports.  An ``eps`` that is negative or
    not finite raises InvalidInput.
    """
    return _potential_domain(mu, nu, eps)[2]


def _potential_domain(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float):
    """The sorted breakpoints of both potentials, the values of
    u_nu - u_mu there, and ``potential_domain(mu, nu, eps)``, read from
    them."""
    if not (np.isfinite(eps) and eps >= 0):
        raise InvalidInput(f"tolerance must be finite and nonnegative, got {eps!r}")
    if mu.ambient_dim != 1 or nu.ambient_dim != 1:
        raise DimensionMismatch("potential domain is one-dimensional")
    mass, _, _, scale, feas = _require_comparable(mu, nu)
    u_mu = potential(mu)
    u_nu = potential(nu)
    bps = np.unique(np.concatenate([u_mu.breakpoints, u_nu.breakpoints]))
    vals = u_nu(bps) - u_mu(bps)
    if vals.min() < -feas * mass * scale:
        raise NotInConvexOrder("measures are not in convex order")
    pos = vals > eps * mass * scale
    intervals = []
    start = None
    for i in range(len(bps)):
        if pos[i] and start is None:
            if i == 0:
                start = bps[0]
            else:
                # root of the linear piece between bps[i-1] and bps[i]
                d0, d1 = vals[i - 1], vals[i]
                t = 0.0 if d1 == d0 else max(0.0, -d0 / (d1 - d0))
                start = bps[i - 1] + t * (bps[i] - bps[i - 1])
        elif not pos[i] and start is not None:
            d0, d1 = vals[i - 1], vals[i]
            t = 1.0 if d1 == d0 else min(1.0, (d0 - 0.0) / (d0 - d1))
            end = bps[i - 1] + t * (bps[i] - bps[i - 1])
            intervals.append((float(start), float(end)))
            start = None
    if start is not None:
        intervals.append((float(start), float(bps[-1])))
    return bps, vals, intervals


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

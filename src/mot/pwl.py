"""Piecewise-linear convex functions as finite maxima of affine pieces.

Flat regions of such a function are exact polyhedra, which makes the
largest affine-behaviour component around a point computable as a
minimal face.  Unbounded flat regions are clipped by a caller-supplied
bounding box.  The limit notion for sequences of convex functions is
replaced by a tolerance-and-prefix surrogate whose testable contract is
convergence as the sequence grows.

The path from the pieces to a component stays in arrays: ties between
active pieces are broken by one ``np.lexsort``, the flat region
(``flat_region``; for a sequence, the near-flat region) is one block of
half-space rows in ``geometry``'s ``(G, c)`` form computed from the
piece arrays, and those rows go straight to the vertex enumeration
(``geometry.intersect_halfspaces_with_polytope``).  The point is
validated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtomOutsideD,
    DimensionMismatch,
    EmptyList,
    InvalidInput,
    PointOutsideBox,
    PointOutsidePolytope,
)
from .geometry import (
    Polytope,
    _minimal_face,
    as_point,
    as_points,
    intersect_halfspaces_with_polytope,
)
from .measures import DiscreteMeasure, barycenter
from .tolerance import GEO


@dataclass(frozen=True)
class AffineFunction:
    gradient: np.ndarray
    offset: float

    def __call__(self, y):
        return float(self.gradient @ np.asarray(y, dtype=float)) + self.offset


class PwlConvex:
    """phi(y) = max over pieces of <gradient, y> + offset."""

    def __init__(self, pieces):
        if not pieces:
            raise InvalidInput("a PWL convex function needs at least one piece")
        try:
            self.gradients = as_points([as_point(g) for g, _ in pieces])
            self.offsets = as_point([c for _, c in pieces])
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"a PWL piece must be a (gradient, offset) pair: {exc}") from exc
        self.dim = self.gradients.shape[1]

    @property
    def n_pieces(self) -> int:
        return self.gradients.shape[0]

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.linalg.norm(self.gradients, axis=1)))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected a point or rows of dimension {self.dim}, got shape {y.shape}"
            )
        if y.ndim == 1:
            return float(np.max(self.gradients @ y + self.offsets))
        return np.max(y @ self.gradients.T + self.offsets, axis=1)

    def active_pieces(self, x) -> np.ndarray:
        """Indices of pieces achieving the maximum at x within GEO, in
        the function's units."""
        return self._active(as_point(x, self.dim))

    def _active(self, x: np.ndarray) -> np.ndarray:
        """``active_pieces`` at a checked point."""
        vals = self.gradients @ x + self.offsets
        return (vals >= np.maximum.reduce(vals) - GEO).nonzero()[0]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "pieces": [
                {"gradient": g.tolist(), "offset": float(c)}
                for g, c in zip(self.gradients, self.offsets)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PwlConvex":
        try:
            dim = int(data["dim"])
            pieces = [(p["gradient"], p["offset"]) for p in data["pieces"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed PWL JSON: {exc}") from exc
        phi = cls(pieces)
        if phi.dim != dim:
            raise InvalidInput("piece gradients do not match declared dim")
        return phi


def supporting_affine(phi: PwlConvex, x) -> AffineFunction:
    """The piece achieving the maximum at x; ties broken by the
    lexicographically smallest gradient, then smallest offset, giving a
    deterministic subgradient selector."""
    k = _supporting_piece(phi, as_point(x, phi.dim))
    return AffineFunction(phi.gradients[k].copy(), float(phi.offsets[k]))


def _supporting_piece(phi: PwlConvex, x: np.ndarray) -> int:
    """Index of ``supporting_affine``'s piece at a checked point: the
    active piece first in the order of (gradient coordinates, offset),
    the earliest of equal ones."""
    active = phi._active(x)
    if active.size > 1:
        # np.lexsort sorts by its last key first
        active = active[np.lexsort((phi.offsets[active], *phi.gradients[active].T[::-1]))]
    return int(active[0])


def delta(phi: PwlConvex, x, y) -> float:
    """phi(y) - (phi(x) + <grad(x), y - x>), always >= 0."""
    x = as_point(x, phi.dim)
    y = as_point(y, phi.dim)
    g = phi.gradients[_supporting_piece(phi, x)]
    return phi(y) - (phi(x) + float(g @ (y - x)))


def flat_region(phi: PwlConvex, x) -> tuple[np.ndarray, np.ndarray]:
    """H-representation (G, c) of {y : phi(y) = b(y)} for the tie-broken
    supporting piece b at x; possibly unbounded."""
    return _flat_rows(phi, _supporting_piece(phi, as_point(x, phi.dim)))


def _flat_rows(phi: PwlConvex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat region of piece k as rows G y + c <= 0: piece minus piece
    k, without the rows whose normal and offset are both within GEO of
    zero (k itself and its duplicates)."""
    G = phi.gradients - phi.gradients[k]
    c = phi.offsets - phi.offsets[k]
    keep = (np.maximum.reduce(np.abs(G), axis=1) > GEO) | (np.abs(c) > GEO)
    return G[keep], c[keep]


def _require_in_box(x, box: Polytope):
    if x.shape[0] != box.ambient_dim:
        raise DimensionMismatch("point and box dimensions differ")
    if not box._contains(x):
        raise PointOutsideBox(f"{x.tolist()} is not in the bounding box")


def affine_component(phi: PwlConvex, x, bounding_box: Polytope) -> Polytope:
    """Minimal face at x of the flat region of phi clipped to the box;
    its relative interior is the affine-behaviour component of x."""
    x = as_point(x, phi.dim)
    _require_in_box(x, bounding_box)
    G, c = _flat_rows(phi, _supporting_piece(phi, x))
    region = intersect_halfspaces_with_polytope(G, c, bounding_box)
    if region is None:  # x misses its own flat region by more than the margin
        raise PointOutsidePolytope(f"{x.tolist()} is not in its flat region")
    return _minimal_face(x, region)[0]


def asymptotic_component(
    phis: list, x, bounding_box: Polytope, tol: float = GEO
) -> Polytope:
    """Desk-scale surrogate for the asymptotically-affine component of a
    sequence of PWL convex functions.

    For each element of the last half of the list, the near-flat set
    {y in box : phi(y) - b(y) <= tol for every piece b supporting phi at
    x} is a polytope; their intersection, reduced to its minimal face at
    x, is returned.  Convergence as the list grows is the contract, not
    equality with an abstract limit.  A tol that is not a finite number
    >= 0 raises InvalidInput.
    """
    if not phis:
        raise EmptyList("need at least one function")
    try:
        valid = math.isfinite(tol) and tol >= 0.0
    except TypeError:
        valid = False
    if not valid:
        raise InvalidInput(f"tol must be a finite number >= 0, got {tol!r}")
    x = as_point(x)
    dims = {phi.dim for phi in phis}
    if len(dims) != 1 or x.shape[0] not in dims:
        raise DimensionMismatch("all functions and x must share one dimension")
    _require_in_box(x, bounding_box)
    half = (len(phis) + 1) // 2
    G, c = [], []
    for phi in phis[-half:]:
        # every piece minus every active piece, active piece by active piece
        active = phi._active(x)
        normals = phi.gradients - phi.gradients[active, None]
        offsets = (phi.offsets - phi.offsets[active, None]) - tol
        keep = (np.abs(normals).max(axis=2) > GEO) | (offsets > GEO)
        G.append(normals[keep])
        c.append(offsets[keep])
    region = intersect_halfspaces_with_polytope(
        np.concatenate(G), np.concatenate(c), bounding_box
    )
    if region is None:  # x misses its own near-flat region by more than the margin
        raise PointOutsidePolytope(f"{x.tolist()} is not in its near-flat region")
    return _minimal_face(x, region)[0]


@dataclass
class FaceConcentrationReport:
    barycenter: np.ndarray
    face: Polytope
    outside_mass: float


def check_barycenter_face(alpha: DiscreteMeasure, D: Polytope) -> FaceConcentrationReport:
    """Mass of alpha outside the minimal face of D at alpha's barycenter
    (zero for any measure concentrated on D).

    Unless the face is D itself or, where D is thinner than the
    relative-interior margin, its vertex nearest the barycenter
    (``_minimal_face``), it is D cut by the hyperplanes of the facets
    tight at the barycenter: an atom within GEO ``face.scale`` of each
    of them is on it, and only the other atoms are put to
    ``face.contains``.
    """
    if alpha.ambient_dim != D.ambient_dim:
        raise DimensionMismatch("measure and polytope dimensions differ")
    points = alpha.points
    for p in points:
        if not D._contains(p):
            raise AtomOutsideD(f"atom {p.tolist()} lies outside the polytope")
    b = barycenter(alpha)
    face, tight = _minimal_face(b, D)
    if face is D:
        return FaceConcentrationReport(b, face, 0.0)
    near = np.zeros(len(points), dtype=bool)
    if tight is not None:
        normals, offsets = D.facets
        values = D.frame.project(points) @ normals[tight].T + offsets[tight]
        near = np.logical_and.reduce(values >= -GEO * face.scale, axis=1)
    outside = 0.0
    for p, w, hit in zip(points, alpha.weights.tolist(), near.tolist()):
        if not (hit or face._contains(p)):
            outside += w
    return FaceConcentrationReport(b, face, outside)

"""Convex geometry on finite point sets.

Affine hulls, minimal V-representations, facet inequalities,
relative-interior tests and minimal faces.  A ``Polytope`` computes its
affine frame and vertex set once, with qhull in frame coordinates, and
caches its facets; every predicate is then read off these facet
inequalities without solving a linear program.  Two tolerances:

* ``TAU_GEO`` (1e-9) for rank, membership and tightness decisions,
* ``EPS_RI``  (1e-7) for strict inequality in relative-interior tests
  and minimal faces, a distance to the facets.

Polytopes are bounded and stored by their vertices.  Lower-dimensional
polytopes are handled in their affine-hull coordinates, so faces and
half-space descriptions are genuine ones of the set itself and not of
the ambient space.  Only ``relative_interiors_intersect`` solves a
linear program (``lp.highs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import DimensionMismatch, InvalidInput, PointOutsidePolytope

TAU_GEO = 1e-9
EPS_RI = 1e-7


def as_point(x, dim: int | None = None) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InvalidInput("a point must be a flat coordinate list")
    if not np.all(np.isfinite(p)):
        raise InvalidInput("point coordinates must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def as_points(points, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise InvalidInput("empty point list")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("point coordinates must be finite")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {pts.shape[1]}")
    return pts


@dataclass(frozen=True)
class AffineSubspace:
    """Affine hull base_point + span(basis); basis rows are orthonormal."""

    base_point: np.ndarray
    basis: np.ndarray  # (dim, ambient_dim), orthonormal rows
    dim: int

    def project(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of ``points`` in the subspace frame."""
        pts = np.atleast_2d(points)
        return (pts - self.base_point) @ self.basis.T

    def lift(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(coords)
        if self.dim == 0:
            return np.tile(self.base_point, (coords.shape[0], 1))
        return self.base_point + coords @ self.basis

    def coordinates(self, x: np.ndarray, tol: float = TAU_GEO) -> np.ndarray | None:
        """Frame coordinates of the point x, or None when x is off the
        subspace by more than tol (scaled by |x - base_point| beyond 1)."""
        diff = x - self.base_point
        u = self.basis @ diff
        residual = diff - u @ self.basis
        bound = max(tol, 10 * tol * max(1.0, np.linalg.norm(diff)))
        return u if np.linalg.norm(residual) <= bound else None

    def contains(self, x: np.ndarray, tol: float = TAU_GEO) -> bool:
        return self.coordinates(as_point(x, self.base_point.shape[0]), tol) is not None


def affine_hull(points) -> AffineSubspace:
    """Affine hull of a point set; dimension is the TAU_GEO-rank."""
    pts = as_points(points)
    base = pts.mean(axis=0)
    centered = pts - base
    if pts.shape[0] == 1:
        return AffineSubspace(pts[0], np.zeros((0, pts.shape[1])), 0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > TAU_GEO))
    return AffineSubspace(base, vt[:rank], rank)


class Polytope:
    """Bounded convex polytope given by a minimal vertex list.

    Without ``minimal`` the vertices are the input points that qhull
    finds extreme in the coordinates of their affine hull, kept in input
    order; with it the caller vouches that every point is a vertex.  The
    affine frame, the vertices' frame coordinates and the facets are each
    computed once, on first use (``frame``, ``facets``).
    """

    def __init__(self, vertices, *, minimal: bool = False):
        pts = _dedupe(as_points(vertices))
        self._frame = self._coords = self._facets = None
        if not minimal and pts.shape[0] > 1:
            self._frame = affine_hull(pts)
            coords = self._frame.project(pts)
            keep, equations = _hull_vertices(coords)
            pts, self._coords = pts[keep], coords[keep]
            if equations is not None:
                self._facets = _merge_facets(equations)
        self.vertices = pts
        self.ambient_dim = pts.shape[1]

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()})"

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def frame(self) -> AffineSubspace:
        """The affine hull of the vertices."""
        if self._frame is None:
            self._frame = affine_hull(self.vertices)
        return self._frame

    @property
    def affine_dim(self) -> int:
        return self.frame.dim

    @property
    def coords(self) -> np.ndarray:
        """The vertices in frame coordinates."""
        if self._coords is None:
            self._coords = self.frame.project(self.vertices)
        return self._coords

    @property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit outward normals A and offsets b in frame coordinates: a
        point u of the frame lies in P iff A u + b <= 0.  A segment has
        two facets and a point none."""
        if self._facets is None:
            self._facets = _facet_equations(self.coords)
        return self._facets

    def is_singleton(self) -> bool:
        return self.n_vertices == 1

    def _facet_values(self, x: np.ndarray, tol: float) -> np.ndarray | None:
        """A u + b at the point x, or None when x is off the affine hull
        by more than tol."""
        u = self.frame.coordinates(x, tol)
        if u is None:
            return None
        normals, offsets = self.facets
        return normals @ u + offsets

    def contains(self, x, tol: float = TAU_GEO) -> bool:
        """x lies on the affine hull and within tol of every facet's
        inner side."""
        x = as_point(x, self.ambient_dim)
        if self.n_vertices == 1:
            return bool(np.max(np.abs(self.vertices[0] - x)) <= tol)
        values = self._facet_values(x, tol)
        return values is not None and bool(np.all(values <= tol))

    def same_vertices(self, other: "Polytope", tol: float = 1e-7) -> bool:
        if self.n_vertices != other.n_vertices:
            return False
        return _match_point_sets(self.vertices, other.vertices, tol)


# point pairs compared at once by _first_match (bounds its memory)
_MATCH_BLOCK = 2**18


def _near(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """near[i, j]: a[i] and b[j] agree within tol in every coordinate."""
    near = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    # coordinate by coordinate: a max over a short last axis is ~10x slower
    for c in range(a.shape[1]):
        near &= np.abs(a[:, None, c] - b[None, :, c]) <= tol
    return near


def _first_match(pts: np.ndarray, tol: float = TAU_GEO) -> np.ndarray:
    """owner[k]: the first earlier kept point within tol of point k in
    every coordinate, or k itself, which is then kept.

    Points are compared in blocks of rows; only points with an earlier
    neighbour walk the inner loop, in order, so every earlier point's
    kept status is already final when it is read.
    """
    n = pts.shape[0]
    owner = np.arange(n)
    if n == 1:
        return owner
    step = max(1, _MATCH_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        near = _near(pts[lo:hi], pts[:hi], tol)
        near &= np.arange(hi) < np.arange(lo, hi)[:, None]
        for r in np.flatnonzero(near.any(axis=1)):
            k = lo + r
            hits = np.flatnonzero(near[r, :k] & (owner[:k] == np.arange(k)))
            if hits.size:
                owner[k] = hits[0]
    return owner


def _dedupe(pts: np.ndarray, tol: float = TAU_GEO) -> np.ndarray:
    """The points that have no earlier kept point within tol, in order."""
    return pts[_first_match(pts, tol) == np.arange(pts.shape[0])]


def _match_point_sets(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Each point of a takes the first unused point of b within tol; true
    iff every point of a and of b is used."""
    near = _near(a, b, tol)
    used = np.zeros(b.shape[0], dtype=bool)
    for row in near:
        hits = np.flatnonzero(row & ~used)
        if hits.size == 0:
            return False
        used[hits[0]] = True
    return bool(used.all())


def _hull_vertices(coords: np.ndarray):
    """Indices of the vertices of conv(coords), ascending, and qhull's
    facet equations when qhull was run.

    ``coords`` are frame coordinates, so they span their own space: k
    points in dimension k - 1 form a simplex and are all vertices.
    """
    k, m = coords.shape
    if m == 0:
        return np.array([0]), None
    if k == m + 1:
        return np.arange(k), None
    if m == 1:
        return np.unique([coords[:, 0].argmin(), coords[:, 0].argmax()]), None
    hull = _qhull(coords)
    return np.sort(hull.vertices), hull.equations


def _qhull(coords: np.ndarray):
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(coords)
    except QhullError as exc:
        raise InvalidInput(f"qhull rejects the point set: {exc}") from exc


def _facet_equations(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = coords.shape[1]
    if m == 0:
        return np.zeros((0, 0)), np.zeros(0)
    if m == 1:
        u = coords[:, 0]
        return np.array([[1.0], [-1.0]]), np.array([-u.max(), u.min()])
    return _merge_facets(_qhull(coords).equations)


def _merge_facets(equations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qhull triangulates its output, so one facet can come as several
    equal equations (a 3-cube gives 12 for 6 facets); keep one each."""
    eq = _dedupe(equations)
    return eq[:, :-1], eq[:, -1]


def convex_hull(points) -> Polytope:
    """Minimal V-representation of the convex hull of ``points``."""
    return Polytope(points)


def in_relative_interior(x, P: Polytope, eps: float = EPS_RI) -> bool:
    """True iff x lies on the affine hull of P and at distance at least
    eps inside every facet (a distance margin, not a margin on the
    barycentric weights)."""
    x = as_point(x, P.ambient_dim)
    if P.n_vertices == 1:
        return bool(np.max(np.abs(P.vertices[0] - x)) <= TAU_GEO)
    values = P._facet_values(x, TAU_GEO)
    return values is not None and bool(np.all(values <= -eps))


def minimal_face(x, P: Polytope) -> Polytope:
    """The unique face of P containing x in its relative interior.

    The facets within EPS_RI of x are tight; the face is spanned by the
    vertices lying (within EPS_RI) on every tight facet, and is P itself
    when no facet is tight.
    """
    x = as_point(x, P.ambient_dim)
    if not P.contains(x):
        raise PointOutsidePolytope(f"{x.tolist()} is not in the polytope")
    if P.n_vertices == 1:
        return P
    normals, offsets = P.facets
    tight = P._facet_values(x, TAU_GEO) >= -EPS_RI
    on = np.all(P.coords @ normals[tight].T + offsets[tight] >= -EPS_RI, axis=1)
    if on.all():
        return P
    if not on.any():  # tight facets with no common vertex: P is thinner than EPS_RI
        on[np.argmin(np.linalg.norm(P.vertices - x, axis=1))] = True
    return Polytope(P.vertices[on], minimal=True)


def relative_interiors_intersect(P: Polytope, Q: Polytope, eps: float = EPS_RI) -> bool:
    """True iff some point is in the relative interior of both polytopes."""
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("polytopes live in different ambient spaces")
    if P.n_vertices == 1:
        return in_relative_interior(P.vertices[0], Q, eps)
    if Q.n_vertices == 1:
        return in_relative_interior(Q.vertices[0], P, eps)
    k, d = P.vertices.shape
    r = Q.vertices.shape[0]
    # variables l_1..l_k, m_1..m_r, s: maximise s subject to
    # sum l_a p_a = sum m_b q_b, sum l = sum m = 1, l, m >= s, s <= 1
    n = k + r + 1
    A = np.zeros((d + 2 + k + r, n))
    A[:d, :k] = P.vertices.T
    A[:d, k : k + r] = -Q.vertices.T
    A[d, :k] = 1.0
    A[d + 1, k : k + r] = 1.0
    A[d + 2 :, : k + r] = np.eye(k + r)
    A[d + 2 :, -1] = -1.0
    row_lo = np.concatenate([np.zeros(d), [1.0, 1.0], np.zeros(k + r)])
    row_hi = np.concatenate([np.zeros(d), [1.0, 1.0], np.full(k + r, np.inf)])
    upper = np.full(n, np.inf)
    upper[-1] = 1.0
    c = np.zeros(n)
    c[-1] = -1.0
    res = lp.highs(c, A, row_lo, row_hi, upper=upper, feas_tol=TAU_GEO)
    return res.status is lp.LpStatus.OPTIMAL and res.solution[-1] >= eps


class HalfSpace(NamedTuple):
    """The set {y : normal . y + offset <= 0}."""

    normal: np.ndarray
    offset: float


def halfspaces(P: Polytope) -> list[HalfSpace]:
    """Facet inequalities of P inside its affine hull, lifted to ambient
    coordinates.  Points of aff(P) satisfy all of them iff they lie in P."""
    sub = P.frame
    normals, offsets = P.facets
    lifted = normals @ sub.basis
    return [
        HalfSpace(g, float(b - g @ sub.base_point)) for g, b in zip(lifted, offsets)
    ]


def intersect_halfspaces_with_polytope(
    constraints: list[HalfSpace], box: Polytope, tol: float = TAU_GEO
) -> Polytope | None:
    """Vertices of box ∩ {y : g.y + c <= 0 for all constraints}.

    Every m-subset of the inequalities (box facets first, in the box's
    m-dimensional frame) is solved at once; the solutions that satisfy
    all inequalities within 10 tol are the candidate vertices.  Returns
    None when the intersection is empty.
    """
    sub = box.frame
    if sub.dim == 0:
        p = box.vertices[0]
        if all(h.normal @ p + h.offset <= tol for h in constraints):
            return box
        return None
    # constraints in frame coordinates u: y = p0 + B^T u
    G = np.array([h.normal for h in constraints], dtype=float).reshape(-1, box.ambient_dim)
    c = np.array([h.offset for h in constraints], dtype=float)
    normals, offsets = box.facets
    A = np.vstack([normals, G @ sub.basis.T])
    b = np.concatenate([offsets, G @ sub.base_point + c])
    m = sub.dim
    subsets = np.fromiter(
        chain.from_iterable(combinations(range(A.shape[0]), m)), dtype=np.intp
    ).reshape(-1, m)
    M = A[subsets]
    # exactly singular subsets are skipped; near-singular ones give far
    # points that fail the feasibility test
    regular = np.linalg.det(M) != 0.0
    u = np.linalg.solve(M[regular], -b[subsets[regular], None])[..., 0]
    feasible = np.max(u @ A.T + b, axis=1) <= 10 * tol
    if not feasible.any():
        return None
    return Polytope(sub.lift(u[feasible]))

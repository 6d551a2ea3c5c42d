"""Convex geometry on finite point sets.

Affine hulls, minimal V-representations, facet inequalities,
relative-interior tests and minimal faces.  A system of half-spaces is
always a pair of arrays ``(G, c)``: the rows of ``G y + c <= 0``, in
ambient coordinates, G of shape (k, d) and c of shape (k,).

A ``Polytope`` holds its affine frame, vertices and facets, each
computed once, from one of two sources: the convex hull of an arbitrary
point set runs qhull in frame coordinates, the one case where no
H-representation is known; a box cut by half-spaces
(``intersect_halfspaces_with_polytope``) reads its facets off those
inequalities, tight at its vertices, with no qhull call unless they
cannot resolve its vertices within their slack.  ``halfspaces`` gives
a polytope's facets back in the same ``(G, c)`` form.
Every predicate is then read off the facet inequalities without solving
a linear program.  Every threshold is relative to the point set or
polytope in hand (``tolerance``, and the README's "Tolerances"): a
polytope's ``scale`` is the extent of its vertices, and rank,
membership and tightness are decided at ``GEO``, strict inequality in
relative-interior tests and minimal faces at ``INTERIOR``, times it.

Polytopes are bounded and stored by their vertices.  Lower-dimensional
polytopes are handled in their affine-hull coordinates, so faces and
half-space descriptions are genuine ones of the set itself and not of
the ambient space.  Only ``relative_interiors_intersect`` solves a
linear program (``lp.highs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from . import lp
from .errors import DimensionMismatch, InvalidInput, PointOutsidePolytope
from .tolerance import GEO, INTERIOR, SLACK, extent


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
    """Affine hull base_point + span(basis); basis rows are orthonormal.
    ``scale`` is the extent of the points it was fitted to."""

    base_point: np.ndarray
    basis: np.ndarray  # (dim, ambient_dim), orthonormal rows
    dim: int
    scale: float

    def project(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of ``points`` in the subspace frame."""
        pts = np.atleast_2d(points)
        return (pts - self.base_point) @ self.basis.T

    def lift(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(coords)
        if self.dim == 0:
            return np.tile(self.base_point, (coords.shape[0], 1))
        return self.base_point + coords @ self.basis

    def coordinates(self, x: np.ndarray) -> np.ndarray | None:
        """Frame coordinates of the point x, or None when x is off the
        subspace by more than SLACK times the larger of ``scale`` and
        |x - base_point|."""
        diff = x - self.base_point
        u = self.basis @ diff
        residual = diff - u @ self.basis
        bound = SLACK * max(self.scale, np.linalg.norm(diff))
        return u if np.linalg.norm(residual) <= bound else None

    def contains(self, x) -> bool:
        return self.coordinates(as_point(x, self.base_point.shape[0])) is not None


def affine_hull(points) -> AffineSubspace:
    """Affine hull of a point set; its dimension is the number of
    singular values of the centred points above GEO times their extent."""
    pts = as_points(points)
    return _hull_frame(pts, extent(pts))[0]


def _hull_frame(pts: np.ndarray, scale: float) -> tuple[AffineSubspace, np.ndarray]:
    """The affine hull of checked points at the rank threshold GEO
    scale, with that scale, and their coordinates in it."""
    if pts.shape[0] == 1:
        return AffineSubspace(pts[0], np.zeros((0, pts.shape[1])), 0, scale), np.zeros((1, 0))
    base = pts.mean(axis=0)
    centered = pts - base
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[: int(np.sum(s > GEO * scale))]
    return AffineSubspace(base, basis, basis.shape[0], scale), centered @ basis.T


class Polytope:
    """Bounded convex polytope given by a minimal vertex list.

    Without ``minimal`` the vertices are the input points that qhull
    finds extreme in the coordinates of their affine hull, kept in input
    order; with it the caller vouches that every point is a vertex.
    ``scale`` is the extent of the input, which is that of the vertices,
    and points within GEO ``scale`` of an earlier one are dropped first.
    The affine frame, the vertices' frame coordinates and the facets are
    each computed once, on first use (``frame``, ``facets``).
    """

    def __init__(self, vertices, *, minimal: bool = False):
        pts = as_points(vertices)
        self.scale = extent(pts)
        pts = _dedupe(pts, GEO * self.scale)
        self._frame = self._coords = self._facets = None
        if not minimal and pts.shape[0] > 1:
            self._frame, coords = _hull_frame(pts, self.scale)
            keep, equations = _hull_vertices(coords)
            pts, self._coords = pts[keep], coords[keep]
            if equations is not None:
                self._facets = _merge_facets(equations, self.scale)
        self.vertices = pts
        self.ambient_dim = pts.shape[1]

    @classmethod
    def _built(cls, vertices, frame=None, coords=None, facets=None) -> "Polytope":
        """A polytope whose builder already holds its minimal vertices
        and, where given, their frame (whose scale is theirs) and frame
        coordinates and its facets; nothing given is recomputed."""
        P = cls.__new__(cls)
        P.vertices, P.ambient_dim = vertices, vertices.shape[1]
        P._frame, P._coords, P._facets = frame, coords, facets
        if frame is not None:
            P.scale = frame.scale
        return P

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()})"

    @cached_property
    def scale(self) -> float:
        """The extent of the vertices (set from the input on construction)."""
        return extent(self.vertices)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def frame(self) -> AffineSubspace:
        """The affine hull of the vertices."""
        if self._frame is None:
            self._frame = _hull_frame(self.vertices, self.scale)[0]
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
            self._facets = _facet_equations(self.coords, self.scale)
        return self._facets

    def is_singleton(self) -> bool:
        return self.n_vertices == 1

    def _facet_values(self, x: np.ndarray) -> np.ndarray | None:
        """A u + b at the point x, or None when x is off the affine hull
        (``AffineSubspace.coordinates``)."""
        u = self.frame.coordinates(x)
        if u is None:
            return None
        normals, offsets = self.facets
        return normals @ u + offsets

    def contains(self, x) -> bool:
        """x lies on the affine hull and within GEO ``scale`` of every
        facet's inner side (of the vertex, for a point)."""
        return self._contains(as_point(x, self.ambient_dim))

    def _contains(self, x: np.ndarray) -> bool:
        """``contains`` at a checked point of the ambient dimension."""
        tol = GEO * self.scale
        if self.n_vertices == 1:
            return bool(np.max(np.abs(self.vertices[0] - x)) <= tol)
        values = self._facet_values(x)
        return values is not None and bool(np.all(values <= tol))

    def same_vertices(self, other: "Polytope", tol: float = INTERIOR) -> bool:
        """The vertex sets pair off one to one within the absolute tol
        in every coordinate."""
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


def _first_match(pts: np.ndarray, tol: float) -> np.ndarray:
    """owner[k]: the first earlier kept point within tol of point k in
    every coordinate, or k itself, which is then kept.

    Points are compared in blocks of rows.  A point with no earlier
    neighbour is kept; a point whose first earlier neighbour is such a
    point takes it.  Only the rest, points down a chain of neighbours,
    walk the inner loop, in order, so every earlier point's kept status
    is already final when it is read.
    """
    n = pts.shape[0]
    owner = np.arange(n)
    if n == 1:
        return owner
    alone = np.ones(n, dtype=bool)  # no earlier point within tol
    step = max(1, _MATCH_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        near = _near(pts[lo:hi], pts[:hi], tol)
        near &= np.arange(hi) < np.arange(lo, hi)[:, None]
        rows = np.flatnonzero(near.any(axis=1))
        if rows.size == 0:
            continue
        alone[lo + rows] = False
        first = near[rows].argmax(axis=1)
        direct = alone[first]
        owner[lo + rows[direct]] = first[direct]
        for r in rows[~direct]:
            k = lo + r
            hits = np.flatnonzero(near[r, :k] & (owner[:k] == np.arange(k)))
            if hits.size:
                owner[k] = hits[0]
    return owner


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    """The points that have no earlier kept point within tol, in order."""
    return pts[_first_match(pts, tol) == np.arange(pts.shape[0])]


def _match_point_sets(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True iff the points of a and of b pair off one to one, each pair
    within tol in every coordinate: a maximum bipartite matching on
    ``_near`` covers both sets."""
    if a.shape[0] != b.shape[0]:
        return False
    near = _near(a, b, tol)
    if not (near.any(axis=0).all() and near.any(axis=1).all()):
        return False
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match = maximum_bipartite_matching(csr_array(near), perm_type="column")
    return bool(np.all(match >= 0))


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


def _facet_equations(coords: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    m = coords.shape[1]
    if m == 0:
        return np.zeros((0, 0)), np.zeros(0)
    if m == 1:
        u = coords[:, 0]
        return np.array([[1.0], [-1.0]]), np.array([-u.max(), u.min()])
    return _merge_facets(_qhull(coords).equations, scale)


def _merge_facets(equations: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """qhull triangulates its output, so one facet can come as several
    equal equations (a 3-cube gives 12 for 6 facets); keep one each,
    comparing unit normals and offsets over ``scale`` at GEO."""
    unit = np.ones(equations.shape[1])
    unit[-1] = scale
    keep = _first_match(equations / unit, GEO)
    eq = equations[keep == np.arange(equations.shape[0])]
    return eq[:, :-1], eq[:, -1]


def convex_hull(points) -> Polytope:
    """Minimal V-representation of the convex hull of ``points``."""
    return Polytope(points)


def in_relative_interior(x, P: Polytope) -> bool:
    """True iff x lies on the affine hull of P and at distance at least
    INTERIOR ``P.scale`` inside every facet (a distance margin, not a
    margin on the barycentric weights); for a point, iff x is in P."""
    x = as_point(x, P.ambient_dim)
    if P.n_vertices == 1:
        return P._contains(x)
    values = P._facet_values(x)
    return values is not None and bool(np.all(values <= -INTERIOR * P.scale))


def minimal_face(x, P: Polytope) -> Polytope:
    """The unique face of P containing x in its relative interior.

    The facets within INTERIOR ``P.scale`` of x are tight; the face is
    spanned by the vertices lying (as near) on every tight facet, and is
    P itself when no facet is tight.
    """
    return _minimal_face(as_point(x, P.ambient_dim), P)[0]


def _minimal_face(x: np.ndarray, P: Polytope):
    """``minimal_face(x, P)`` and the mask of P's facets tight at x, read
    from one evaluation of the facets at x.  The face is P itself (with
    mask None) or P cut by the hyperplanes of the masked facets, except
    where those facets share no vertex (P is thinner than the margin
    there): the face is then the vertex nearest to x, and the mask None."""
    if P.n_vertices == 1:
        if not P._contains(x):
            raise PointOutsidePolytope(f"{x.tolist()} is not in the polytope")
        return P, None
    values = P._facet_values(x)
    if values is None or not np.all(values <= GEO * P.scale):
        raise PointOutsidePolytope(f"{x.tolist()} is not in the polytope")
    normals, offsets = P.facets
    margin = -INTERIOR * P.scale
    tight = values >= margin
    on = np.all(P.coords @ normals[tight].T + offsets[tight] >= margin, axis=1)
    if on.all():
        return P, None
    if not on.any():  # tight facets with no common vertex: P is thinner than the margin
        on[np.argmin(np.linalg.norm(P.vertices - x, axis=1))] = True
        return Polytope._built(P.vertices[on]), None
    return Polytope._built(P.vertices[on]), tight


def relative_interiors_intersect(P: Polytope, Q: Polytope) -> bool:
    """True iff some point is in the relative interior of both polytopes:
    a common point has barycentric weights of at least INTERIOR in both
    (one LP, on the vertices centred on one of P's and divided by the
    extent of both).  A point polytope asks ``in_relative_interior``."""
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("polytopes live in different ambient spaces")
    if P.n_vertices == 1:
        return in_relative_interior(P.vertices[0], Q)
    if Q.n_vertices == 1:
        return in_relative_interior(Q.vertices[0], P)
    k, d = P.vertices.shape
    r = Q.vertices.shape[0]
    centre = P.vertices[0]
    scale = extent(P.vertices, Q.vertices)
    # variables l_1..l_k, m_1..m_r, s: maximise s subject to
    # sum l_a p_a = sum m_b q_b, sum l = sum m = 1, l, m >= s, s <= 1
    n = k + r + 1
    A = np.zeros((d + 2 + k + r, n))
    A[:d, :k] = ((P.vertices - centre) / scale).T
    A[:d, k : k + r] = -((Q.vertices - centre) / scale).T
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
    res = lp.highs(c, A, row_lo, row_hi, upper=upper, feas_tol=GEO)
    return res.status is lp.LpStatus.OPTIMAL and res.solution[-1] >= INTERIOR


def halfspaces(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Facet inequalities of P inside its affine hull, lifted to ambient
    coordinates as rows G y + c <= 0 (shapes (0, d) and (0,) for a
    point).  Points of aff(P) satisfy all of them iff they lie in P."""
    sub = P.frame
    normals, offsets = P.facets
    G = normals @ sub.basis
    return G, offsets - G @ sub.base_point


# Every m-subset of the N rows is solved at once, and all N rows are then
# evaluated at each solution: a (C(N, m), N) array, the largest one made
# once N > m^2 (each subset's m x m matrix is copied once).  2**24 of its
# entries are 128 MB, and a call at this bound peaks near 0.3 GB in
# dimensions 1-4.  The tests and benchmarks stay below 10**5.
_MAX_SUBSET_ROWS = 2**24


def intersect_halfspaces_with_polytope(G, c, box: Polytope) -> Polytope | None:
    """Vertices of box ∩ {y : G y + c <= 0}, G of shape (k, ambient_dim)
    and c of shape (k,), or None when the intersection is empty.

    Rows are scaled to unit normals (a row with a zero normal is left
    as it is), so that the slack is a distance: SLACK times the box's
    scale.  Every m-subset of the inequalities (box facets first, in the
    box's m-dimensional frame) is solved at once; the solutions that
    satisfy all inequalities within the slack are the candidate
    vertices, and they are deduplicated at GEO times the box's scale in
    input order, as ``Polytope`` does.  The frame and
    facets come from the same inequalities (``_region``), without qhull,
    unless they cannot tell two candidates apart.  An enumeration of
    more than ``_MAX_SUBSET_ROWS`` subset-row pairs raises InvalidInput
    before anything is allocated.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    if G.ndim != 2 or c.shape != (G.shape[0],) or G.shape[1] != box.ambient_dim:
        raise DimensionMismatch(
            f"need rows G of shape (k, {box.ambient_dim}) and c of shape (k,), "
            f"got {G.shape} and {c.shape}"
        )
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    unit = np.where(norms > 0.0, norms, 1.0)
    G, c = G / unit[:, None], c / unit
    slack = SLACK * box.scale
    sub = box.frame
    if sub.dim == 0:
        return box if np.all(G @ box.vertices[0] + c <= slack) else None
    # constraints in frame coordinates u: y = p0 + B^T u
    normals, offsets = box.facets
    n, m = normals.shape[0] + G.shape[0], sub.dim
    if math.comb(n, m) * n > _MAX_SUBSET_ROWS:
        raise InvalidInput(
            f"{n} inequalities in dimension {m}: {math.comb(n, m)} subsets of {n} "
            f"rows, more than {_MAX_SUBSET_ROWS} subset-row pairs"
        )
    A = np.vstack([normals, G @ sub.basis.T])
    b = np.concatenate([offsets, G @ sub.base_point + c])
    subsets = np.fromiter(
        chain.from_iterable(combinations(range(n), m)), dtype=np.intp
    ).reshape(-1, m)
    M = A[subsets]
    # exactly singular subsets are skipped; near-singular ones give far
    # points that fail the feasibility test
    regular = np.linalg.det(M) != 0.0
    u = np.linalg.solve(M[regular], -b[subsets[regular], None])[..., 0]
    feasible = np.max(u @ A.T + b, axis=1) <= slack
    if not feasible.any():
        return None
    u = u[feasible]
    pts = sub.lift(u)
    kept = _first_match(pts, GEO * box.scale) == np.arange(pts.shape[0])
    region = _region(pts[kept], u[kept], A, b, sub, box.scale)
    # inequalities that cannot resolve the candidates within the slack
    # leave the region to qhull, as for any point set
    return region if region is not None else Polytope(pts[kept])


def _region(candidates, u, A, b, box_frame: AffineSubspace, scale: float) -> Polytope | None:
    """The polytope cut out by A u + b <= 0, rows of unit or zero normal,
    from its candidate vertices (u are their coordinates in
    ``box_frame``), or None when the rows cannot resolve it within the
    slack SLACK ``scale``, the box's.

    Its frame is the affine hull of u, at the rank threshold of the
    candidates' own extent as for any point set, composed with
    ``box_frame``.  Each row is mapped into that frame; rows whose mapped
    normal is at most GEO are dropped and the rest scaled to unit
    normals.  A row is tight at a candidate when its value there is at
    least -slack.  The
    facets are the rows whose tight sets are nonempty and maximal under
    inclusion, the first of equal sets kept: a lower face's set lies
    strictly inside a facet's.  The vertices are the candidates whose
    sets of tight facets are maximal: a candidate inside a face of
    dimension one or more (a near-singular subset of rows can put one
    there) is on fewer facets than that face's vertices.  Two candidates
    on the same facets give None: they are closer than the slack
    resolves, or the region is thinner than the slack across a row
    tight at every candidate, which is then the one facet left.
    """
    own = extent(candidates)
    hull, coords = _hull_frame(u, own)
    normals = A @ hull.basis.T
    offsets = A @ hull.base_point + b
    norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    tight = coords @ normals.T + offsets >= -SLACK * scale * norms
    tight &= norms > GEO
    inside, count = _inclusion(tight)
    # S_j beats S_i when it contains S_i and is larger, or equal and earlier
    rank = count * count.size - np.arange(count.size)
    facets = (count > 0) & ~(inside & (rank > rank[:, None])).any(axis=1)
    inside, count = _inclusion(tight[:, facets].T)
    if np.count_nonzero(inside & inside.T) > count.size:
        return None
    vertex = ~(inside & (count > count[:, None])).any(axis=1)
    frame = AffineSubspace(
        box_frame.base_point + hull.base_point @ box_frame.basis,
        hull.basis @ box_frame.basis,
        hull.dim,
        own,
    )
    unit = norms[facets]
    return Polytope._built(
        candidates[vertex],
        frame,
        coords[vertex],
        (normals[facets] / unit[:, None], offsets[facets] / unit),
    )


def _inclusion(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the columns of the boolean matrix ``sets``, each the set of its
    true rows: inside[i, j], S_i is a subset of S_j, and the sizes |S_i|."""
    T = sets.astype(float)
    inter = T.T @ T  # |S_i ∩ S_j|
    count = inter.diagonal()
    return inter == count[:, None], count

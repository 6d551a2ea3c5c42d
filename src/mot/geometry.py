"""Convex geometry on finite point sets.

Affine hulls, minimal V-representations, facet inequalities,
relative-interior tests and minimal faces.  A system of half-spaces is
always a pair of arrays ``(G, c)``: the rows of ``G y + c <= 0``, in
ambient coordinates, G of shape (k, d) and c of shape (k,).

A ``Polytope`` holds its affine frame, vertices and facets, each
computed once, on first use, from one of two sources: the convex hull
of an arbitrary point set, the one case where no H-representation is
known, runs qhull in frame coordinates for its vertices, and its facets
come from a second qhull call on those vertices, made only when
something reads them (one or two points are their own vertices, whose
frame waits until something asks for it); a box cut by half-spaces
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
the ambient space.  No function here solves a linear program: two
relative interiors meet iff the origin is in the relative interior of
the hull of the vertex differences (``relative_interiors_intersect``).

The sets are small: a flat region in dimension m has its 2m box facets
and a few rows more, and hulls and faces a handful of vertices.  A call
then costs what its numpy calls cost, a microsecond or more each
whatever the size, not their arithmetic: a ``pwl.affine_component``
makes about 160 Python-level calls (cProfile) and takes about 150, 200
and 260 us in dimensions 1, 2 and 3 on a shared 2-core machine.  So
reductions are ufunc methods (``np.maximum.reduce``,
``np.logical_and.reduce``, ``np.add.reduce(...) / n`` for a mean), which
the wrappers ``np.max``, ``np.all`` and ``.mean`` end in, with the same
bits; a length is ``math.sqrt(v @ v)``, the dot product that
``np.linalg.norm`` takes; and the m-subsets of N rows are built once per
(N, m) when there are few of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations

import numpy as np

from .errors import DimensionMismatch, InvalidInput, PointOutsidePolytope
from .tolerance import GEO, INTERIOR, ROUND, SLACK, extent


def _floats(values) -> np.ndarray:
    """``values`` as a float array; ragged or non-numeric input raises
    InvalidInput."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"not an array of numbers: {exc}") from None


def as_point(x, dim: int | None = None) -> np.ndarray:
    p = _floats(x)
    if p.ndim == 0:
        p = p.reshape(1)
    elif p.ndim != 1:
        raise InvalidInput("a point must be a flat coordinate list")
    if not np.logical_and.reduce(np.isfinite(p)):
        raise InvalidInput("point coordinates must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def as_points(points, dim: int | None = None) -> np.ndarray:
    pts = _floats(points)
    if pts.size == 0:
        raise InvalidInput("empty point list")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.ndim != 2:
        raise InvalidInput("a point list must be a list of flat coordinate lists")
    if not np.logical_and.reduce(np.isfinite(pts), axis=None):
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
        return self.base_point + np.atleast_2d(coords) @ self.basis

    def coordinates(self, x: np.ndarray) -> np.ndarray | None:
        """Frame coordinates of the point x, or None when x is off the
        subspace by more than SLACK times the larger of ``scale`` and
        |x - base_point|, and by more than the round-off of x's
        coordinates (``_round_off``)."""
        diff = x - self.base_point
        u = self.basis @ diff
        residual = diff - u @ self.basis
        # |v| is sqrt(v @ v), as np.linalg.norm takes it, in fewer calls
        off = math.sqrt(residual @ residual)
        bound = SLACK * max(self.scale, math.sqrt(diff @ diff))
        return u if off <= bound or off <= _round_off(x) else None

    def contains(self, x) -> bool:
        return self.coordinates(as_point(x, self.base_point.shape[0])) is not None


def _round_off(x: np.ndarray, spread: float = 0.0) -> float:
    """The round-off of the coordinates of points within ``spread`` of
    the point x: ROUND times the largest absolute coordinate they can
    have, x's plus spread (a Python max over x's few coordinates, a
    fraction of a ufunc call's cost)."""
    return ROUND * (max(map(abs, x.tolist())) + spread)


def affine_hull(points) -> AffineSubspace:
    """Affine hull of a point set; its dimension is the number of
    singular values of the centred points above GEO times their extent,
    or above the round-off of their coordinates where that is coarser
    (``_hull_frame``)."""
    pts = as_points(points)
    return _hull_frame(pts, extent(pts))[0]


def _hull_frame(pts: np.ndarray, scale: float) -> tuple[AffineSubspace, np.ndarray]:
    """The affine hull of checked points, with the scale given, and their
    coordinates in it.  Its rank counts the singular values of the
    centred points above GEO times that scale, or above the round-off
    of their coordinates (``_round_off``) where that is coarser: far
    from the origin, points a few GEO apart are known no more finely
    than that.  On the line the frame is the axis, found without an
    SVD."""
    base = np.add.reduce(pts, axis=0) / pts.shape[0]  # the mean
    centered = pts - base
    rank = max(GEO * scale, _round_off(base, scale))
    if pts.shape[1] == 1:
        # the one singular value of a column is its norm, and the axis its direction
        column = centered[:, 0]
        basis = np.ones((int(math.sqrt(column @ column) > rank), 1))
    else:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[: np.count_nonzero(s > rank)]
    return AffineSubspace(base, basis, basis.shape[0], scale), centered @ basis.T


class Polytope:
    """Bounded convex polytope given by a minimal vertex list.

    Without ``minimal`` the vertices are the input points that qhull
    finds extreme in the coordinates of their affine hull, kept in input
    order; with it the caller vouches that every point is a vertex.
    ``scale`` is the extent of the input, which is that of the vertices,
    and points within GEO ``scale`` of an earlier one, or within sqrt 2
    times the round-off of their coordinates (``_round_off``) where that
    is coarser, are dropped first.
    Finding the vertices of three or more points builds their frame and
    frame coordinates; otherwise these are built on first use (``frame``,
    ``coords``).  The facets come from a second qhull call, on the
    vertices, made on first read (``facets``).  A point or a segment
    answers ``affine_dim`` without any of them.
    """

    def __init__(self, vertices, *, minimal: bool = False):
        pts = as_points(vertices)
        self.scale = extent(pts)
        # points within sqrt 2 times the round-off of their coordinates
        # are one: two kept apart have a centred singular value |v| / sqrt 2
        # above the frame's rank threshold (their mean is within scale of
        # pts[0]), so their frame has the dimension affine_dim reads
        floor = math.sqrt(2.0) * _round_off(pts[0], 2.0 * self.scale)
        pts = _dedupe(pts, max(GEO * self.scale, floor))
        self._frame = self._coords = self._facets = None
        if not minimal:
            keep, self._frame, self._coords = _hull(pts, self.scale)
            pts = pts[keep]
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
        """The frame's dimension.  Without a frame, one or two vertices
        span n_vertices - 1 dimensions and no frame is built: the one
        singular value of two centred points is |v| / sqrt 2, above the
        rank threshold GEO |v| of their extent |v|."""
        if self._frame is None and self.n_vertices <= 2:
            return self.n_vertices - 1
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
            return bool(np.maximum.reduce(np.abs(self.vertices[0] - x)) <= tol)
        values = self._facet_values(x)
        return values is not None and _within(values, tol, x)

    def same_vertices(self, other: "Polytope", tol: float = INTERIOR) -> bool:
        """The vertex sets pair off one to one within the absolute tol
        in every coordinate."""
        if self.n_vertices != other.n_vertices:
            return False
        return _match_point_sets(self.vertices, other.vertices, tol)


def _within(values: np.ndarray, tol: float, x: np.ndarray) -> bool:
    """Whether x's facet values are all at most tol, or at most the
    round-off of x's coordinates (``_round_off``) where that is coarser."""
    top = np.maximum.reduce(values, initial=-np.inf)
    return bool(top <= tol or top <= _round_off(x))


# point pairs compared at once by _first_match (bounds its memory)
_MATCH_BLOCK = 2**18


def _near(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """near[i, j]: a[i] and b[j] agree within tol in every coordinate
    (points of one or more coordinates)."""
    # coordinate by coordinate: a max over a short last axis is ~10x slower
    near = np.abs(a[:, None, 0] - b[None, :, 0]) <= tol
    for c in range(1, a.shape[1]):
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
    index = np.arange(n)
    if n == 1:
        return index
    owner = index.copy()
    alone = np.ones(n, dtype=bool)  # no earlier point within tol
    step = max(1, _MATCH_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        near = _near(pts[lo:hi], pts[:hi], tol)
        near &= index[:hi] < index[lo:hi, None]
        rows = np.logical_or.reduce(near, axis=1).nonzero()[0]
        if rows.size == 0:
            continue
        alone[lo + rows] = False
        first = near[rows].argmax(axis=1)
        direct = alone[first]
        owner[lo + rows[direct]] = first[direct]
        for r in rows[~direct]:
            k = lo + r
            hits = (near[r, :k] & (owner[:k] == index[:k])).nonzero()[0]
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


def _hull(pts: np.ndarray, scale: float | None = None):
    """The convex hull of checked points of extent scale (their
    ``extent`` where not given): the indices of its vertices, ascending,
    its frame and the vertices' frame coordinates; the holder builds its
    facets on first read.  Of points that coincide at most one is a
    vertex, except that one or two points, which the caller keeps
    distinct, are their own vertices, with no frame: the holder
    builds it on first use (``Polytope.frame``), as this would, and its
    ``affine_dim`` is n_vertices - 1 without it."""
    if pts.shape[0] <= 2:
        return np.arange(pts.shape[0]), None, None
    if scale is None:
        scale = extent(pts)
    frame, coords = _hull_frame(pts, scale)
    keep = _hull_vertices(coords)
    return keep, frame, coords[keep]


def _distinct_hull(pts: np.ndarray) -> Polytope:
    """``convex_hull`` of checked points without its deduplication, for
    points with nothing to dedupe, such as a subset of a measure's atoms,
    or too many to dedupe, such as the vertex differences of two
    polytopes (moved by a vertex): those can coincide, and qhull keeps
    one of each."""
    keep, frame, coords = _hull(pts)
    return Polytope._built(pts[keep], frame, coords)


def _hull_vertices(coords: np.ndarray) -> np.ndarray:
    """Indices of the vertices of conv(coords), ascending.

    ``coords`` are frame coordinates, so they span their own space: k
    points in dimension k - 1 form a simplex and are all vertices, and
    points in a frame of dimension 0 coincide within the round-off of
    their coordinates, so the first is the one vertex.
    """
    k, m = coords.shape
    if k == m + 1 or m == 0:
        return np.arange(m + 1)
    if m == 1:  # the two ends, which a frame of dimension one keeps apart
        ends = [coords[:, 0].argmin(), coords[:, 0].argmax()]
        return np.array(ends if ends[0] < ends[1] else ends[::-1])
    return np.sort(_qhull(coords).vertices)


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
        return np.array([[1.0], [-1.0]]), np.array([-np.maximum.reduce(u), np.minimum.reduce(u)])
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
    INTERIOR ``P.scale`` inside every facet; for a point, iff x is in P."""
    x = as_point(x, P.ambient_dim)
    if P.n_vertices == 1:
        return P._contains(x)
    values = P._facet_values(x)
    return values is not None and bool(np.logical_and.reduce(values <= -INTERIOR * P.scale))


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
    if values is None or not _within(values, GEO * P.scale, x):
        raise PointOutsidePolytope(f"{x.tolist()} is not in the polytope")
    normals, offsets = P.facets
    margin = -INTERIOR * P.scale
    tight = values >= margin
    on = np.logical_and.reduce(P.coords @ normals[tight].T + offsets[tight] >= margin, axis=1)
    if np.logical_and.reduce(on):
        return P, None
    if not np.logical_or.reduce(on):
        # tight facets with no common vertex: P is thinner than the margin
        on[np.argmin(np.linalg.norm(P.vertices - x, axis=1))] = True
        return Polytope._built(P.vertices[on]), None
    return Polytope._built(P.vertices[on]), tight


def relative_interiors_intersect(P: Polytope, Q: Polytope) -> bool:
    """True iff some point is in the relative interior of both polytopes:
    ri Q - ri P is ri(Q - P) (Rockafellar, *Convex Analysis*, Cor.
    6.6.2), so they meet iff the origin is in the relative interior of
    the hull of the vertex differences q - p (``in_relative_interior``).
    That hull is taken moved by one of P's vertices, x, and asked about
    x: it then carries the round-off of the coordinates, which no
    tolerance goes below, and a point P is asked about Q itself."""
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("polytopes live in different ambient spaces")
    x = P.vertices[0]
    moved = (x + (Q.vertices - P.vertices[:, None, :])).reshape(-1, P.ambient_dim)
    return in_relative_interior(x, _distinct_hull(moved))


def halfspaces(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Facet inequalities of P inside its affine hull, lifted to ambient
    coordinates as rows G y + c <= 0 (shapes (0, d) and (0,) for a
    point).  Points of aff(P) satisfy all of them iff they lie in P."""
    sub = P.frame
    normals, offsets = P.facets
    G = normals @ sub.basis
    return G, offsets - G @ sub.base_point


def _subsets(n: int, m: int) -> np.ndarray:
    """Every m-subset of range(n), one per row in lexicographic order."""
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), m)), dtype=np.intp)
    return subsets.reshape(-1, m)


# Enumerations of at most this many indices (32 KB) are kept, read-only,
# for the next call with the same (n, m): at most 1 MB in all.  A flat
# region of a PWL function in dimension 3 has about 120 subsets of 3.
_CACHED_SUBSET_INDICES = 2**12


@lru_cache(maxsize=32)
def _small_subsets(n: int, m: int) -> np.ndarray:
    subsets = _subsets(n, m)
    subsets.flags.writeable = False
    return subsets


# Every m-subset of the N rows is solved at once, and all N rows are then
# evaluated at each solution: a (C(N, m), N) array, the largest one made
# once N > m^2 (each subset's m x m matrix is copied once).  2**24 of its
# entries are 128 MB, and a call at this bound peaks near 0.3 GB in
# dimensions 1-4 and keeps none of it (only small enumerations are kept,
# ``_small_subsets``).  The tests and benchmarks stay below 10**5.
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

    A NaN anywhere in a row, or an infinite entry of G, raises
    InvalidInput.  An infinite offset c is a row that no point (+inf)
    or every point (-inf) satisfies: the answer is None, or the row is
    dropped.
    """
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    if G.ndim != 2 or c.shape != (G.shape[0],) or G.shape[1] != box.ambient_dim:
        raise DimensionMismatch(
            f"need rows G of shape (k, {box.ambient_dim}) and c of shape (k,), "
            f"got {G.shape} and {c.shape}"
        )
    finite = np.logical_and.reduce(np.isfinite(G), axis=None)
    if not (finite and np.logical_and.reduce(np.isfinite(c))):
        if not finite or np.logical_or.reduce(np.isnan(c)):
            raise InvalidInput("half-space rows need finite normals and offsets that are not NaN")
        if np.logical_or.reduce(c == np.inf):
            return None  # a row that no point satisfies
        G, c = G[c > -np.inf], c[c > -np.inf]  # less the rows that every point satisfies
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    unit = np.where(norms > 0.0, norms, 1.0)
    G, c = G / unit[:, None], c / unit
    slack = SLACK * box.scale
    sub = box.frame
    if sub.dim == 0:
        return box if np.logical_and.reduce(G @ box.vertices[0] + c <= slack) else None
    # constraints in frame coordinates u: y = p0 + B^T u
    normals, offsets = box.facets
    n, m = normals.shape[0] + G.shape[0], sub.dim
    count = math.comb(n, m)
    if count * n > _MAX_SUBSET_ROWS:
        raise InvalidInput(
            f"{n} inequalities in dimension {m}: {count} subsets of {n} "
            f"rows, more than {_MAX_SUBSET_ROWS} subset-row pairs"
        )
    A = np.concatenate((normals, G @ sub.basis.T))
    b = np.concatenate((offsets, G @ sub.base_point + c))
    subsets = _small_subsets(n, m) if count * m <= _CACHED_SUBSET_INDICES else _subsets(n, m)
    M = A[subsets]
    # exactly singular subsets are skipped; near-singular ones give far
    # points that fail the feasibility test
    regular = np.linalg.det(M) != 0.0
    u = np.linalg.solve(M[regular], -b[subsets[regular], None])[..., 0]
    feasible = np.maximum.reduce(u @ A.T + b, axis=1) <= slack
    if not np.logical_or.reduce(feasible):
        return None
    u = u[feasible]
    pts = sub.base_point + u @ sub.basis
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
    # inclusion of sets from their 0/1 matrix T: inter = |S_i ∩ S_j|, and
    # S_i lies in S_j where that is |S_i| (the products count exactly).
    # First the rows' sets of candidates:
    T = tight.astype(float)
    inter = T.T @ T
    count = inter.diagonal()
    # S_j beats S_i when it contains S_i and is larger, or equal and earlier
    rank = count * count.size - np.arange(count.size)
    beaten = (inter == count[:, None]) & (rank > rank[:, None])
    facets = (count > 0) & ~np.logical_or.reduce(beaten, axis=1)
    # then the candidates' sets of tight facets, which need the facets
    T = T[:, facets]
    inter = T @ T.T
    count = inter.diagonal()
    inside = inter == count[:, None]
    if np.count_nonzero(inside & inside.T) > count.size:
        return None
    vertex = ~np.logical_or.reduce(inside & (count > count[:, None]), axis=1)
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

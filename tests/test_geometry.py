"""Affine hulls, convex hulls, relative interiors and minimal faces."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from mot import DiscreteMeasure, check_barycenter_face
from mot.errors import (
    AtomOutsideD,
    DimensionMismatch,
    InvalidInput,
    PointOutsidePolytope,
    SolverError,
)
from mot.geometry import (
    AffineSubspace,
    Polytope,
    _dedupe,
    _distinct_hull,
    _facet_equations,
    _first_match,
    _hull,
    _hull_frame,
    _match_point_sets,
    _minimal_face,
    affine_hull,
    convex_hull,
    halfspaces,
    in_relative_interior,
    intersect_halfspaces_with_polytope,
    minimal_face,
    relative_interiors_intersect,
)
from mot.pwl import PwlConvex, affine_component, flat_region
from mot.measures import barycenter
from mot.tolerance import GEO, INTERIOR, ROUND, SLACK, extent

SQUARE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
SEGMENT = Polytope([[0.0, 0.0], [1.0, 0.0]])


def test_affine_hull_single_point():
    sub = affine_hull([[0.0, 0.0]])
    assert sub.dim == 0
    assert np.allclose(sub.base_point, [0.0, 0.0])


def test_affine_hull_collinear():
    sub = affine_hull([[0.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert sub.dim == 1
    assert sub.contains([0.0, 5.0])
    assert not sub.contains([1.0, 0.0])


def test_affine_hull_full_rank():
    sub = affine_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert sub.dim == 2


def test_affine_hull_errors():
    with pytest.raises(InvalidInput):
        affine_hull([])
    with pytest.raises((DimensionMismatch, InvalidInput)):
        affine_hull([[0.0], [0.0, 1.0]])


def test_convex_hull_drops_midpoint():
    hull = convex_hull([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    assert hull.same_vertices(Polytope([[0.0, 0.0], [1.0, 0.0]]))


def test_convex_hull_drops_interior_point():
    hull = convex_hull(
        [[0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0], [0.5, 0.0]]
    )
    assert hull.n_vertices == 4
    assert hull.contains([0.5, 0.0])


def test_convex_hull_singleton():
    hull = convex_hull([[0.0, 0.0]])
    assert hull.n_vertices == 1
    assert hull.is_singleton()


def test_relative_interior_segment():
    assert in_relative_interior([0.5, 0.0], SEGMENT)
    assert not in_relative_interior([0.0, 0.0], SEGMENT)


def test_relative_interior_square_boundary():
    assert not in_relative_interior([0.0, 0.5], SQUARE)
    assert in_relative_interior([0.5, 0.5], SQUARE)


def test_minimal_face_interior_point():
    face = minimal_face([0.5, 0.5], SQUARE)
    assert face.same_vertices(SQUARE)


def test_minimal_face_edge_point():
    face = minimal_face([0.0, 0.5], SQUARE)
    assert face.same_vertices(Polytope([[0.0, 0.0], [0.0, 1.0]]))


def test_minimal_face_vertex():
    face = minimal_face([0.0, 0.0], SQUARE)
    assert face.same_vertices(Polytope([[0.0, 0.0]]))


def test_minimal_face_outside_raises():
    with pytest.raises(PointOutsidePolytope):
        minimal_face([2.0, 2.0], SQUARE)


def test_minimal_face_of_a_polytope_thinner_than_the_margin():
    """A 1 x 1.5e-7 rectangle: at its midline both long facets are within
    INTERIOR times its extent of x, and no vertex is on both, so the face
    is the vertex nearest to x (the first of the two equally near)."""
    thin = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5e-7], [1.0, 1.5e-7]])
    assert thin.affine_dim == 2
    face = minimal_face([0.3, 7.5e-8], thin)
    assert face.vertices.tolist() == [[0.0, 0.0]]


def test_minimal_face_of_a_point():
    point = Polytope([[1.0, 2.0]])
    assert minimal_face([1.0, 2.0], point) is point
    with pytest.raises(PointOutsidePolytope):
        minimal_face([1.0, 2.1], point)


# a triangle in the plane z = 0 of R^3
TRIANGLE_3D = Polytope([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


def test_ri_intersect_disjoint_segments():
    P = Polytope([[0.0, -1.0], [0.0, 1.0]])
    Q = Polytope([[1.0, -1.0], [1.0, 1.0]])
    assert not relative_interiors_intersect(P, Q)


def test_ri_intersect_square_and_inner_segment():
    P = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    Q = Polytope([[0.5, -1.0], [0.5, 1.0]])
    assert relative_interiors_intersect(P, Q)
    # hand-picked witness: (0.5, 0) lies in both relative interiors
    assert in_relative_interior([0.5, 0.0], P)
    assert in_relative_interior([0.5, 0.0], Q)
    # a segment crossing the triangle's interior, and an overlapping
    # triangle in the same plane
    crossing = Polytope([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0]])
    coplanar = Polytope([[0.5, 0.5, 0.0], [3.0, 0.5, 0.0], [0.5, 3.0, 0.0]])
    for Q in (crossing, coplanar):
        assert relative_interiors_intersect(TRIANGLE_3D, Q) is True
        assert relative_interiors_intersect(Q, TRIANGLE_3D) is True


def test_ri_intersect_unbounded_report_raises(stub_highs):
    """HiGHS can call a bounded LP unbounded at tight tolerances; two
    overlapping triangles then raise SolverError, not "disjoint"."""
    P = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Q = Polytope([[0.2, 0.2], [2.0, 0.0], [0.0, 2.0]])
    stub_highs("kUnbounded")
    with pytest.raises(SolverError, match="relative-interior LP not solved"):
        relative_interiors_intersect(P, Q)


def test_ri_intersect_square_and_boundary_segment():
    P = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    Q = Polytope([[0.0, -1.0], [0.0, 1.0]])
    assert not relative_interiors_intersect(P, Q)
    # a segment on the triangle's edge, and a triangle sharing one vertex
    on_edge = Polytope([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
    at_vertex = Polytope([[2.0, 0.0, 0.0], [3.0, 1.0, 1.0], [3.0, -1.0, 1.0]])
    for Q in (on_edge, at_vertex):
        assert relative_interiors_intersect(TRIANGLE_3D, Q) is False
        assert relative_interiors_intersect(Q, TRIANGLE_3D) is False


def test_ri_intersect_with_a_point():
    """A point polytope on either side asks whether it lies in the other's
    relative interior."""
    for x, inside in (([0.5, 0.5], True), ([0.0, 0.5], False), ([2.0, 2.0], False)):
        point = Polytope([x])
        assert relative_interiors_intersect(point, SQUARE) is inside
        assert relative_interiors_intersect(SQUARE, point) is inside
    assert relative_interiors_intersect(Polytope([[0.5, 0.0]]), Polytope([[0.5, 0.0]]))
    assert not relative_interiors_intersect(Polytope([[0.5, 0.0]]), Polytope([[0.6, 0.0]]))


def test_ri_intersect_rejects_another_dimension():
    point = Polytope([[0.5, 0.5]])
    for P, Q in ((SQUARE, TRIANGLE_3D), (point, TRIANGLE_3D), (SQUARE, Polytope([[0.0]]))):
        with pytest.raises(DimensionMismatch):
            relative_interiors_intersect(P, Q)


def test_intersection_with_a_point_box():
    """A point box is kept when the point satisfies the rows within the
    slack and is cut away otherwise; a row that no point of a square
    satisfies leaves nothing."""
    box = Polytope([[1.0, 2.0]])
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert intersect_halfspaces_with_polytope(G, np.array([-1.0, -3.0]), box) is box
    assert intersect_halfspaces_with_polytope(G, np.array([-0.5, -3.0]), box) is None
    empty = intersect_halfspaces_with_polytope(np.array([[1.0, 1.0]]), np.array([3.0]), SQUARE)
    assert empty is None


def _random_polytope(rng, dim, n_points=6):
    return convex_hull(rng.uniform(-2.0, 2.0, size=(n_points, dim)))


def _random_inner_point(rng, P):
    lam = rng.uniform(0.1, 1.0, size=P.n_vertices)
    lam /= lam.sum()
    return lam @ P.vertices


def test_minimal_face_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        P = _random_polytope(rng, dim)
        x = _random_inner_point(rng, P)
        face = minimal_face(x, P)
        again = minimal_face(x, face)
        assert face.same_vertices(again)


def test_minimal_face_of_vertices():
    rng = np.random.default_rng(4)
    for _ in range(10):
        P = _random_polytope(rng, int(rng.integers(1, 4)))
        for v in P.vertices:
            assert minimal_face(v, P).same_vertices(Polytope([v], minimal=True))


def test_face_monotonicity():
    """If P is contained in Q then the minimal face of x in P lies in
    the hull of the minimal face of x in Q."""
    rng = np.random.default_rng(9)
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        Q = _random_polytope(rng, dim, n_points=7)
        inner = np.array([_random_inner_point(rng, Q) for _ in range(4)])
        P = convex_hull(inner)
        x = _random_inner_point(rng, P)
        small = minimal_face(x, P)
        big = minimal_face(x, Q)
        for v in small.vertices:
            assert big.contains(v)


def test_convex_hull_minimality():
    rng = np.random.default_rng(12)
    for _ in range(10):
        P = _random_polytope(rng, 2)
        if P.n_vertices < 2:
            continue
        for i in range(P.n_vertices):
            rest = Polytope(np.delete(P.vertices, i, axis=0), minimal=True)
            assert not rest.contains(P.vertices[i])


def test_ri_iff_face_is_whole_polytope():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        P = _random_polytope(rng, dim)
        x = _random_inner_point(rng, P)
        face = minimal_face(x, P)
        assert in_relative_interior(x, P) == face.same_vertices(P)
        if P.n_vertices > 1:
            v = P.vertices[0]
            assert in_relative_interior(v, P) == minimal_face(v, P).same_vertices(P)


def test_singleton_relative_interior_is_itself():
    P = Polytope([[1.0, 2.0], [1.0, 2.0]])
    assert P.is_singleton()
    assert in_relative_interior([1.0, 2.0], P)


# ---- reference implementations -------------------------------------------
#
# The loop that _dedupe replaces, a matching by augmenting paths for
# _match_point_sets, and linear-program oracles (scipy's linprog) for membership, vertices, minimal faces and the
# max-min barycentric weight.  They share no code with mot.geometry.


def _owner_loop(pts, tol):
    owner = []
    for i in range(pts.shape[0]):
        kept = [j for j in range(i) if owner[j] == j]
        owner.append(next((j for j in kept if np.max(np.abs(pts[i] - pts[j])) <= tol), i))
    return np.array(owner)


def _dedupe_loop(pts, tol):
    owner = _owner_loop(pts, tol)
    return pts[owner == np.arange(len(pts))]


def _match_loop(a, b, tol):
    """Whether a and b pair off one to one within tol in every
    coordinate: a maximum matching by augmenting paths (Kuhn)."""
    if len(a) != len(b):
        return False
    near = [[j for j in range(len(b)) if np.max(np.abs(p - b[j])) <= tol] for p in a]
    partner = [-1] * len(b)

    def augment(i, seen):
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if partner[j] < 0 or augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(a)))


def _lp_weight(V, x):
    """max s over x = V^T l, sum l = 1, l >= s; -inf when x is not in conv V."""
    k, d = V.shape
    A_eq = np.hstack([np.vstack([V.T, np.ones(k)]), np.zeros((d + 1, 1))])
    A_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    res = linprog(
        np.append(np.zeros(k), -1.0), A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq,
        b_eq=np.append(x, 1.0), bounds=[(0, None)] * k + [(None, 1.0)], method="highs",
    )
    return -res.fun if res.status == 0 else -np.inf


def _lp_in_hull(V, x):
    return _lp_weight(V, x) > -np.inf


def _lp_vertices(pts):
    """The points that are not in the hull of the others."""
    return np.array([p for i, p in enumerate(pts) if not _lp_in_hull(np.delete(pts, i, axis=0), p)])


def _lp_face(V, x):
    """Vertices v with x = t v + (1 - t) z for some z in conv V and t > 0."""
    k, d = V.shape
    keep = []
    for i in range(k):
        A_eq = np.vstack([np.hstack([V[i][:, None], V.T]), np.ones(k + 1)])
        res = linprog(
            np.append(-1.0, np.zeros(k)), A_eq=A_eq, b_eq=np.append(x, 1.0),
            bounds=(0, None), method="highs",
        )
        if res.status == 0 and -res.fun > 1e-6:
            keep.append(i)
    return V[keep]


def _same_set(a, b, tol=1e-7):
    return len(a) == len(b) and _match_loop(np.asarray(a), np.asarray(b), tol)


def _point_sets(rng):
    """Random sets in dims 1-3, collinear and planar sets in 3-D, and
    integer grids with boundary points, duplicates and edge midpoints."""
    for t in range(15):
        d = 1 + t % 3
        yield rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 9)), d))
    for t in range(10):
        k = 1 + t % 2
        frame = np.linalg.qr(rng.normal(size=(3, 3)))[0][:k]
        yield rng.normal(size=3) + rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 8)), k)) @ frame
    for t in range(15):
        d = 1 + t % 3
        pts = rng.integers(0, 3, size=(int(rng.integers(3, 10)), d)).astype(float)
        if t % 3 == 1:
            pts = np.vstack([pts, pts[:2]])
        if t % 3 == 2:
            pts = np.vstack([pts, (pts[0] + pts[1]) / 2.0])
        yield pts


def _chained_clusters(rng):
    """Clusters of points 0.6e-9 apart along a random axis, shuffled: at
    tol 1e-9 each point's first earlier neighbour may itself be dropped,
    so the owner depends on the order of the whole chain."""
    d = int(rng.integers(1, 4))
    steps = np.zeros((int(rng.integers(2, 7)), d))
    steps[:, int(rng.integers(d))] = 0.6e-9 * np.arange(len(steps))
    starts = rng.integers(0, 3, size=(int(rng.integers(1, 4)), d)).astype(float)
    pts = (starts[:, None, :] + steps[None, :, :]).reshape(-1, d)
    return pts[rng.permutation(len(pts))]


def test_dedupe_and_matching_match_the_loops():
    rng = np.random.default_rng(30)
    for t in range(90):
        d = int(rng.integers(1, 4))
        pts = rng.integers(0, 3, size=(int(rng.integers(1, 25)), d)) * 1e-9 * rng.uniform(0.5, 1.5)
        pts = pts + rng.integers(0, 2, size=pts.shape)
        if t >= 60:
            pts = _chained_clusters(rng)
        assert np.array_equal(_first_match(pts, 1e-9), _owner_loop(pts, 1e-9))
        assert np.array_equal(_dedupe(pts, 1e-9), _dedupe_loop(pts, 1e-9))
        other = pts[rng.permutation(len(pts))] + rng.uniform(-2e-9, 2e-9, size=pts.shape)
        for tol in (1e-9, 3e-9, 1e-7):
            assert _match_point_sets(pts, other, tol) == _match_loop(pts, other, tol)


def test_geometry_against_lp_oracles():
    """Vertex sets, minimal faces at every vertex and at points inside
    random faces, and relative-interior decisions, against linprog."""
    rng = np.random.default_rng(31)
    for pts in _point_sets(rng):
        P = convex_hull(pts)
        assert _same_set(P.vertices, _lp_vertices(np.unique(pts, axis=0)))
        V = P.vertices
        for v in V:
            assert _same_set(minimal_face(v, P).vertices, [v])
            assert in_relative_interior(v, P) == (len(V) == 1)
        for _ in range(2):
            S = V[rng.choice(len(V), size=int(rng.integers(1, len(V) + 1)), replace=False)]
            lam = rng.uniform(0.05, 1.0, size=len(S))
            x = lam @ S / lam.sum()
            assert _same_set(minimal_face(x, P).vertices, _lp_face(V, x))
            assert in_relative_interior(x, P) == (_lp_weight(V, x) > 1e-6)
        assert in_relative_interior(V.mean(axis=0), P)


def _region_vertices(G, c, d):
    """Vertices of [-2, 2]^d ∩ {G y + c <= 0} by scipy's halfspace
    intersection from a Chebyshev centre; None when the region is
    thinner than 1e-6."""
    A = np.vstack([np.eye(d), -np.eye(d), G])
    b = np.concatenate([-2.0 * np.ones(2 * d), c])
    norms = np.linalg.norm(A, axis=1)
    res = linprog(
        np.append(np.zeros(d), -1.0), A_ub=np.hstack([A, norms[:, None]]), b_ub=-b,
        bounds=[(None, None)] * d + [(0, None)], method="highs",
    )
    if -res.fun < 1e-6:
        return None
    if d == 1:
        lo = max(-c / g for g, c in zip(A[:, 0], b) if g < 0)
        hi = min(-c / g for g, c in zip(A[:, 0], b) if g > 0)
        return np.array([[lo], [hi]])
    hs = HalfspaceIntersection(np.hstack([A, b[:, None]]), res.x[:d])
    return _dedupe_loop(hs.intersections, 1e-9)


def test_affine_component_against_halfspace_oracle():
    """The component is the minimal face at x of the flat region; the
    oracle takes the region's vertices from qhull's halfspace
    intersection and the face from linprog.  Integer pieces and integer
    points put x on kinks."""
    rng = np.random.default_rng(32)
    checked = 0
    for t in range(30):
        d = 1 + t % 3
        box = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=d))), minimal=True)
        if t % 2:
            g, c = rng.uniform(-2, 2, size=(5, d)), rng.uniform(-1, 1, size=5)
            x = rng.uniform(-2, 2, size=d)
        else:
            g, c = rng.integers(-2, 3, size=(5, d)) * 1.0, rng.integers(-1, 2, size=5) * 1.0
            x = rng.integers(-2, 3, size=d) * 1.0
        phi = PwlConvex(list(zip(g, c)))
        region = _region_vertices(*flat_region(phi, x), d)
        if region is None:
            continue
        checked += 1
        assert _same_set(affine_component(phi, x, box).vertices, _lp_face(region, x))
    assert checked >= 20


def _cuts_through(rng, x, k):
    """k random half-spaces g.y + c <= 0 with x strictly inside each, as
    rows [g, c]."""
    G = rng.normal(size=(k, len(x)))
    return np.column_stack([G, [-g @ x - rng.uniform(0.1, 1.0) for g in G]])


def _region_cases(rng):
    """Half-spaces g.y + c <= 0, as rows [g, c], clipped to [-2, 2]^d,
    d = 1-3: random cuts; a slice between a constraint and its opposite
    (two slices, a line, in 3-D); a constraint equal to a box facet; one
    touching the box only at a corner or, in 3-D, along an edge; and one
    cutting a corner 1e-6 deep, whose vertices lie 1e-6 inside the
    neighbouring box facets.
    Then two that the inequalities cannot resolve within their 1e-8
    slack, which qhull builds: a slab 5e-9 thick, and (in 1-D, where the
    facets of such a cluster stay well-conditioned) a cut 5e-9 past an
    end of the box, which leaves two candidates 5e-9 apart there."""
    for t in range(45):
        d = 1 + t % 3
        x = rng.uniform(-1.5, 1.5, size=d)
        cuts = _cuts_through(rng, x, int(rng.integers(1, 5)))
        yield d, cuts
        slices = []
        for g in rng.normal(size=(2 if d == 3 and t % 2 else 1, d)):
            slices += [np.append(g, -g @ x), np.append(-g, g @ x)]
        yield d, np.vstack([cuts[:1], *slices])
        e = np.eye(d)[t % d] * (-1.0) ** (t // 3)
        yield d, np.vstack([cuts, np.append(e, -2.0)])
        ones = np.ones(d)
        keep_corner = np.append(-ones, -rng.uniform(0.0, 2.0 * d))
        yield d, np.vstack([keep_corner, np.append(ones, -2.0 * d)])
        if d == 3:
            yield d, np.vstack([keep_corner, [1.0, 1.0, 0.0, -4.0]])
        yield d, np.vstack([keep_corner, np.append(ones, -(2.0 * d - 1e-6))])
    for d in (1, 2, 3):
        g = np.linspace(1.0, 2.0, d) / np.linalg.norm(np.linspace(1.0, 2.0, d))
        yield d, np.vstack([np.append(g, -0.3 - 2.5e-9), np.append(-g, 0.3 - 2.5e-9)])
    yield 1, np.array([[1.0, -(2.0 + 5e-9)]])


def _face_points(rng, V):
    """Every vertex, the centroid, and points inside random faces."""
    yield from V
    yield V.mean(axis=0)
    for _ in range(3):
        S = V[rng.choice(len(V), size=int(rng.integers(1, len(V) + 1)), replace=False)]
        lam = rng.uniform(0.05, 1.0, size=len(S))
        yield lam @ S / lam.sum()


def test_region_facets_match_qhull():
    """The region's facets, read off its inequalities, are qhull's facets
    of the same vertices (as unit normals and offsets, lifted to the
    ambient space, within 1e-9, with no extra or missing row), every
    candidate vertex is one qhull keeps, and minimal faces agree."""
    rng = np.random.default_rng(33)
    dims = set()
    for d, cuts in _region_cases(rng):
        box = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=d))), minimal=True)
        region = intersect_halfspaces_with_polytope(cuts[:, :-1], cuts[:, -1], box)
        if region is None:
            continue
        oracle = Polytope(region.vertices)
        assert np.array_equal(oracle.vertices, region.vertices)
        assert region.affine_dim == oracle.affine_dim
        dims.add((d, region.affine_dim))
        ours = np.column_stack(halfspaces(region))
        theirs = np.column_stack(halfspaces(oracle))
        assert len(ours) == len(theirs) and _match_loop(ours, theirs, 1e-9)
        for x in _face_points(rng, region.vertices):
            assert np.array_equal(minimal_face(x, region).vertices, minimal_face(x, oracle).vertices)
    assert {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)} <= dims


def test_two_vertices_far_from_the_origin_span_a_segment():
    """Four seeded rows through (or up to 1e-8 past) one point, with the
    box [-2, 2]^2, moved by 1e6: the region is two vertices 5.9e-9
    apart.  The singular values of their centred coordinates include the
    round-off of coordinates near 1e6 (about 1e-10), far above GEO times
    their extent; the frame's rank counts only those above that
    round-off, so the region is a segment.  Its facets need no qhull,
    and its minimal face at each vertex is that vertex."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.5, 1.5, size=2)
    G = rng.normal(size=(4, 2))
    c = -G @ x - rng.uniform(0.0, 1e-8, size=4) * (rng.random(4) < 0.7)
    shift = np.full(2, 1e6)
    box = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=2))) + shift, minimal=True)
    region = intersect_halfspaces_with_polytope(G, c - G @ shift, box)
    assert region.n_vertices == 2
    assert 5e-9 < np.abs(region.vertices[0] - region.vertices[1]).max() < 1e-8
    assert region.frame.dim == region.affine_dim == 1
    normals, _ = region.facets
    assert normals.shape == (2, 1)
    for v in region.vertices:
        assert np.array_equal(minimal_face(v, region).vertices, [v])


def test_enumeration_above_the_subset_limit_raises():
    """400 random rows through a point of [-2, 2]^4, with the 8 box
    facets C(408, 4) = 1.1e9 subsets: InvalidInput at once, with no
    allocation of that size (the full enumeration would need hundreds
    of GB)."""
    rng = np.random.default_rng(35)
    box = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=4))), minimal=True)
    box.frame, box.facets  # computed before the measured call
    x = rng.uniform(-2.0, 2.0, size=4)
    G = rng.normal(size=(400, 4))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InvalidInput, match="subsets"):
            intersect_halfspaces_with_polytope(G, -G @ x, box)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2**20


def test_enumeration_keeps_only_small_subset_arrays():
    """A call whose subset enumeration is too large to keep leaves
    nothing behind: 40 rows tangent to the unit ball in [-2, 2]^3 are
    C(46, 3) = 15 180 subsets, and the call peaks near 10 MB.  Calls
    with 40 different row counts in [-2, 2]^2 keep at most the 1 MB of
    the small enumerations."""
    rng = np.random.default_rng(36)
    cube = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=3))), minimal=True)
    square = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=2))), minimal=True)
    G = rng.normal(size=(40, 3))
    G /= np.linalg.norm(G, axis=1)[:, None]
    H = rng.normal(size=(40, 2))
    H /= np.linalg.norm(H, axis=1)[:, None]
    assert intersect_halfspaces_with_polytope(G[:39], -np.ones(39), cube) is not None  # warm-up
    tracemalloc.start()
    try:
        region = intersect_halfspaces_with_polytope(G, -np.ones(40), cube)
        assert region.n_vertices > 40
        del region
        after_large, peak = tracemalloc.get_traced_memory()
        for k in range(1, 41):
            intersect_halfspaces_with_polytope(H[:k], -np.ones(k), square)
        after_small = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak > 2**22
    assert after_large < 2**16
    assert after_small < 2**20 + 2**17


def test_intersection_rejects_rows_of_another_shape():
    with pytest.raises(DimensionMismatch):
        intersect_halfspaces_with_polytope(np.ones((2, 3)), np.zeros(2), SQUARE)
    with pytest.raises(DimensionMismatch):
        intersect_halfspaces_with_polytope(np.ones((2, 2)), np.zeros(3), SQUARE)


def test_intersection_rejects_rows_that_are_not_numbers():
    """A NaN in a row, or an infinite normal, is InvalidInput, not an
    empty answer; an infinite offset is a row that no point (+inf) or
    every point (-inf) satisfies, in the square [-2, 2]^2 and on the
    segment [-2, 2]."""
    square = Polytope(np.array(list(itertools.product((-2.0, 2.0), repeat=2))), minimal=True)
    for G, c in (
        ([[np.nan, 1.0]], [0.0]),
        ([[1.0, 0.0]], [np.nan]),
        ([[np.inf, 0.0]], [0.0]),
        ([[-np.inf, 0.0]], [np.inf]),
        ([[0.0, 1.0], [1.0, np.nan]], [0.0, 0.0]),
    ):
        with pytest.raises(InvalidInput, match="finite"):
            intersect_halfspaces_with_polytope(np.array(G), np.array(c), square)
    segment = Polytope([[-2.0], [2.0]], minimal=True)
    for box, g in ((square, [1.0, 0.0]), (segment, [1.0])):
        assert intersect_halfspaces_with_polytope(np.array([g]), np.array([np.inf]), box) is None
        whole = intersect_halfspaces_with_polytope(np.array([g]), np.array([-np.inf]), box)
        assert _same_set(whole.vertices, box.vertices)
    cut = intersect_halfspaces_with_polytope(np.eye(2), np.array([-np.inf, -1.0]), square)
    assert _same_set(cut.vertices, [[-2.0, -2.0], [2.0, -2.0], [-2.0, 1.0], [2.0, 1.0]])


def test_convex_hull_keeps_a_cluster_of_near_duplicate_vertices():
    """Points about 1e-9 apart at a corner 0.17 outside the hull of the
    rest: one of them must stay a vertex, and the hull contains them
    all.  A leave-one-out membership test with a 1e-9 tolerance drops
    every point of such a cluster."""
    pts = np.array([
        [-2.0, 2.0], [-2.0, -0.9994815384829892], [2.0, 2.0], [2.0, 1.333498199539],
        [-1.000510444582e-09, -1.000429949434e-09], [1.204994266188e-10, -4.396730988510e-10],
        [-9.972620108148e-10, -9.982640591431e-10], [1.888745274096e-10, -2.074085898806e-10],
    ])
    hull = convex_hull(pts)
    for p in pts:
        assert hull.contains(p)


def test_facets_merge_triangulated_duplicates():
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    cube = Polytope(corners)
    normals, offsets = cube.facets
    assert normals.shape == (6, 3)
    assert _distinct_hull(corners).facets[0].shape == (6, 3)
    G, c = halfspaces(cube)
    assert G.shape == (6, 3) and c.shape == (6,)
    assert len(halfspaces(SEGMENT)[0]) == 2
    G0, c0 = halfspaces(Polytope([[1.0, 2.0]]))
    assert G0.shape == (0, 2) and c0.shape == (0,)
    for g, off in zip(G, c):
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-12
        assert np.max(cube.vertices @ g + off) <= 1e-12


def test_affine_rank_is_relative_to_the_extent():
    """Points 1e-8 off a segment of length 1e8 are flat at GEO times the
    extent: the hull is the segment, as qhull would also find."""
    pts = [[0.0, 0.0], [1e8, 0.0], [5e7, 1e-8], [1.0, -1e-8]]
    assert affine_hull(pts).dim == 1
    hull = convex_hull(pts)
    assert hull.affine_dim == 1
    assert np.array_equal(hull.vertices, [[0.0, 0.0], [1e8, 0.0]])


def test_qhull_failure_is_a_typed_error():
    """A unit square with its centre, scaled to 1e-300: full-dimensional
    relative to its extent, but below qhull's own precision, so qhull's
    error becomes InvalidInput."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    with pytest.raises(InvalidInput, match="qhull"):
        convex_hull(1e-300 * square)


def test_segment_frame_is_built_on_first_use():
    """Two points, in dimensions 1-3, also translated by 1e6 and scaled
    by 1e-6, are a segment through ``convex_hull``, ``_distinct_hull``
    and ``Polytope(..., minimal=True)``: both points are its vertices in
    input order and its ``affine_dim`` is 1 with no frame built.  The
    frame, coordinates and facets it builds when asked, and its answers
    at seeded points on and off its line, equal those of the frame the
    rank rule builds eagerly (``_hull_frame``) from the same vertices and
    scale.  ``_hull`` gives one point or two as their own vertices, with
    no frame or coordinates."""
    rng = np.random.default_rng(19)
    for d in (1, 2, 3):
        for shift, factor in ((0.0, 1.0), (1e6, 1.0), (0.0, 1e-6)):
            for _ in range(5):
                pts = shift + factor * rng.uniform(-2.0, 2.0, size=(2, d))
                for n in (1, 2):
                    keep, frame, coords = _hull(pts[:n])
                    assert keep.tolist() == list(range(n))
                    assert frame is None and coords is None
                for build in (
                    convex_hull,
                    _distinct_hull,
                    lambda v: Polytope(v, minimal=True),
                ):
                    P = build(pts)
                    assert np.array_equal(P.vertices, pts)
                    assert P.affine_dim == 1
                    assert P._frame is None and P._coords is None and P._facets is None
                    frame, coords = _hull_frame(pts, extent(pts))
                    eager = Polytope._built(
                        pts, frame, coords, _facet_equations(coords, frame.scale)
                    )
                    assert P.scale == frame.scale
                    assert np.array_equal(P.frame.base_point, frame.base_point)
                    assert np.array_equal(P.frame.basis, frame.basis)
                    assert P.frame.dim == 1
                    assert np.array_equal(P.coords, coords)
                    for mine, theirs in zip(P.facets, eager.facets):
                        assert np.array_equal(mine, theirs)
                    t = rng.uniform(-0.5, 1.5, size=8)
                    on_line = pts[0] + t[:, None] * (pts[1] - pts[0])
                    off_line = on_line + factor * rng.normal(size=on_line.shape)
                    for x in np.vstack([pts, on_line, off_line]):
                        assert P.contains(x) == eager.contains(x)
                        assert in_relative_interior(x, P) == in_relative_interior(x, eager)


def test_a_given_frame_keeps_its_dimension():
    """Two vertices handed a frame keep its dimension: here that of a
    rank threshold far above their distance, 0."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    frame, coords = _hull_frame(pts, 1e12)
    assert frame.dim == 0
    assert Polytope._built(pts, frame, coords).affine_dim == 0
    assert Polytope._built(pts).affine_dim == 1


# ---- the geometry path in its plain numpy form ------------------------------
#
# The formulations that the vertex enumeration, the region, minimal faces,
# convex hulls and barycentre faces had before their fixed per-call cost
# was cut: reductions as ``.min``/``.max``/``.mean`` methods, ``np.all``
# and ``.any``, ``np.linalg.norm``, ``np.unique``, ``np.vstack``, the
# m-subsets from itertools on every call, two inclusion passes in the
# region and a membership test per atom.  ``_owner_loop`` stands for
# ``_first_match``.  A polytope here is a ``_Plain``, whose frame,
# coordinates and facets are built on first use, as ``Polytope``'s are.


def _extent_plain(pts):
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    side = hi - lo
    diagonal = math.sqrt(float(side @ side))
    return diagonal if diagonal > 0.0 else float(np.abs(hi).max())


def _round_off_plain(x, spread=0.0):
    return ROUND * (float(np.abs(x).max()) + spread)


def _frame_plain(pts, scale):
    base = pts.mean(axis=0)
    centered = pts - base
    rank = max(GEO * scale, _round_off_plain(base, scale))
    if pts.shape[1] == 1:
        basis = np.ones((int(np.linalg.norm(centered) > rank), 1))
    else:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[: int(np.sum(s > rank))]
    return AffineSubspace(base, basis, basis.shape[0], scale), centered @ basis.T


def _facets_plain(coords, scale):
    m = coords.shape[1]
    if m == 0:
        return np.zeros((0, 0)), np.zeros(0)
    if m == 1:
        u = coords[:, 0]
        return np.array([[1.0], [-1.0]]), np.array([-u.max(), u.min()])
    eq = ConvexHull(coords).equations
    unit = np.ones(eq.shape[1])
    unit[-1] = scale
    eq = eq[_owner_loop(eq / unit, GEO) == np.arange(len(eq))]
    return eq[:, :-1], eq[:, -1]


class _Plain:
    def __init__(self, vertices, scale=None, frame=None, coords=None, facets=None):
        self.vertices = vertices
        self.scale = _extent_plain(vertices) if scale is None else scale
        self._frame, self._coords, self._facets = frame, coords, facets

    @property
    def frame(self):
        if self._frame is None:
            self._frame = _frame_plain(self.vertices, self.scale)[0]
        return self._frame

    @property
    def coords(self):
        if self._coords is None:
            self._coords = (self.vertices - self.frame.base_point) @ self.frame.basis.T
        return self._coords

    @property
    def facets(self):
        if self._facets is None:
            self._facets = _facets_plain(self.coords, self.scale)
        return self._facets


def _hull_plain(pts, minimal=False):
    scale = _extent_plain(pts)
    pts = _dedupe_loop(pts, max(GEO * scale, math.sqrt(2.0) * _round_off_plain(pts[0], 2.0 * scale)))
    if minimal or len(pts) <= 2:
        return _Plain(pts, scale)
    frame, coords = _frame_plain(pts, scale)
    k, m = coords.shape
    if k == m + 1 or m == 0:
        keep = np.arange(m + 1)
    elif m == 1:
        keep = np.unique([coords[:, 0].argmin(), coords[:, 0].argmax()])
    else:
        keep = np.sort(ConvexHull(coords).vertices)
    return _Plain(pts[keep], scale, frame, coords[keep])


def _values_plain(P, x):
    """A u + b at x, or None off the affine hull."""
    diff = x - P.frame.base_point
    u = P.frame.basis @ diff
    residual = diff - u @ P.frame.basis
    bound = max(SLACK * max(P.frame.scale, np.linalg.norm(diff)), _round_off_plain(x))
    if np.linalg.norm(residual) > bound:
        return None
    normals, offsets = P.facets
    return normals @ u + offsets


def _contains_plain(P, x):
    if len(P.vertices) == 1:
        return bool(np.max(np.abs(P.vertices[0] - x)) <= GEO * P.scale)
    values = _values_plain(P, x)
    tol = max(GEO * P.scale, _round_off_plain(x))
    return values is not None and bool(np.all(values <= tol))


def _minimal_face_plain(x, P):
    if len(P.vertices) == 1:
        if not _contains_plain(P, x):
            raise PointOutsidePolytope
        return P, None
    values = _values_plain(P, x)
    if values is None or not np.all(values <= max(GEO * P.scale, _round_off_plain(x))):
        raise PointOutsidePolytope
    normals, offsets = P.facets
    margin = -INTERIOR * P.scale
    tight = values >= margin
    on = np.all(P.coords @ normals[tight].T + offsets[tight] >= margin, axis=1)
    if on.all():
        return P, None
    if not on.any():
        on[np.argmin(np.linalg.norm(P.vertices - x, axis=1))] = True
        return _Plain(P.vertices[on]), None
    return _Plain(P.vertices[on]), tight


def _inclusion_plain(sets):
    T = sets.astype(float)
    inter = T.T @ T
    count = inter.diagonal()
    return inter == count[:, None], count


def _region_plain(candidates, u, A, b, box_frame, scale):
    own = _extent_plain(candidates)
    hull, coords = _frame_plain(u, own)
    normals = A @ hull.basis.T
    offsets = A @ hull.base_point + b
    norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    tight = coords @ normals.T + offsets >= -SLACK * scale * norms
    tight &= norms > GEO
    inside, count = _inclusion_plain(tight)
    rank = count * count.size - np.arange(count.size)
    facets = (count > 0) & ~(inside & (rank > rank[:, None])).any(axis=1)
    inside, count = _inclusion_plain(tight[:, facets].T)
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
    facet_rows = (normals[facets] / unit[:, None], offsets[facets] / unit)
    return _Plain(candidates[vertex], own, frame, coords[vertex], facet_rows)


def _intersect_plain(G, c, box):
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    unit = np.where(norms > 0.0, norms, 1.0)
    G, c = G / unit[:, None], c / unit
    slack = SLACK * box.scale
    sub = box.frame
    if sub.dim == 0:
        return box if np.all(G @ box.vertices[0] + c <= slack) else None
    normals, offsets = box.facets
    n, m = normals.shape[0] + G.shape[0], sub.dim
    A = np.vstack([normals, G @ sub.basis.T])
    b = np.concatenate([offsets, G @ sub.base_point + c])
    subsets = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    M = A[subsets]
    regular = np.linalg.det(M) != 0.0
    u = np.linalg.solve(M[regular], -b[subsets[regular], None])[..., 0]
    feasible = np.max(u @ A.T + b, axis=1) <= slack
    if not feasible.any():
        return None
    u = u[feasible]
    pts = sub.base_point + np.atleast_2d(u) @ sub.basis
    kept = _owner_loop(pts, GEO * box.scale) == np.arange(pts.shape[0])
    region = _region_plain(pts[kept], u[kept], A, b, sub, box.scale)
    return region if region is not None else _hull_plain(pts[kept])


def _barycenter_face_plain(points, weights, b, D):
    for p in points:
        if not _contains_plain(D, p):
            raise AtomOutsideD
    face, tight = _minimal_face_plain(b, D)
    if face is D:
        return face, 0.0
    near = np.zeros(len(points), dtype=bool)
    if tight is not None:
        normals, offsets = D.facets
        values = (points - D.frame.base_point) @ D.frame.basis.T @ normals[tight].T + offsets[tight]
        near = np.all(values >= -GEO * face.scale, axis=1)
    outside = 0.0
    for p, w, hit in zip(points, weights, near):
        if not (hit or _contains_plain(face, p)):
            outside += float(w)
    return face, outside


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _same_polytope(P, R):
    """Vertices, scale, frame, frame coordinates and facets agree bit for
    bit, each built on first use on both sides (or failing alike)."""
    assert _bits(P.vertices) == _bits(R.vertices)
    assert _bits(P.scale) == _bits(R.scale)
    for part in ("frame", "coords", "facets"):
        try:
            mine = getattr(P, part)
        except InvalidInput:
            with pytest.raises(QhullError):
                getattr(R, part)
            return
        theirs = getattr(R, part)
        if part == "frame":
            mine = (mine.base_point, mine.basis, mine.dim, mine.scale)
            theirs = (theirs.base_point, theirs.basis, theirs.dim, theirs.scale)
        elif part == "coords":
            mine, theirs = (mine,), (theirs,)
        assert [_bits(a) for a in mine] == [_bits(a) for a in theirs]


def _same_face(x, P, R, seen):
    try:
        face, tight = _minimal_face(x, P)
    except PointOutsidePolytope:
        with pytest.raises(PointOutsidePolytope):
            _minimal_face_plain(x, R)
        seen["outside"] += 1
        return
    plain, plain_tight = _minimal_face_plain(x, R)
    assert (face is P) == (plain is R)
    assert (tight is None) == (plain_tight is None)
    if tight is not None:
        assert _bits(tight) == _bits(plain_tight)
        seen["tight"] += 1
    _same_polytope(face, plain)


def _moves(d):
    """(shift, factor) of the copies: as it is, moved by 1e6, scaled by 1e-3."""
    return ((np.zeros(d), 1.0), (np.full(d, 1e6), 1.0), (np.zeros(d), 1e-3))


def _enumeration_cases(rng):
    """(box vertices, G, c, x) in dimensions 1-4, x a point of the box
    that the rows pass through or keep (some with x on a row): cuts,
    duplicate and opposite rows, a slab between a row and its opposite
    (a flat region), a row 1e-10 turned from another, a box facet as a
    row, a row that excludes the box, a slab thinner than the slack
    (left to qhull), and boxes that are flat in their space."""
    for t in range(48):
        d = 1 + t % 4
        box = np.array(list(itertools.product((-2.0, 2.0), repeat=d)))
        if t % 8 >= 6 and d >= 2:  # a box flat in its space: the last coordinate fixed
            box = np.unique(np.column_stack([box[:, :-1], np.full(len(box), 0.5)]), axis=0)
        x = rng.uniform(-1.5, 1.5, size=d)
        if t % 8 >= 6 and d >= 2:
            x[-1] = 0.5
        k = int(rng.integers(1, 4))
        G = rng.normal(size=(k, d)) if t % 3 else rng.integers(-2, 3, size=(k, d)) * 1.0
        c = -G @ x - rng.uniform(0.0, 1.0, size=k) * (t % 4 != 1)
        kind = t % 6
        if kind == 1:  # a duplicate and an opposite row
            G, c = np.vstack([G, G[:1], -G[:1]]), np.concatenate([c, c[:1], -c[:1]])
        elif kind == 2:  # a slab, flat: a row and its opposite through x
            g = rng.normal(size=d)
            G, c = np.vstack([G, g, -g]), np.concatenate([c, [-g @ x, g @ x]])
        elif kind == 3:  # a row 1e-10 turned from the first, and offset by 3e-10
            G = np.vstack([G, G[0] + 1e-10 * rng.normal(size=d)])
            c = np.append(c, c[0] + 3e-10)
        elif kind == 4:  # a box facet
            e = np.zeros(d)
            e[t % d] = 1.0
            G, c = np.vstack([G, e]), np.append(c, -2.0)
        elif kind == 5 and t % 12 == 5:  # a row that excludes the box: empty
            G, c = np.vstack([G, G[:1]]), np.append(c, 2.0 * np.abs(G[0]).sum() + 1.0)
        elif kind == 5:  # a slab 5e-9 thick, which the rows cannot resolve: qhull
            g = rng.normal(size=d)
            g /= np.linalg.norm(g)
            G, c = np.vstack([g, -g]), np.array([-g @ x - 2.5e-9, g @ x - 2.5e-9])
        yield box, G, c, x


def _probe_points(P, x, rng):
    """Each vertex of P, x, the centroid, the middle of two vertices, a
    vertex moved 0.3 GEO and one moved out of P, and the middle of the
    vertices on each of two facets."""
    V = P.vertices
    yield from V
    yield x
    yield V.mean(axis=0)
    if len(V) > 1:
        i, j = rng.choice(len(V), size=2, replace=False)
        yield (V[i] + V[j]) / 2.0
        yield V[0] + 0.3 * GEO * P.scale * rng.choice([-1.0, 1.0], size=V.shape[1])
        yield V[0] + (V[0] - V.mean(axis=0))
    normals, offsets = P.facets
    for n, o in zip(normals[:2], offsets[:2]):
        on = np.abs(P.coords @ n + o) <= GEO * P.scale
        if on.any():
            yield V[on].mean(axis=0)


def test_geometry_path_matches_its_plain_numpy_form():
    """``intersect_halfspaces_with_polytope``, ``_minimal_face`` (face and
    tight mask), ``convex_hull`` and ``check_barycenter_face`` give the
    bits of their plain numpy forms above (vertices, scale, frame, frame
    coordinates, facets, outside mass and errors), on seeded sets in
    dimensions 1-4, each as it is, moved by 1e6 and scaled by 1e-3."""
    rng = np.random.default_rng(30)
    seen = dict.fromkeys(
        ("regions", "empty", "flat", "qhull", "tight", "outside", "hulls", "faces", "atom_outside"), 0
    )
    for box_v, G, c, x in _enumeration_cases(rng):
        d = box_v.shape[1]
        for shift, factor in _moves(d):
            V = shift + factor * box_v
            box, plain_box = Polytope(V, minimal=True), _hull_plain(V, minimal=True)
            Gm = G / factor
            cm = c - Gm @ shift
            region = intersect_halfspaces_with_polytope(Gm, cm, box)
            plain = _intersect_plain(Gm, cm, plain_box)
            _same_polytope(box, plain_box)
            if region is None:
                assert plain is None
                seen["empty"] += 1
                continue
            seen["regions"] += 1
            seen["flat"] += region.affine_dim < box.affine_dim
            seen["qhull"] += region._facets is None
            _same_polytope(region, plain)
            for p in _probe_points(plain, shift + factor * x, rng):
                _same_face(p, region, plain, seen)
    for pts in itertools.chain(_point_sets(rng), (_chained_clusters(rng) for _ in range(10))):
        for shift, factor in _moves(pts.shape[1]):
            moved = shift + factor * pts
            hull, plain = convex_hull(moved), _hull_plain(moved)
            _same_polytope(hull, plain)
            seen["hulls"] += 1
            for p in _probe_points(plain, moved[0], rng):
                _same_face(p, hull, plain, seen)
    for t in range(60):
        d = 1 + t % 4
        D_v = convex_hull(rng.uniform(-2.0, 2.0, size=(d + 1 + t % 4, d))).vertices
        S = D_v[rng.choice(len(D_v), size=1 + t % min(3, len(D_v)), replace=False)]
        lam = rng.uniform(0.0, 1.0, size=(1 + t % 4, len(S)))
        atoms = (lam / lam.sum(axis=1, keepdims=True)) @ S
        if t % 3 == 1:  # an atom 0.3 GEO off a vertex, and one at a vertex
            atoms = np.vstack([atoms, D_v[:1] + 0.3 * GEO * extent(D_v), D_v[1:2]])
        if t % 10 == 7:  # an atom out of D
            atoms = np.vstack([atoms, 2.0 * D_v[:1] - D_v.mean(axis=0)])
        w = rng.uniform(0.1, 1.0, size=len(atoms))
        for shift, factor in _moves(d):
            alpha = DiscreteMeasure(shift + factor * atoms, w)
            moved = shift + factor * D_v
            D, plain_D = Polytope(moved, minimal=True), _hull_plain(moved, minimal=True)
            try:
                report = check_barycenter_face(alpha, D)
            except AtomOutsideD:
                with pytest.raises(AtomOutsideD):
                    _barycenter_face_plain(alpha.points, alpha.weights, barycenter(alpha), plain_D)
                seen["atom_outside"] += 1
                continue
            face, outside = _barycenter_face_plain(
                alpha.points, alpha.weights, report.barycenter, plain_D
            )
            assert _bits(report.outside_mass) == _bits(outside)
            assert (report.face is D) == (face is plain_D)
            _same_polytope(report.face, face)
            seen["faces"] += 1
    assert min(seen.values()) >= 5, seen

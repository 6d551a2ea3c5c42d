"""Affine hulls, convex hulls, relative interiors and minimal faces."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from mot.errors import DimensionMismatch, InvalidInput, PointOutsidePolytope
from mot.geometry import (
    Polytope,
    _dedupe,
    _first_match,
    _match_point_sets,
    affine_hull,
    convex_hull,
    halfspaces,
    in_relative_interior,
    intersect_halfspaces_with_polytope,
    minimal_face,
    relative_interiors_intersect,
)
from mot.pwl import PwlConvex, affine_component, flat_region

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
    with pytest.raises((DimensionMismatch, ValueError)):
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
        assert relative_interiors_intersect(TRIANGLE_3D, Q)
        assert relative_interiors_intersect(Q, TRIANGLE_3D)


def test_ri_intersect_square_and_boundary_segment():
    P = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    Q = Polytope([[0.0, -1.0], [0.0, 1.0]])
    assert not relative_interiors_intersect(P, Q)
    # a segment on the triangle's edge, and a triangle sharing one vertex
    on_edge = Polytope([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
    at_vertex = Polytope([[2.0, 0.0, 0.0], [3.0, 1.0, 1.0], [3.0, -1.0, 1.0]])
    for Q in (on_edge, at_vertex):
        assert not relative_interiors_intersect(TRIANGLE_3D, Q)
        assert not relative_interiors_intersect(Q, TRIANGLE_3D)


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


def test_intersection_rejects_rows_of_another_shape():
    with pytest.raises(DimensionMismatch):
        intersect_halfspaces_with_polytope(np.ones((2, 3)), np.zeros(2), SQUARE)
    with pytest.raises(DimensionMismatch):
        intersect_halfspaces_with_polytope(np.ones((2, 2)), np.zeros(3), SQUARE)


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
    cube = Polytope(np.array(list(itertools.product((0.0, 1.0), repeat=3))))
    normals, offsets = cube.facets
    assert normals.shape == (6, 3)
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

"""Piecewise-linear convex functions and affine-behaviour components."""

from itertools import product

import numpy as np
import pytest

from conftest import random_dilation_pair, random_pwl
from mot import DiscreteMeasure, find_coupling, pairing
from mot.errors import (
    AtomOutsideD,
    DimensionMismatch,
    EmptyList,
    InvalidInput,
    PointOutsideBox,
    PointOutsidePolytope,
)
from mot.fixtures import discrete_k
from mot.geometry import (
    Polytope,
    convex_hull,
    intersect_halfspaces_with_polytope,
    minimal_face,
)
from mot.measures import potential_domain
from mot.pwl import (
    PwlConvex,
    affine_component,
    asymptotic_component,
    check_barycenter_face,
    delta,
    flat_region,
    supporting_affine,
)

ABS = PwlConvex([([1.0], 0.0), ([-1.0], 0.0)])
BOX1 = Polytope([[-2.0], [2.0]])
BOX2 = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def test_supporting_affine_unique_piece():
    b = supporting_affine(ABS, [1.0])
    assert b.gradient[0] == 1.0 and b.offset == 0.0


def test_supporting_affine_tie_break():
    b = supporting_affine(ABS, [0.0])
    assert b.gradient[0] == -1.0  # lexicographically smallest gradient


def test_supporting_affine_hinge_tie():
    n, x0 = 3.0, 0.25
    phi = PwlConvex([([0.0, 0.0], 0.0), ([-n, 1.0], n * x0)])
    b = supporting_affine(phi, [x0, 0.0])
    assert np.allclose(b.gradient, [-n, 1.0])


def test_supporting_affine_contract():
    rng = np.random.default_rng(8)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        phi = random_pwl(rng, dim)
        x = rng.uniform(-2, 2, size=dim)
        b = supporting_affine(phi, x)
        assert abs(b(x) - phi(x)) <= 1e-9
        for _ in range(10):
            y = rng.uniform(-3, 3, size=dim)
            assert b(y) <= phi(y) + 1e-9


def _sorted_rule(phi, x):
    """The supporting piece by the tuple sort the selector replaced."""
    active = phi.active_pieces(x)
    return sorted(active, key=lambda k: (tuple(phi.gradients[k]), phi.offsets[k]))[0]


def test_supporting_affine_tie_break_matches_sorted_rule():
    """Ties in the first gradient coordinate only go to the second one;
    ties in the whole gradient go to the smaller offset, here apart by
    less than the activity tolerance; equal pieces to the first."""
    phi = PwlConvex(
        [([1.0, 2.0], 0.0), ([1.0, -1.0], 0.0), ([3.0, -5.0], 0.0), ([1.0, -1.0], -5e-10)]
    )
    assert _sorted_rule(phi, [0.0, 0.0]) == 3
    b = supporting_affine(phi, [0.0, 0.0])
    assert np.array_equal(b.gradient, [1.0, -1.0]) and b.offset == -5e-10
    same = PwlConvex([([0.0, 1.0], 0.0), ([-1.0, 2.0], 0.0), ([-1.0, 2.0], 0.0)])
    assert _sorted_rule(same, [0.0, 0.0]) == 1
    b = supporting_affine(same, [0.0, 0.0])
    assert np.array_equal(b.gradient, [-1.0, 2.0]) and b.offset == 0.0
    # small integer pieces at grid points: many ties of every kind
    rng = np.random.default_rng(61)
    for t in range(400):
        dim = 1 + t % 4
        grads = rng.integers(-1, 2, size=(6, dim)).astype(float)
        offs = rng.choice([0.0, -4e-10, 4e-10, 1.0], size=6)
        phi = PwlConvex(list(zip(grads, offs)))
        x = rng.integers(-1, 2, size=dim).astype(float)
        k = _sorted_rule(phi, x)
        b = supporting_affine(phi, x)
        assert np.array_equal(b.gradient, phi.gradients[k]) and b.offset == phi.offsets[k]


def _flat_region_loop(phi, x):
    """The flat region by the per-piece loop the array code replaced."""
    b = supporting_affine(phi, x)
    out = []
    for g, c in zip(phi.gradients, phi.offsets):
        normal = g - b.gradient
        off = c - b.offset
        if np.max(np.abs(normal)) <= 1e-9 and abs(off) <= 1e-9:
            continue
        out.append((normal, off))
    return out


def test_flat_region_matches_piece_loop():
    """Bit for bit and in order, in dims 1-4, with copies of pieces moved
    by 5e-10 (dropped when they copy the supporting piece) and by 2e-9
    (kept), in the gradient, the offset or both."""
    rng = np.random.default_rng(67)
    dropped = kept = 0
    for t in range(240):
        dim = 1 + t % 4
        grads = rng.uniform(-2.0, 2.0, size=(4, dim))
        offs = rng.uniform(-1.0, 1.0, size=4)
        x = rng.uniform(-2.0, 2.0, size=dim)
        k = int(np.argmax(grads @ x + offs))
        pieces = list(zip(grads, offs))
        for step in (0.0, 5e-10, 2e-9):
            where = rng.integers(0, 3)  # gradient, offset or both
            g = grads[k] + (step if where != 1 else 0.0)
            c = offs[k] - (step if where != 0 else 0.0)
            pieces.append((g, c))
            pieces.append((grads[int(rng.integers(0, 4))] + step, offs[k] - 1.0))
        phi = PwlConvex(pieces)
        G, c = flat_region(phi, x)
        loop = _flat_region_loop(phi, x)
        assert len(G) == len(c) == len(loop)
        for g, off, (normal, r_off) in zip(G, c, loop):
            assert np.array_equal(g, normal) and off == r_off
            assert type(off) is type(r_off)
        dropped += phi.n_pieces - len(G)
        kept += len(G)
    assert dropped >= 2 * 240 and kept >= 5 * 240


def test_delta_same_piece():
    assert abs(delta(ABS, [1.0], [2.0])) <= 1e-12


def test_delta_across_kink():
    assert abs(delta(ABS, [1.0], [-1.0]) - 2.0) <= 1e-12


def test_delta_affine_function_is_zero():
    a = PwlConvex([([2.0, -1.0], 0.3)])
    rng = np.random.default_rng(13)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, size=(2, 2))
        assert abs(delta(a, x, y)) <= 1e-12


def test_delta_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        phi = random_pwl(rng, dim)
        x, y = rng.uniform(-3, 3, size=(2, dim))
        assert delta(phi, x, y) >= -1e-12


def test_flat_region_abs_negative_side():
    G, c = flat_region(ABS, [-1.0])
    assert len(G) == 1
    # {t <= 0} up to scaling
    assert G[0, 0] > 0 and abs(c[0]) <= 1e-12


def test_flat_region_trough():
    phi = PwlConvex([([0.0], 0.0), ([1.0], -1.0), ([-1.0], -1.0)])
    G, c = flat_region(phi, [0.0])
    ts = np.linspace(-2.0, 2.0, 81)
    inside = np.array(
        [all(g[0] * t + off <= 1e-9 for g, off in zip(G, c)) for t in ts]
    )
    assert np.array_equal(inside, (ts >= -1.0) & (ts <= 1.0))


def _half_disk_pwl():
    """Max of tangent planes of the distance to the lower half disk
    {a^2 + b^2 <= 1, b <= 0}, sampled on a grid outside the set."""
    pieces = [([0.0, 0.0], 0.0)]  # zero on the set itself
    for a in np.linspace(-2.0, 2.0, 9):
        for b in np.linspace(-2.5, 2.0, 10):
            p = np.array([a, b])
            if p[1] <= 0 and p @ p <= 1.0:
                continue
            if p[1] <= 0:
                proj = p / np.linalg.norm(p)
            elif abs(p[0]) <= 1.0:
                proj = np.array([p[0], 0.0])
            else:
                proj = np.array([np.sign(p[0]), 0.0])
            d = np.linalg.norm(p - proj)
            if d <= 1e-9:
                continue
            g = (p - proj) / d
            pieces.append((g, float(d - g @ p)))
    return PwlConvex(pieces)


def test_flat_region_half_disk_grid_oracle():
    """The H-representation of the flat region matches brute-force grid
    evaluation of phi - b, and contains the downward ray from (0,-2)."""
    phi = _half_disk_pwl()
    x = np.array([0.0, -2.0])
    b = supporting_affine(phi, x)
    G, c = flat_region(phi, x)
    for t in (0.0, 0.5, 1.0):
        p = np.array([0.0, -2.0 - t])
        assert all(g @ p + off <= 1e-9 for g, off in zip(G, c))
    rng = np.random.default_rng(19)
    for _ in range(200):
        p = rng.uniform(-2.5, 2.5, size=2)
        in_h = all(g @ p + off <= 1e-9 for g, off in zip(G, c))
        flat = abs(phi(p) - b(p)) <= 1e-9
        assert in_h == flat


def test_affine_component_strictly_convex_in_x():
    # tangents of t^2 at grid points: strictly convex in x, flat in y
    pieces = [([2.0 * t, 0.0], -t * t) for t in np.linspace(0.0, 1.0, 11)]
    phi = PwlConvex(pieces)
    x0 = 0.25  # kink between the tangents at 0.2 and 0.3
    face = affine_component(phi, [x0, 0.0], BOX2)
    assert face.same_vertices(Polytope([[x0, -1.0], [x0, 1.0]]), tol=1e-9)


def test_affine_component_trough_in_y():
    phi = PwlConvex([([0.0, 0.0], 0.0), ([0.0, 1.0], -1.0), ([0.0, -1.0], -1.0)])
    box = Polytope([[0.0, -2.0], [0.0, 2.0], [1.0, -2.0], [1.0, 2.0]])
    face = affine_component(phi, [0.5, 0.0], box)
    expected = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    assert face.same_vertices(expected, tol=1e-9)


def test_affine_component_hinge_is_boundary_segment():
    """For a single hinge the component at a kink point is the kink line
    inside the box, not a singleton; the collapse to a point is a
    sequence phenomenon handled by asymptotic_component."""
    n, x0 = 4.0, 0.25
    phi = PwlConvex([([0.0, 0.0], 0.0), ([-n, 1.0], n * x0)])
    face = affine_component(phi, [x0, 0.0], BOX2)
    assert face.affine_dim == 1
    for v in face.vertices:
        assert abs(v[1] - n * (v[0] - x0)) <= 1e-9


def test_affine_component_outside_box():
    with pytest.raises(PointOutsideBox):
        affine_component(ABS, [5.0], BOX1)
    with pytest.raises(DimensionMismatch):
        affine_component(ABS, [0.5], BOX2)


def test_asymptotic_component_constant_list():
    rng = np.random.default_rng(37)
    for _ in range(10):
        phi = random_pwl(rng, 1, n_pieces=4)
        x = rng.uniform(-1.5, 1.5, size=1)
        const = asymptotic_component([phi, phi, phi], x, BOX1, tol=1e-9)
        direct = affine_component(phi, x, BOX1)
        assert const.same_vertices(direct, tol=1e-6)


def test_asymptotic_component_affine_list():
    phis = [PwlConvex([([0.5, -0.3], 0.1)]), PwlConvex([([1.0, 0.0], 0.0)])]
    face = asymptotic_component(phis, [0.5, 0.0], BOX2, tol=1e-9)
    assert face.same_vertices(BOX2, tol=1e-9)


def test_asymptotic_component_hinge_shrinks():
    x0 = 0.25
    tol = 1e-3
    phis = [
        PwlConvex([([0.0, 0.0], 0.0), ([-float(n), 1.0], n * x0)])
        for n in range(1, 21)
    ]
    comp = asymptotic_component(phis, [x0, 0.0], BOX2, tol=tol)
    xs = comp.vertices[:, 0]
    # slab oracle: |y - n(x - x0)| <= tol for n in the last half forces
    # |x - x0| <= 2 tol / (n_max - n_min)
    bound = 2 * tol / (20 - 11)
    assert xs.max() - xs.min() <= 2 * bound + 1e-9
    assert comp.contains([x0, 0.0])


def test_asymptotic_component_errors():
    with pytest.raises(EmptyList):
        asymptotic_component([], [0.0], BOX1)
    with pytest.raises(DimensionMismatch):
        asymptotic_component([ABS], [0.0, 0.0], BOX2)
    # a tol that is negative, NaN or not a number is no tolerance: a
    # negative one used to exclude x itself and trip an assertion
    three = PwlConvex([([1.0, 0.0], 0.0), ([-1.0, 0.0], 0.0), ([0.0, 1.0], -1.0)])
    for tol in (-1e-3, -1.0, float("nan"), "abc"):
        with pytest.raises(InvalidInput, match="tol"):
            asymptotic_component([three], [0.5, 0.0], BOX2, tol=tol)
    assert asymptotic_component([three], [0.5, 0.0], BOX2, tol=0.0).affine_dim == 2


@pytest.mark.parametrize("box", [[[0.0], [1.0]], [[-1.0], [1.0]]])
def test_component_of_a_point_outside_its_flat_region_raises(box):
    """Both pieces are active at 0 within GEO in phi's units, but the
    second row, scaled to a unit normal, excludes 0 by 0.25: on [0, 1]
    the (near-)flat region is empty, on [-1, 1] it is [-1, -0.25].
    Either way x is not in it, which raises PointOutsidePolytope (an
    empty region used to trip an assertion)."""
    phi = PwlConvex([([0.0], 0.0), ([2e-9], 5e-10)])
    box = Polytope(box)
    with pytest.raises(PointOutsidePolytope):
        affine_component(phi, [0.0], box)
    with pytest.raises(PointOutsidePolytope):
        asymptotic_component([phi], [0.0], box, tol=0.0)


def test_asymptotic_component_above_the_subset_limit_raises():
    """Five functions of 12 symmetric pieces in 4-D, all active at 0: the
    last three give 3 x 132 near-flat rows, with the box's 8 facets
    C(404, 4) = 1.1e9 subsets, which raise InvalidInput."""
    rng = np.random.default_rng(37)
    box = Polytope(np.array(list(product((-2.0, 2.0), repeat=4))), minimal=True)
    phis = []
    for _ in range(5):
        g = rng.normal(size=(6, 4))
        phis.append(PwlConvex([(v, 0.0) for v in np.vstack([g, -g])]))
    with pytest.raises(InvalidInput, match="404 inequalities"):
        asymptotic_component(phis, np.zeros(4), box)


def test_support_function_independence():
    """The component of t+ at 0 is {0} no matter which supporting piece
    defines the flat region."""
    relu = PwlConvex([([0.0], 0.0), ([1.0], 0.0)])
    face = affine_component(relu, [0.0], BOX1)
    assert face.same_vertices(Polytope([[0.0]]), tol=1e-9)
    # force the other selector by hand: flat region of the slope-1 piece
    other = intersect_halfspaces_with_polytope(np.array([[-1.0]]), np.array([0.0]), BOX1)
    assert minimal_face(np.array([0.0]), other).same_vertices(
        Polytope([[0.0]]), tol=1e-9
    )


def test_component_partition_over_grid():
    rng = np.random.default_rng(43)
    phi = random_pwl(rng, 2, n_pieces=4, scale=1.5)
    box = Polytope([[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]])
    faces = []
    for a in np.linspace(-1.8, 1.8, 7):
        for b in np.linspace(-1.8, 1.8, 7):
            faces.append(affine_component(phi, [a, b], box))
    from mot.geometry import relative_interiors_intersect

    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            same = faces[i].same_vertices(faces[j], tol=1e-7)
            if not same:
                assert not relative_interiors_intersect(faces[i], faces[j])


def test_transport_functional_identity():
    rng = np.random.default_rng(47)
    mu, nu = discrete_k(3)
    c = find_coupling(mu, nu)
    for _ in range(10):
        phi = random_pwl(rng, 2)
        total = sum(
            c.matrix[i, j] * delta(phi, mu.points[i], nu.points[j])
            for i in range(mu.n_atoms)
            for j in range(nu.n_atoms)
        )
        assert abs(total - pairing(mu, nu, phi)) <= 1e-8


def test_zero_pairing_flatness():
    """A convex phi with <nu - mu, phi> = 0 must be affine across every
    non-singleton 1-D component."""
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    phi = PwlConvex([([0.0], 0.0), ([1.0], -1.0), ([-1.0], -1.0)])
    assert abs(pairing(mu, nu, phi)) <= 1e-9
    (a, b), = potential_domain(mu, nu)
    m = 0.5 * (a + b)
    for y in (a, b, 0.0):
        assert delta(phi, [m], [y]) <= 1e-8
    # contrast: |t| pairs positively and is not flat across the cell
    assert pairing(mu, nu, ABS) > 1e-3


def test_check_barycenter_face_edge_measure():
    D = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    alpha = DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5])
    report = check_barycenter_face(alpha, D)
    assert np.allclose(report.barycenter, [0.0, 0.0])
    assert report.face.same_vertices(Polytope([[0.0, -1.0], [0.0, 1.0]]), tol=1e-9)
    assert report.outside_mass <= 1e-12


def test_check_barycenter_face_vertex_mass():
    D = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    alpha = DiscreteMeasure([[1.0, 0.0]], [1.0])
    report = check_barycenter_face(alpha, D)
    assert report.face.same_vertices(Polytope([[1.0, 0.0]]), tol=1e-9)
    assert report.outside_mass <= 1e-12


def test_check_barycenter_face_uniform_on_vertices():
    D = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    alpha = DiscreteMeasure(D.vertices, [0.25] * 4)
    report = check_barycenter_face(alpha, D)
    assert report.face.same_vertices(D, tol=1e-9)
    assert report.outside_mass <= 1e-12


def test_check_barycenter_face_rejects_outside_atom():
    D = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    alpha = DiscreteMeasure([[2.0, 2.0]], [1.0])
    with pytest.raises(AtomOutsideD):
        check_barycenter_face(alpha, D)


def _off_face(D, F, p, delta):
    """p moved toward D's vertex mean until it is delta from aff(F)."""
    to_centre = D.vertices.mean(axis=0) - p
    if F.n_vertices > 1:
        V = F.vertices - F.vertices.mean(axis=0)
        _, sv, vt = np.linalg.svd(V, full_matrices=False)
        span = vt[sv > 1e-9]
        perp = to_centre - (to_centre @ span.T) @ span
    else:
        perp = to_centre
    return p + delta * to_centre / np.linalg.norm(perp)


def _face_cases(rng):
    """(alpha, D, band) in dims 1-3 built as in criterion 5: atoms on the
    face of D spanned by random vertices, and copies of some moved 1e-10,
    5e-9, 1e-8 and 1e-7 times D's extent off it.  ``band`` holds the
    atoms 5e-9 and 1e-8 times that off a face of dimension one or more,
    which face.contains' affine tolerance of 1e-8 times the larger of the
    face's extent and the distance to its centre takes or rejects, while
    D's tight facets, at GEO times the face's extent, mostly reject them.
    Also a D of one vertex, a barycentre inside D, and a triangle 5e-8
    thin."""
    for t in range(60):
        d = 1 + t % 3
        D = convex_hull(rng.uniform(-2.0, 2.0, size=(d + 1 + t % (6 - d), d)))
        D = Polytope(D.vertices, minimal=True)
        S = D.vertices[rng.choice(D.n_vertices, size=1 + t % min(3, D.n_vertices), replace=False)]
        lam = rng.uniform(0.0, 1.0, size=(2 + t % 4, len(S)))
        atoms = list((lam / lam.sum(axis=1, keepdims=True)) @ S)
        F = minimal_face(np.mean(atoms, axis=0), D)
        band = []
        if F.n_vertices < D.n_vertices:
            deltas = (1e-10, 5e-9, 1e-8, 1e-7)
            moved = [_off_face(D, F, p, delta * D.scale) for p, delta in zip(atoms, deltas)]
            band = moved[1:3] if F.n_vertices > 1 else []
            atoms += moved
        yield DiscreteMeasure(atoms, rng.uniform(0.1, 1.0, size=len(atoms))), D, band
    yield DiscreteMeasure([[1.0, 2.0]], [1.0]), Polytope([[1.0, 2.0]]), []
    square = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    yield DiscreteMeasure([[0.5, 0.5], [0.0, 0.2], [1e-8, 1e-8]], [1.0, 2.0, 3.0]), square, []
    thin = Polytope([[0.0, 0.0], [1.0, 0.0], [0.5, 5e-8]])
    yield DiscreteMeasure([[0.5, 2e-8], [0.9, 1e-9], [0.3, 0.0]], [1.0, 1.0, 1.0]), thin, []


def test_barycenter_face_membership_matches_face_contains():
    """Each atom is on the face exactly when the face's own polytope
    contains it, also 1e-8 off a face of dimension one or more, and the
    outside mass is summed in atom order as before."""
    rng = np.random.default_rng(57)
    outside = band_on = band_off = 0
    for alpha, D, band in _face_cases(rng):
        report = check_barycenter_face(alpha, D)
        face = Polytope(report.face.vertices)
        expected = 0.0
        for p, w in zip(alpha.points, alpha.weights):
            on = face.contains(p)
            if not on:
                expected += float(w)
                outside += 1
            if any(np.array_equal(p, q) for q in band):
                band_on += on
                band_off += not on
        assert report.outside_mass == expected
    assert outside >= 40
    assert band_on >= 10 and band_off >= 1


def test_check_barycenter_face_mass_scaling():
    """Scaling alpha's weights by 1e-6 or 1e6 keeps the face and scales
    the outside mass by the same factor."""
    rng = np.random.default_rng(57)
    for alpha, D, _ in _face_cases(rng):
        report = check_barycenter_face(alpha, D)
        for factor in (1e-6, 1e6):
            scaled = check_barycenter_face(
                DiscreteMeasure(alpha.points, alpha.weights * factor), D
            )
            assert np.array_equal(scaled.face.vertices, report.face.vertices)
            assert scaled.outside_mass == pytest.approx(report.outside_mass * factor, rel=1e-12)


def test_check_barycenter_face_rejects_dimension_mismatch():
    triangle = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        check_barycenter_face(DiscreteMeasure([[0.2], [0.4]], [1.0, 1.0]), triangle)
    simplex = Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        check_barycenter_face(DiscreteMeasure([[0.1, 0.1]], [1.0]), simplex)


def test_pwl_json_round_trip():
    rng = np.random.default_rng(53)
    phi = random_pwl(rng, 3)
    again = PwlConvex.from_json(phi.to_json())
    assert np.array_equal(phi.gradients, again.gradients)
    assert np.array_equal(phi.offsets, again.offsets)


def test_batch_evaluation_matches_points():
    """phi on a (k, d) batch gives, row by row, its values at the points
    (to round-off: the batch is one matrix product)."""
    rng = np.random.default_rng(59)
    for d in (1, 2, 3):
        phi = random_pwl(rng, d)
        ys = rng.uniform(-2.0, 2.0, size=(7, d))
        values = phi(ys)
        assert values.shape == (7,)
        assert np.allclose(values, [phi(y) for y in ys], rtol=1e-15, atol=1e-15)
        # a point or a row of another dimension is a typed error, as in active_pieces
        for other in (np.ones(d + 1), np.ones((1, d + 1))):
            with pytest.raises(DimensionMismatch):
                phi(other)


def test_lipschitz_constant():
    phi = PwlConvex([([3.0, 4.0], 0.0), ([1.0, 0.0], 2.0)])
    assert abs(phi.lipschitz - 5.0) <= 1e-12

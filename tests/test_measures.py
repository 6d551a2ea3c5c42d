"""Discrete measures, convex order and one-dimensional potentials."""

from itertools import permutations

import numpy as np
import pytest

from conftest import random_dilation_pair, random_pwl
from mot import (
    DiscreteMeasure,
    barycenter,
    check_convex_order,
    compute_paving,
    find_coupling,
    pairing,
)
from mot.errors import DimensionMismatch, InvalidInput, MassMismatch, NotInConvexOrder
from mot.fixtures import discrete_k
from mot.geometry import as_point, as_points
from mot import measures
from mot.measures import potential, potential_domain
from mot.pwl import PwlConvex
from mot.tolerance import GEO, extent

TOL = 1e-9


def m1d(pts, w):
    return DiscreteMeasure([[p] for p in pts], w)


def test_barycenter_symmetric_pair():
    m = DiscreteMeasure([[0.0, -1.0], [0.0, 1.0]], [0.5, 0.5])
    assert np.allclose(barycenter(m), [0.0, 0.0])


def test_barycenter_point_mass():
    m = DiscreteMeasure([[3.0, 4.0]], [1.0])
    assert np.allclose(barycenter(m), [3.0, 4.0])


def test_barycenter_example_nu2():
    _, nu = discrete_k(2)
    assert np.allclose(barycenter(nu), [0.5, 0.0], atol=TOL)


def test_duplicate_atoms_merge():
    m = DiscreteMeasure([[1.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
    assert m.n_atoms == 2
    assert m.equals(m1d([1.0, 2.0], [0.5, 0.5]))


def _merge_reference(points, weights):
    """The first-match merge as a plain loop over the kept atoms, at GEO
    times the extent of the points: a kept atom that absorbed others
    moves by the weighted mean of their offsets from it, and the loop
    repeats until nothing merges."""
    points, weights = np.asarray(points, dtype=float), np.asarray(weights, dtype=float)
    while True:
        tol = GEO * extent(points)
        kept_pts, kept_w, kept_off = [], [], []
        for p, wi in zip(points, weights):
            for idx, q in enumerate(kept_pts):
                if np.max(np.abs(p - q)) <= tol:
                    kept_w[idx] += wi
                    kept_off[idx] = kept_off[idx] + wi * (p - q)
                    break
            else:
                kept_pts.append(p)
                kept_w.append(wi)
                kept_off.append(np.zeros_like(p))
        if len(kept_pts) == len(points):
            return points, weights
        points = np.array([q + off / wk for q, off, wk in zip(kept_pts, kept_off, kept_w)])
        weights = np.array(kept_w)


def test_near_duplicate_atoms_merge_like_the_loop():
    """Chains of near-duplicates: each atom joins the first kept atom
    within GEO times the extent of the atoms (tol), even where a later
    kept atom is nearer; an atom within tol of a merged atom only is
    kept.  A kept atom that absorbed others sits at their weighted mean,
    and atoms that this brings within tol of each other merge in turn.
    The same holds for the set scaled by 1e-9."""
    rng = np.random.default_rng(5)
    base = rng.uniform(-1.0, 1.0, size=(40, 2))
    tol = GEO * extent(np.vstack([base, [[9.0, 0.0]]]))
    pts = np.vstack([base, base[::3] + 0.6 * tol, base[::4] - 0.6 * tol, base[::5] + 1.2 * tol])
    pts = np.vstack([pts, [[9.0, 0.0], [9.0 + 0.8 * tol, 0.0], [9.0 + 1.6 * tol, 0.0]]])
    w = rng.uniform(0.1, 1.0, size=pts.shape[0])
    order = rng.permutation(pts.shape[0])
    for p, wi in ((pts, w), (pts[order], w[order]), (1e-9 * pts, w)):
        m = DiscreteMeasure(p, wi)
        ref_pts, ref_w = _merge_reference(p, wi)
        assert np.array_equal(m.points, ref_pts)
        assert np.array_equal(m.weights, ref_w)
        assert np.allclose(barycenter(m), wi @ p / wi.sum(), rtol=0, atol=1e-15)
    chain = DiscreteMeasure([[0.0], [8e-10], [1.6e-9], [1.0]], [0.25, 0.25, 0.25, 0.25])
    assert np.array_equal(chain.points[:, 0], [4e-10, 1.6e-9, 1.0])
    assert np.array_equal(chain.weights, [0.5, 0.25, 0.25])
    alone = DiscreteMeasure([[0.0], [8e-10], [1.6e-9]], [0.25, 0.25, 0.5])
    assert alone.n_atoms == 3


def _equals_loop(a, b, tol):
    """``equals`` by brute force: some one-to-one pairing of the atoms
    puts each pair within tol in every coordinate and in weight."""
    if a.ambient_dim != b.ambient_dim or a.n_atoms != b.n_atoms:
        return False
    near = [
        [np.max(np.abs(p - q)) <= tol and abs(w - v) <= tol for q, v in zip(b.points, b.weights)]
        for p, w in zip(a.points, a.weights)
    ]
    return any(all(near[i][j] for i, j in enumerate(perm)) for perm in permutations(range(b.n_atoms)))


def _equals_cases(rng, tol):
    """(a, b, expected or None) in dims 1-3: reordered atoms, every atom
    moved by 0.5 tol, one atom or one weight moved by 2 tol, one atom
    fewer, another dimension, and a chain of atoms 0.6 tol apart moved by
    0.5 tol, both shuffled, which pair off one to one although a
    first-unused match can fail on them (atoms merge only within GEO
    times their extent, so the chain's stay apart)."""
    for t in range(60):
        dim = 1 + t % 3
        n = int(rng.integers(1, 7))
        pts = rng.uniform(-2.0, 2.0, size=(n, dim))
        w = rng.uniform(0.1, 1.0, size=n)
        a = DiscreteMeasure(pts, w)
        order = rng.permutation(n)
        yield a, DiscreteMeasure(pts[order], w[order]), True
        moved = pts + 0.5 * tol * rng.choice([-1.0, 1.0], size=pts.shape)
        yield a, DiscreteMeasure(moved[order], w[order]), True
        k = int(rng.integers(n))
        far = pts.copy()
        far[k, int(rng.integers(dim))] += 2 * tol
        yield a, DiscreteMeasure(far[order], w[order]), False
        heavy = w.copy()
        heavy[k] += 2 * tol
        yield a, DiscreteMeasure(pts[order], heavy[order]), False
        if n > 1:
            yield a, DiscreteMeasure(pts[order[1:]], w[order[1:]]), False
        yield a, DiscreteMeasure(np.hstack([pts, pts[:, :1]]), w), False
        chain = np.zeros((n, dim))
        chain[:, 0] = 0.6 * tol * np.arange(n)
        shifted = chain + 0.5 * tol
        cw = np.full(n, 1.0 / n)
        chained = DiscreteMeasure(chain[rng.permutation(n)], cw)
        yield chained, DiscreteMeasure(shifted[order], cw), True


def test_equals_matches_the_loop():
    """``equals`` agrees with a brute-force matching, at two tolerances,
    and calls equal chains equal."""
    rng = np.random.default_rng(73)
    for tol in (TOL, 1e-6):
        for a, b, expected in _equals_cases(rng, tol):
            got = a.equals(b, tol=tol)
            assert got == _equals_loop(a, b, tol)
            assert got == expected


def test_nonpositive_weights_rejected():
    with pytest.raises(InvalidInput):
        DiscreteMeasure([[0.0]], [0.0])
    with pytest.raises(InvalidInput):
        DiscreteMeasure([[0.0]], [-1.0])


def test_input_that_is_not_numbers_is_invalid():
    """Ragged, nested or non-numeric points, weights and PWL pieces
    raise InvalidInput, from the constructors, from the point checks and
    from PWL JSON; so do a weight count other than one per point, an
    infinite weight, a NaN coordinate, no PWL piece at all and a PWL
    ``dim`` that its gradients contradict."""
    cases = [
        lambda: DiscreteMeasure([[0.0]], ["heavy"]),
        lambda: DiscreteMeasure([[0.0], [1.0]], [1.0]),
        lambda: DiscreteMeasure([[0.0]], [np.inf]),
        lambda: as_point([np.nan, 1.0]),
        lambda: PwlConvex([]),
        lambda: PwlConvex.from_json({"dim": 2, "pieces": [{"gradient": [1.0], "offset": 0.0}]}),
        lambda: DiscreteMeasure([[0.0, 1.0], [0.0]], [0.5, 0.5]),
        lambda: DiscreteMeasure([[[0.0]]], [1.0]),
        lambda: DiscreteMeasure([["a"]], [1.0]),
        lambda: as_points([[0.0], [0.0, 1.0]]),
        lambda: as_point(["a", 1.0]),
        lambda: PwlConvex([(["a"], 0.0)]),
        lambda: PwlConvex([([1.0], "x")]),
        lambda: PwlConvex([([[1.0]], 0.0)]),
        lambda: PwlConvex([([1.0], 0.0), ([1.0, 2.0], 0.0)]),
        lambda: PwlConvex([1.0]),
        lambda: PwlConvex([([1.0], 0.0, 2)]),
        lambda: PwlConvex.from_json({"dim": "x", "pieces": [{"gradient": [1.0], "offset": 0.0}]}),
    ]
    for case in cases:
        with pytest.raises(InvalidInput):
            case()


def test_dimension_mismatch_is_typed():
    """Points of the wrong dimension for the check, measures of two
    dimensions, and a function of another dimension than its measures
    raise DimensionMismatch.  Measures of two dimensions get one message
    in either order, whether the 1-D potentials or the coupling would
    answer."""
    line = m1d([-1.0, 1.0], [0.5, 0.5])
    plane = DiscreteMeasure([[0.0, 0.0]], [1.0])
    space = DiscreteMeasure([[0.0, 0.0, 0.0]], [1.0])
    cases = [
        lambda: as_point([0.0, 1.0], dim=3),
        lambda: as_points([[0.0, 1.0]], dim=3),
        lambda: pairing(line, plane, PwlConvex([([1.0], 0.0)])),
        lambda: pairing(line, line, PwlConvex([([1.0, 0.0], 0.0)])),
        lambda: find_coupling(plane, space),
    ]
    for case in cases:
        with pytest.raises(DimensionMismatch):
            case()
    for f in (check_convex_order, potential_domain):
        for mu, nu in ((line, plane), (plane, line)):
            with pytest.raises(DimensionMismatch, match="measures live in different dimensions"):
                f(mu, nu)
    with pytest.raises(DimensionMismatch, match="potential domain is one-dimensional"):
        potential_domain(plane, plane)


def test_convex_order_split_atom():
    mu = m1d([0.0], [1.0])
    nu = m1d([-1.0, 1.0], [0.5, 0.5])
    assert check_convex_order(mu, nu)


def test_convex_order_reversed_pair():
    mu = m1d([-1.0, 1.0], [0.5, 0.5])
    nu = m1d([0.0], [1.0])
    assert not check_convex_order(mu, nu)


def test_convex_order_discrete_k2():
    mu, nu = discrete_k(2)
    assert check_convex_order(mu, nu)


def test_convex_order_errors():
    with pytest.raises(MassMismatch):
        check_convex_order(m1d([0.0], [1.0]), m1d([0.0], [2.0]))
    with pytest.raises(DimensionMismatch):
        check_convex_order(m1d([0.0], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]))


def test_potential_point_mass_is_abs():
    u = potential(m1d([0.0], [1.0]))
    for x in (-2.0, -0.5, 0.0, 0.3, 4.0):
        assert abs(u(x) - abs(x)) <= TOL


def test_potential_two_atoms():
    u = potential(m1d([-1.0, 1.0], [0.5, 0.5]))
    assert abs(u(0.0) - 1.0) <= TOL
    assert abs(u(1.0) - 1.0) <= TOL
    assert abs(u(-1.0) - 1.0) <= TOL
    assert abs(u(2.0) - 2.0) <= TOL
    assert abs(u(-2.0) - 2.0) <= TOL


def test_potential_homogeneous_in_mass():
    u = potential(m1d([0.0], [2.0]))
    for x in (-1.0, 0.5, 3.0):
        assert abs(u(x) - 2.0 * abs(x)) <= TOL


def test_potential_matches_the_loop():
    """The potential's values, one array expression, against a dot
    product per breakpoint, to the round-off of a sum of n terms."""
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        m = m1d(rng.uniform(-3, 3, size=n), rng.uniform(0.1, 1.0, size=n))
        u = potential(m)
        xs = m.points[:, 0]
        ref = np.array([float(m.weights @ np.abs(b - xs)) for b in u.breakpoints])
        assert np.all(np.abs(u.values - ref) <= 2 * n * np.finfo(float).eps * ref)


def test_gap_matches_the_potentials():
    """The gap u_nu - u_mu at the breakpoints, summed directly, against
    the difference of the two potentials interpolated there, to the
    round-off of sums of n + m terms of mass times extent."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        mu, nu = random_dilation_pair(rng, dim=1, max_atoms=6)
        bps, vals, _ = measures._potential_domain(mu, nu)
        ref = potential(nu)(bps) - potential(mu)(bps)
        size = 4 * (mu.n_atoms + nu.n_atoms) * np.finfo(float).eps
        assert np.all(np.abs(vals - ref) <= size * mu.total_mass * extent(mu.points, nu.points))


def test_potential_requires_dim_one():
    with pytest.raises(DimensionMismatch):
        potential(DiscreteMeasure([[0.0, 0.0]], [1.0]))


def test_potential_slopes_nondecreasing():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = m1d(rng.uniform(-3, 3, size=n), rng.uniform(0.1, 1.0, size=n))
        slopes = potential(m).slopes
        assert np.all(np.diff(slopes) >= -TOL)
        assert abs(slopes[0] + m.total_mass) <= TOL
        assert abs(slopes[-1] - m.total_mass) <= TOL


def test_potential_domain_split_atom():
    mu = m1d([0.0], [1.0])
    nu = m1d([-1.0, 1.0], [0.5, 0.5])
    intervals = potential_domain(mu, nu)
    assert len(intervals) == 1
    a, b = intervals[0]
    assert abs(a + 1.0) <= TOL and abs(b - 1.0) <= TOL


def test_potential_domain_identical_measures():
    mu = m1d([0.0], [1.0])
    assert potential_domain(mu, mu) == []


def _grid_domain_oracle(mu, nu, lo=-5.0, hi=5.0, n=200001):
    """Brute-force oracle: sign of u_nu - u_mu on a fine grid."""
    xs = np.linspace(lo, hi, n)
    mu_y, mu_w = mu.points[:, 0], mu.weights
    nu_y, nu_w = nu.points[:, 0], nu.weights
    diff = np.abs(xs[:, None] - nu_y) @ nu_w - np.abs(xs[:, None] - mu_y) @ mu_w
    pos = diff > 1e-12
    intervals = []
    start = None
    for i, p in enumerate(pos):
        if p and start is None:
            start = xs[i]
        elif not p and start is not None:
            intervals.append((start, xs[i - 1]))
            start = None
    if start is not None:
        intervals.append((start, xs[-1]))
    return intervals


def test_potential_domain_two_components():
    mu = m1d([-2.0, 2.0], [0.5, 0.5])
    nu = m1d([-3.0, -1.0, 1.0, 3.0], [0.25, 0.25, 0.25, 0.25])
    intervals = potential_domain(mu, nu)
    assert len(intervals) == 2
    assert abs(intervals[0][0] + 3.0) <= TOL and abs(intervals[0][1] + 1.0) <= TOL
    assert abs(intervals[1][0] - 1.0) <= TOL and abs(intervals[1][1] - 3.0) <= TOL
    # grid oracle agrees up to the grid pitch
    oracle = _grid_domain_oracle(mu, nu)
    assert len(oracle) == 2
    pitch = 10.0 / 200000 * 2
    for got, exp in zip(intervals, oracle):
        assert abs(got[0] - exp[0]) <= pitch
        assert abs(got[1] - exp[1]) <= pitch


def test_potential_domain_rejects_unordered_pair():
    mu = m1d([-1.0, 1.0], [0.5, 0.5])
    nu = m1d([0.0], [1.0])
    with pytest.raises(NotInConvexOrder):
        potential_domain(mu, nu)


def _order_perturbations(mu, nu):
    """(mu, nu) and three variants that break convex order unless nu is
    degenerate: one nu-atom shifted (a mean mismatch), nu's outer atoms
    moved inward with its mean kept (a tail cut), and mu and nu swapped."""
    y, w = nu.points[:, 0], nu.weights
    shifted = y.copy()
    shifted[0] += 0.1
    cut = y.copy()
    lo, hi = y.argmin(), y.argmax()
    centre = barycenter(nu)[0]
    # equal first-moment changes at both ends keep the mean
    moment = 0.25 * min(w[lo] * (centre - y[lo]), w[hi] * (y[hi] - centre))
    cut[lo] += moment / w[lo]
    cut[hi] -= moment / w[hi]
    return [
        (mu, nu),
        (mu, m1d(shifted, w)),
        (mu, m1d(cut, w)),
        (nu, mu),
    ]


def test_potential_domain_decides_order_like_the_lp(random_instances):
    """The potentials raise NotInConvexOrder, and check_convex_order says
    False, exactly when the coupling LP finds no martingale coupling, on
    the 1-D random instances and their perturbations."""
    decided = {True: 0, False: 0}
    for mu, nu, _, _ in random_instances:
        if mu.ambient_dim != 1:
            continue
        for a, b in _order_perturbations(mu, nu):
            ordered = _decides_in_order(lambda: find_coupling(a, b))
            assert check_convex_order(a, b) == ordered
            decided[ordered] += 1
            if ordered:
                potential_domain(a, b)
            else:
                with pytest.raises(NotInConvexOrder):
                    potential_domain(a, b)
    assert decided[True] >= 34 and decided[False] >= 34


def _decides_in_order(call):
    try:
        call()
    except NotInConvexOrder:
        return False
    return True


def test_order_answers_agree_at_the_tolerance_edge():
    """nu's mean is 5e-10 off mu's, more than the coupling LP holds its
    barycentre rows to: all four ways of asking call the pair not in
    convex order."""
    mu = m1d([0.0], [1.0])
    nu = m1d([-1.0, 1.0 + 1e-9], [0.5, 0.5])
    answers = {
        "check_convex_order": check_convex_order(mu, nu),
        "find_coupling": _decides_in_order(lambda: find_coupling(mu, nu)),
        "potential_domain": _decides_in_order(lambda: potential_domain(mu, nu)),
        "compute_paving": _decides_in_order(lambda: compute_paving(mu, nu)),
    }
    assert len(set(answers.values())) == 1, answers


def test_potential_domain_errors():
    with pytest.raises(MassMismatch):
        potential_domain(m1d([0.0], [1.0]), m1d([-1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        potential_domain(m1d([0.0], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]))


def test_pairing_identical_measures():
    rng = np.random.default_rng(1)
    m = m1d([0.0, 1.0], [0.5, 0.5])
    for _ in range(5):
        phi = random_pwl(rng, 1)
        assert abs(pairing(m, m, phi)) <= TOL


def test_pairing_abs_on_split():
    mu = m1d([0.0], [1.0])
    nu = m1d([-1.0, 1.0], [0.5, 0.5])
    phi = PwlConvex([([1.0], 0.0), ([-1.0], 0.0)])
    assert abs(pairing(mu, nu, phi) - 1.0) <= TOL


def test_pairing_affine_vanishes():
    rng = np.random.default_rng(6)
    for _ in range(10):
        mu, nu = random_dilation_pair(rng, dim=2)
        a = PwlConvex([(rng.uniform(-1, 1, size=2), float(rng.uniform(-1, 1)))])
        assert abs(pairing(mu, nu, a)) <= 1e-8


def test_pairing_nonnegative_under_convex_order():
    rng = np.random.default_rng(17)
    count = 0
    while count < 200:
        mu, nu = random_dilation_pair(rng, dim=int(rng.integers(1, 4)))
        assert check_convex_order(mu, nu)
        for _ in range(10):
            phi = random_pwl(rng, mu.ambient_dim)
            assert pairing(mu, nu, phi) >= -TOL
            count += 1


def test_one_dimensional_order_criterion():
    """check_convex_order agrees with the potential criterion: u_nu >=
    u_mu at every support point, for equal-mass equal-barycenter pairs."""
    rng = np.random.default_rng(23)
    for trial in range(40):
        if trial % 2 == 0:
            mu, nu = random_dilation_pair(rng, dim=1)
        else:
            # swapping a dilation pair usually breaks the order
            nu, mu = random_dilation_pair(rng, dim=1)
        u_mu, u_nu = potential(mu), potential(nu)
        pts = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
        ok_oracle = bool(np.all(u_nu(pts) - u_mu(pts) >= -TOL))
        assert check_convex_order(mu, nu) == ok_oracle


def _quadratic_pwl(points):
    """Max of tangent planes of |y|^2 at the given points; exact there."""
    pieces = [(2.0 * p, -float(p @ p)) for p in points]
    return PwlConvex(pieces)


def test_strict_convexity_rigidity():
    rng = np.random.default_rng(29)
    for trial in range(20):
        mu, nu = random_dilation_pair(rng, dim=int(rng.integers(1, 3)))
        phi_q = _quadratic_pwl(np.vstack([mu.points, nu.points]))
        gap = pairing(mu, nu, phi_q)
        if gap <= TOL:
            assert mu.equals(nu)
        if mu.equals(nu):
            assert gap <= TOL


def test_json_round_trip():
    m = DiscreteMeasure([[0.1, -2.0], [1.0 / 3.0, 0.7]], [0.25, 0.75])
    again = DiscreteMeasure.from_json(m.to_json())
    assert np.array_equal(m.points, again.points)
    assert np.array_equal(m.weights, again.weights)

"""Martingale couplings, disintegration and polar-pair detection."""

from itertools import combinations

import numpy as np
import pytest

from conftest import random_dilation_pair
from mot import DiscreteMeasure, barycenter, compute_paving, find_coupling
from mot.coupling import (
    EPS_POLAR,
    Coupling,
    build_martingale_lp,
    build_transport_lp,
    disintegrate,
    max_mass_on_pair,
    max_support_coupling,
    min_mass_on_pair,
    nonpolar_mask,
    polar_matrix,
    reachable_set,
)
from mot.errors import NotInConvexOrder, SolverError
from mot.fixtures import discrete_k, gaussian_grid, mixed_k
from mot.geometry import convex_hull, in_relative_interior, minimal_face
from mot.measures import check_convex_order
from mot import lp

TOL = 1e-7


def m1d(pts, w):
    return DiscreteMeasure([[p] for p in pts], w)


def _atom_index(m, point):
    hits = np.flatnonzero(np.max(np.abs(m.points - np.asarray(point)), axis=1) <= 1e-9)
    assert hits.size == 1
    return int(hits[0])


def test_lp_shape_point_masses():
    mu = m1d([0.0], [1.0])
    prog = build_martingale_lp(mu, mu)
    assert prog.constraint_matrix.shape == (3, 1)  # row + col + martingale


def test_lp_shape_discrete_k2():
    mu, nu = discrete_k(2)
    prog = build_martingale_lp(mu, nu)
    assert prog.constraint_matrix.shape == (10, 8)  # 2 + 4 + 2*2 rows


def test_lp_split_feasible():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5])
    prog = build_martingale_lp(mu, nu)
    assert prog.constraint_matrix.shape[1] == 2
    assert lp.feasible(prog)
    c = find_coupling(mu, nu)
    assert np.allclose(c.matrix, [[0.5, 0.5]], atol=TOL)


def test_find_coupling_discrete_k2_unique_values():
    mu, nu = discrete_k(2)
    c = find_coupling(mu, nu)
    expected = np.zeros((2, 4))
    for i, x in enumerate(mu.points):
        for j, y in enumerate(nu.points):
            if abs(x[0] - y[0]) <= 1e-12:
                expected[i, j] = 0.25
    assert np.allclose(c.matrix, expected, atol=TOL)
    assert c.martingale_defect() <= 1e-8


def test_find_coupling_not_in_order():
    with pytest.raises(NotInConvexOrder):
        find_coupling(m1d([-1.0, 1.0], [0.5, 0.5]), m1d([0.0], [1.0]))


def test_find_coupling_identical_measures_feasible():
    rng = np.random.default_rng(2)
    m = DiscreteMeasure(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(0.1, 1, size=4))
    c = find_coupling(m, m)
    assert np.allclose(c.row_marginals(), m.weights, atol=1e-8)
    assert np.allclose(c.col_marginals(), m.weights, atol=1e-8)
    assert c.martingale_defect() <= 1e-8


def test_max_mass_examples():
    mu, nu = discrete_k(2)
    i = _atom_index(mu, [0.0, 0.0])
    j_same = _atom_index(nu, [0.0, 1.0])
    j_cross = _atom_index(nu, [1.0, 1.0])
    assert abs(max_mass_on_pair(mu, nu, i, j_same) - 0.25) <= TOL
    assert max_mass_on_pair(mu, nu, i, j_cross) <= EPS_POLAR
    point = m1d([0.0], [1.0])
    assert abs(max_mass_on_pair(point, point, 0, 0) - 1.0) <= TOL


def test_uniqueness_certificate_discrete_k():
    """max = min entrywise confirms the coupling polytope is a point."""
    for k in (2, 3):
        mu, nu = discrete_k(k)
        for i in range(mu.n_atoms):
            for j in range(nu.n_atoms):
                hi = max_mass_on_pair(mu, nu, i, j)
                lo = min_mass_on_pair(mu, nu, i, j)
                assert abs(hi - lo) <= TOL


def test_reachable_set_discrete_k2():
    mu, nu = discrete_k(2)
    i = _atom_index(mu, [0.0, 0.0])
    pts = reachable_set(mu, nu, i)
    expected = {(0.0, 1.0), (0.0, -1.0), (0.0, 0.0)}
    assert {tuple(np.round(p, 9)) for p in pts} == expected


def test_reachable_set_mixed_k3_center():
    mu, nu = mixed_k(3)
    i = _atom_index(mu, [0.5, 0.0])
    pts = reachable_set(mu, nu, i)
    assert pts.shape[0] == nu.n_atoms + 1  # all 6 nu-atoms plus the center


def test_reachable_set_point_mass():
    point = m1d([0.0], [1.0])
    pts = reachable_set(point, point, 0)
    assert pts.shape == (1, 1)
    assert abs(pts[0, 0]) <= 1e-12


def test_disintegrate_discrete_k2():
    mu, nu = discrete_k(2)
    kernel = disintegrate(find_coupling(mu, nu))
    i = _atom_index(mu, [0.0, 0.0])
    gamma = kernel.conditionals[i]
    expected = DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5])
    assert gamma.equals(expected, tol=1e-7)


def test_disintegrate_identity():
    m = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    c = Coupling(m.points, m.points, np.diag(m.weights))
    kernel = disintegrate(c)
    for i, gamma in enumerate(kernel.conditionals):
        assert gamma.n_atoms == 1
        assert np.allclose(gamma.points[0], m.points[i])


def test_disintegrate_mixed_k3_supplied_coupling():
    """The explicit kernel spreading the center atom over all of nu."""
    k = 3
    mu, nu = mixed_k(k)
    matrix = np.zeros((mu.n_atoms, nu.n_atoms))
    for i, (x, w) in enumerate(zip(mu.points, mu.weights)):
        if abs(x[0] - 0.5) <= 1e-12:
            for j, y in enumerate(nu.points):
                gamma_j = (k / (k + 1)) * nu.weights[j] / nu.total_mass
                if abs(y[0] - 0.5) <= 1e-12:
                    gamma_j += 1.0 / (2 * (k + 1))
                matrix[i, j] = w * gamma_j
        else:
            for j, y in enumerate(nu.points):
                if abs(y[0] - x[0]) <= 1e-12:
                    matrix[i, j] = w / 2.0
    c = Coupling(mu.points, nu.points, matrix)
    assert np.allclose(c.row_marginals(), mu.weights, atol=1e-9)
    assert np.allclose(c.col_marginals(), nu.weights, atol=1e-9)
    assert c.martingale_defect() <= 1e-9
    kernel = disintegrate(c)
    i = _atom_index(mu, [0.5, 0.0])
    gamma = kernel.conditionals[i]
    j = _atom_index(nu, [0.5, 1.0])
    expected_w = (k / (k + 1)) * nu.weights[j] / nu.total_mass + 1.0 / (2 * (k + 1))
    got = gamma.weights[np.flatnonzero(np.max(np.abs(gamma.points - [0.5, 1.0]), axis=1) <= 1e-9)]
    assert abs(float(got[0]) - expected_w) <= 1e-9


def test_coupling_invariants_random_instances(random_instances):
    for mu, nu, _, c in random_instances[:30]:
        assert np.allclose(c.row_marginals(), mu.weights, atol=1e-8)
        assert np.allclose(c.col_marginals(), nu.weights, atol=1e-8)
        assert c.martingale_defect() <= 1e-8


def test_kernel_barycenter_property(random_instances):
    for mu, nu, _, c in random_instances[:20]:
        kernel = disintegrate(c)
        for i, gamma in enumerate(kernel.conditionals):
            assert np.max(np.abs(barycenter(gamma) - mu.points[i])) <= 1e-8


def test_polar_symmetry_with_barycenter_face():
    """gamma(x_i, .) concentrates on the minimal face of the reachable
    hull at x_i, since its barycenter is x_i."""
    rng = np.random.default_rng(41)
    for _ in range(5):
        mu, nu = random_dilation_pair(rng, dim=2)
        mask = nonpolar_mask(mu, nu)
        kernel = disintegrate(find_coupling(mu, nu))
        for i in range(mu.n_atoms):
            pts = [nu.points[j] for j in range(nu.n_atoms) if mask[i, j]]
            pts.append(mu.points[i])
            face = minimal_face(mu.points[i], convex_hull(np.array(pts)))
            gamma = kernel.conditionals[i]
            outside = sum(
                w for p, w in zip(gamma.points, gamma.weights) if not face.contains(p)
            )
            assert outside <= EPS_POLAR


def test_kellerer_contrast_k2():
    """Without the martingale rows no support pair is polar; with them
    only the same-column pairs survive."""
    mu, nu = discrete_k(2)
    plain = polar_matrix(mu, nu, martingale=False)
    assert np.all(plain >= 1.0 / 8.0 - TOL)
    mask = nonpolar_mask(mu, nu)
    same_col = np.abs(mu.points[:, None, 0] - nu.points[None, :, 0]) <= 1e-12
    assert np.array_equal(mask, same_col)
    assert mask.sum() == 4


def _bruteforce_polytope_max(A, b, objective, tol=1e-9):
    """Max of a linear objective over {x >= 0 : A x = b} by enumerating
    basic feasible solutions (supports of size <= rank)."""
    m, n = A.shape
    r = int(np.linalg.matrix_rank(A, tol=1e-10))
    best = -np.inf
    for cols in combinations(range(n), r):
        sub = A[:, cols]
        x_s, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.max(np.abs(sub @ x_s - b)) > 1e-8 or np.min(x_s) < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(x_s, 0.0)
        best = max(best, float(objective @ x))
    return best


def test_identity_forced_on_three_points_oracle():
    """mu = nu uniform on {-1,0,1}: brute force over the vertices of the
    coupling polytope shows every off-diagonal pair is polar."""
    m = m1d([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    prog = build_martingale_lp(m, m)
    A, b = prog.constraint_matrix, prog.rhs
    for i in range(3):
        for j in range(3):
            obj = np.zeros(9)
            obj[i * 3 + j] = 1.0
            oracle = _bruteforce_polytope_max(A, b, obj)
            got = max_mass_on_pair(m, m, i, j)
            assert abs(got - oracle) <= TOL
            if i != j:
                assert got <= EPS_POLAR


def test_transport_lp_has_no_martingale_rows():
    mu, nu = discrete_k(2)
    prog = build_transport_lp(mu, nu)
    assert prog.constraint_matrix.shape == (6, 8)


def test_coupling_json_round_trip():
    mu, nu = discrete_k(2)
    c = find_coupling(mu, nu)
    again = Coupling.from_json(c.to_json())
    assert np.array_equal(c.matrix, again.matrix)
    assert np.array_equal(c.mu_support, again.mu_support)


def _assert_martingale_coupling(mu, nu, matrix, tol=1e-8):
    assert np.allclose(matrix.sum(axis=1), mu.weights, atol=tol, rtol=0)
    assert np.allclose(matrix.sum(axis=0), nu.weights, atol=tol, rtol=0)
    drift = np.einsum("ij,ijk->ik", matrix, nu.points[None, :, :] - mu.points[:, None, :])
    assert np.max(np.abs(drift)) <= tol


def test_nonpolar_mask_matches_pair_oracle():
    """The one max-support LP marks exactly the pairs whose own LP
    gives them mass."""
    rng = np.random.default_rng(9)
    for trial in range(24):
        mu, nu = random_dilation_pair(rng, dim=1 + trial % 3, max_atoms=5)
        oracle = polar_matrix(mu, nu) > EPS_POLAR
        assert np.array_equal(nonpolar_mask(mu, nu), oracle)


def test_max_support_certificate_is_coupling_on_the_mask(random_instances):
    for mu, nu, _, _ in random_instances[:40]:
        mask, cert = max_support_coupling(mu, nu)
        _assert_martingale_coupling(mu, nu, cert.matrix)
        assert np.all(cert.matrix[mask] > EPS_POLAR)
        assert np.all(np.abs(cert.matrix[~mask]) <= 1e-12)


def test_max_support_on_gaussian_grid_9():
    """Masses down to 5e-12: every pair is charged by some coupling (one
    full-dimensional component), and the certificate shows it."""
    mu, nu = gaussian_grid(9)
    mask, cert = max_support_coupling(mu, nu)
    assert mask.all()
    _assert_martingale_coupling(mu, nu, cert.matrix)
    assert np.all(cert.matrix > 0.0)


@pytest.mark.parametrize(
    "status", ["kUnknown", "kIterationLimit", "kOptimal", "kUnboundedOrInfeasible"]
)
def test_solver_without_answer_raises_solver_error(stub_highs, status):
    """Stopped or undecided solves, and an optimum without a point."""
    mu, nu = discrete_k(2)
    stub_highs(status)
    for call in (find_coupling, nonpolar_mask, check_convex_order):
        with pytest.raises(SolverError, match="coupling LP not solved"):
            call(mu, nu)


def test_infeasible_status_means_not_in_convex_order(stub_highs):
    mu, nu = discrete_k(2)
    for status in ("kInfeasible", "kModelError"):
        stub_highs(status)
        with pytest.raises(NotInConvexOrder):
            find_coupling(mu, nu)
        assert check_convex_order(mu, nu) is False


def test_find_coupling_rejects_uncertified_solution(stub_highs):
    """A solution with a negative entry or a marginal residual is an
    error, not something to clip."""
    mu, nu = discrete_k(2)
    good = find_coupling(mu, nu).matrix.ravel()
    negative = good.copy()
    negative[[0, 1]] += [-1e-3, 1e-3]  # same row sum, one entry < 0
    off_marginal = good * (1.0 + 1e-6)
    for x in (negative, off_marginal):
        stub_highs("kOptimal", x)
        with pytest.raises(SolverError, match="certificate"):
            find_coupling(mu, nu)


def test_find_coupling_certificate_gaussian_grid_9():
    mu, nu = gaussian_grid(9)
    c = find_coupling(mu, nu)
    _assert_martingale_coupling(mu, nu, c.matrix)
    assert c.matrix.min() >= 0.0


def _pool2_d3_n6_5():
    """A 3-D dilation pair on which an earlier solver returned a coupling
    with entries down to -5.7e-3 and, after clipping, a wrong paving."""
    mu = DiscreteMeasure(
        [
            [-1.6280153436894083, -0.6064863328756496, 1.2562671368857554],
            [-1.3588317574676778, 2.623864950623937, -1.4553533778390104],
            [0.5931478854186132, 0.8688677496276349, -1.4710532026353018],
            [1.8076311247703423, 0.22810133376218422, -0.0006356972842245234],
            [-0.618699956626044, 1.5730047591754115, 0.884573809162164],
            [0.3896703176011762, -1.9611104644129953, -2.236713370383695],
        ],
        [
            0.2405353348928294, 0.20505658489323164, 0.13138176340353755,
            0.17533970737315183, 0.17781622495852425, 0.06987038447872529,
        ],
    )
    nu = DiscreteMeasure(
        [
            [-1.3498607938076286, -1.3048409975239208, 1.365808068578038],
            [-1.9510915325104026, 0.20465180452249898, 1.1290354710867063],
            [-1.1230117366775376, 2.4254624644268996, -1.8018855879319298],
            [-2.2606085902351922, 3.382556960812436, -0.13021262930344135],
            [1.3028520677339535, 2.089822966565484, -2.766834863654174],
            [0.28128639101895525, 0.33234996089617375, -0.9016548317497513],
            [1.8076311247703423, 0.22810133376218422, -0.0006356972842245234],
            [-0.2361810880866449, 1.6966498856382015, 1.231198099828378],
            [-1.636823953728508, 1.2439070839229047, -0.038012074387638206],
            [1.2101324131579134, -3.0415767001026004, -3.218919027723906],
            [-0.14452554545640872, -1.2576281263445515, -1.5972076556597752],
        ],
        [
            0.12925360310357387, 0.11128173178925554, 0.16254904106393056,
            0.042507543829301095, 0.040107957819847884, 0.09127380558368967,
            0.17533970737315183, 0.12925419473113164, 0.04856203022739261,
            0.02755268966710762, 0.042317694811617665,
        ],
    )
    return mu, nu


def test_regression_negative_coupling_instance():
    mu, nu = _pool2_d3_n6_5()
    c = find_coupling(mu, nu)
    assert c.matrix.min() >= 0.0
    _assert_martingale_coupling(mu, nu, c.matrix)
    p = compute_paving(mu, nu)
    assert sorted(p.singletons + [i for cell in p.cells for i in cell.members]) == list(
        range(mu.n_atoms)
    )
    for cell in p.cells:
        for i in cell.members:
            assert in_relative_interior(mu.points[i], cell.hull)

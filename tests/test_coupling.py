"""Martingale couplings, disintegration and polar-pair detection."""

from itertools import combinations

import numpy as np
import pytest
from scipy.sparse import csc_array

from conftest import random_dilation_pair
from mot import DiscreteMeasure, barycenter, compute_paving, find_coupling
from mot import coupling
from mot.coupling import (
    Coupling,
    _certify,
    _constraint_system,
    max_mass_on_pair,
    max_support_coupling,
    min_mass_on_pair,
    nonpolar_mask,
    polar_matrix,
    reachable_set,
)
from mot.errors import InvalidInput, NotInConvexOrder, SolverError
from mot.fixtures import continuous_grid, discrete_k, gaussian_grid, mixed_k
from mot.geometry import convex_hull, in_relative_interior, minimal_face
from mot.measures import _scaled, check_convex_order
from mot import lp
from mot.tolerance import POLAR

TOL = 1e-7


def m1d(pts, w):
    return DiscreteMeasure([[p] for p in pts], w)


def _atom_index(m, point):
    hits = np.flatnonzero(np.max(np.abs(m.points - np.asarray(point)), axis=1) <= 1e-9)
    assert hits.size == 1
    return int(hits[0])


def test_lp_shape_point_masses():
    mu = m1d([0.0], [1.0])
    A, b, _ = _constraint_system(mu, mu)
    assert A.shape == (3, 1)  # row + col + martingale
    assert b.shape == (3,)


def test_lp_shape_discrete_k2():
    mu, nu = discrete_k(2)
    A, b, _ = _constraint_system(mu, nu)
    assert A.shape == (10, 8)  # 2 + 4 + 2*2 rows
    assert b.shape == (10,)


def test_lp_split_feasible():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
    nu = DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5])
    A, b, _ = _constraint_system(mu, nu)
    assert A.shape[1] == 2
    assert lp.highs(np.zeros(2), A, b, b).status is lp.LpStatus.OPTIMAL
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
    # equal barycentres: the max-support LP over every pair finds no pair
    mu, nu = discrete_k(2)
    with pytest.raises(NotInConvexOrder):
        max_support_coupling(nu, mu)


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
    assert max_mass_on_pair(mu, nu, i, j_cross) <= POLAR
    point = m1d([0.0], [1.0])
    assert abs(max_mass_on_pair(point, point, 0, 0) - 1.0) <= TOL


def test_masses_have_no_negative_zero():
    """Pairs that carry no mass read +0.0, not the LP's signed zero, in
    ``polar_matrix`` and in the extreme masses of each pair."""
    mu, nu = discrete_k(2)
    M = polar_matrix(mu, nu)
    assert np.count_nonzero(M == 0.0) == 4
    assert not np.signbit(M).any()
    for i in range(mu.n_atoms):
        for j in range(nu.n_atoms):
            assert not np.signbit(max_mass_on_pair(mu, nu, i, j))
            assert not np.signbit(min_mass_on_pair(mu, nu, i, j))


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


def _disintegrate(c: Coupling, i: int) -> DiscreteMeasure:
    """The disintegration gamma(x_i, .) of a coupling: row i of its
    matrix over the row's mass, on the nu-atoms the row charges."""
    row = c.matrix[i]
    keep = row > 0
    return DiscreteMeasure(c.nu_support[keep], row[keep] / row.sum())


def test_disintegrate_discrete_k2():
    mu, nu = discrete_k(2)
    c = find_coupling(mu, nu)
    i = _atom_index(mu, [0.0, 0.0])
    gamma = _disintegrate(c, i)
    expected = DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5])
    assert gamma.equals(expected, tol=1e-7)


def test_disintegrate_identity():
    m = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    c = Coupling(m.points, m.points, np.diag(m.weights))
    for i in range(m.n_atoms):
        gamma = _disintegrate(c, i)
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
    i = _atom_index(mu, [0.5, 0.0])
    gamma = _disintegrate(c, i)
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
    """Each row's conditional law has barycentre x_i and charges only
    nu-atoms in the closure of x_i's cell (x_i itself, for a singleton)."""
    for mu, nu, p, c in random_instances[:20]:
        hull_of = {i: cell.hull for cell in p.cells for i in cell.members}
        for i in range(mu.n_atoms):
            gamma = _disintegrate(c, i)
            assert np.max(np.abs(barycenter(gamma) - mu.points[i])) <= 1e-8
            hull = hull_of.get(i)
            for y, w in zip(gamma.points, gamma.weights):
                if w > POLAR:
                    assert hull.contains(y) if hull else np.allclose(y, mu.points[i])


def test_polar_symmetry_with_barycenter_face():
    """gamma(x_i, .) concentrates on the minimal face of the reachable
    hull at x_i, since its barycenter is x_i."""
    rng = np.random.default_rng(41)
    for _ in range(5):
        mu, nu = random_dilation_pair(rng, dim=2)
        mask = nonpolar_mask(mu, nu)
        c = find_coupling(mu, nu)
        for i in range(mu.n_atoms):
            pts = [nu.points[j] for j in range(nu.n_atoms) if mask[i, j]]
            pts.append(mu.points[i])
            face = minimal_face(mu.points[i], convex_hull(np.array(pts)))
            gamma = _disintegrate(c, i)
            outside = sum(
                w for p, w in zip(gamma.points, gamma.weights) if not face.contains(p)
            )
            assert outside <= POLAR


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
    S, b, _ = _constraint_system(m, m)
    A = csc_array((S.data, S.indices, S.indptr), shape=S.shape).toarray()
    for i in range(3):
        for j in range(3):
            obj = np.zeros(9)
            obj[i * 3 + j] = 1.0
            oracle = _bruteforce_polytope_max(A, b, obj)
            got = max_mass_on_pair(m, m, i, j)
            assert abs(got - oracle) <= TOL
            if i != j:
                assert got <= POLAR


def test_transport_lp_has_no_martingale_rows():
    mu, nu = discrete_k(2)
    A, b, _ = _constraint_system(mu, nu, martingale=False)
    assert A.shape == (6, 8)
    assert b.shape == (6,)


def test_coupling_json_round_trip():
    mu, nu = discrete_k(2)
    c = find_coupling(mu, nu)
    again = Coupling.from_json(c.to_json())
    assert np.array_equal(c.matrix, again.matrix)
    assert np.array_equal(c.mu_support, again.mu_support)


@pytest.mark.parametrize(
    "mu_support, nu_support, matrix",
    [
        # supports of two dimensions: the defect would broadcast
        ([[0.0]], [[-1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5]]),
        ([[0.0, 0.0]], [[-1.0], [1.0]], [[0.5, 0.5]]),
        # flat lists, not lists of points
        ([0.0], [-1.0, 1.0], [[0.5, 0.5]]),
        ([[0.0]], [-1.0, 1.0], [[0.5, 0.5]]),
        # a point that is not finite
        ([[0.0]], [[-1.0], [float("inf")]], [[0.5, 0.5]]),
        # a matrix of another shape than the supports
        ([[0.0]], [[-1.0], [1.0]], [[0.5], [0.5]]),
    ],
)
def test_coupling_json_rejects_supports_that_are_not_point_lists_of_one_dimension(
    mu_support, nu_support, matrix
):
    with pytest.raises(InvalidInput):
        Coupling.from_json({"mu_support": mu_support, "nu_support": nu_support, "matrix": matrix})


@pytest.mark.parametrize("key", ["mu_support", "nu_support", "matrix"])
def test_coupling_json_without_a_key_is_invalid(key):
    data = find_coupling(*discrete_k(2)).to_json()
    del data[key]
    with pytest.raises(InvalidInput, match="malformed coupling JSON"):
        Coupling.from_json(data)


@pytest.mark.parametrize("damage", ["nan-row", "negative", "infinite"])
def test_coupling_json_rejects_entries_that_are_not_masses(damage):
    """discrete_k(2)'s coupling with a row of NaN, an entry of -5 or an
    infinite entry is no coupling."""
    c = find_coupling(*discrete_k(2))
    matrix = c.matrix.copy()
    if damage == "nan-row":
        matrix[0] = np.nan
    elif damage == "negative":
        matrix[1, 0] = -5.0
    else:
        matrix[0, 0] = np.inf
    data = dict(c.to_json(), matrix=matrix.tolist())
    with pytest.raises(InvalidInput, match="finite and nonnegative"):
        Coupling.from_json(data)


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
        oracle = polar_matrix(mu, nu) > POLAR
        assert np.array_equal(nonpolar_mask(mu, nu), oracle)


def test_max_support_certificate_is_coupling_on_the_mask(random_instances):
    for mu, nu, _, _ in random_instances[:40]:
        mask, cert = max_support_coupling(mu, nu)
        _assert_martingale_coupling(mu, nu, cert.matrix)
        assert np.all(cert.matrix[mask] > POLAR)
        assert np.all(np.abs(cert.matrix[~mask]) <= 1e-12)


def test_max_support_on_gaussian_grid_9():
    """Masses down to 5e-12: every pair is charged by some coupling (one
    full-dimensional component), and the certificate shows it."""
    mu, nu = gaussian_grid(9)
    mask, cert = max_support_coupling(mu, nu)
    assert mask.all()
    _assert_martingale_coupling(mu, nu, cert.matrix)
    assert np.all(cert.matrix > 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_max_support_keeps_a_light_atom_apart(dim):
    """mu = (1-e) delta_0 + e delta_5 against nu = (1-e)/2 on two atoms
    around 0 and e on 5: with each row posed per unit of its atom's
    mass, the full max-support LP keeps the light atom's entries above
    HiGHS's drop threshold and marks only the pairs that carry mass."""
    pad = [0.0] * (dim - 1)
    side = [1.0] * (dim - 1)
    for e in (1e-9, 1e-12):
        mu = DiscreteMeasure([[0.0, *pad], [5.0, *pad]], [1.0 - e, e])
        nu = DiscreteMeasure(
            [[-1.0, *side], [1.0, *(-t for t in side)], [5.0, *pad]],
            [(1.0 - e) / 2, (1.0 - e) / 2, e],
        )
        mask, _ = max_support_coupling(mu, nu)
        assert mask.tolist() == [[True, True, False], [False, False, True]]


@pytest.mark.parametrize(
    "status", ["kUnknown", "kIterationLimit", "kOptimal", "kUnboundedOrInfeasible"]
)
def test_solver_without_answer_raises_solver_error(stub_highs, status):
    """Stopped or undecided solves, and an optimum without a point, on
    mixed_k(3), where the filter leaves nu-atoms shared and an LP runs."""
    mu, nu = mixed_k(3)
    stub_highs(status)
    for call in (find_coupling, nonpolar_mask, check_convex_order):
        with pytest.raises(SolverError, match="coupling LP not solved"):
            call(mu, nu)


def test_unbounded_status_raises_solver_error(stub_highs):
    """A coupling LP that HiGHS calls unbounded has no answer to read:
    on mixed_k(3), where an LP runs, it raises SolverError."""
    mu, nu = mixed_k(3)
    stub_highs("kUnbounded")
    for call in (find_coupling, nonpolar_mask, check_convex_order):
        with pytest.raises(SolverError, match=r"coupling LP not solved: Unbounded \("):
            call(mu, nu)


@pytest.mark.parametrize("i, j", [(-1, 0), (2, 0), (0, -1), (0, 4)])
def test_pair_indices_out_of_range_raise(i, j):
    """discrete_k(2) has 2 mu-atoms and 4 nu-atoms."""
    mu, nu = discrete_k(2)
    with pytest.raises(InvalidInput, match="out of range"):
        max_mass_on_pair(mu, nu, i, j)


@pytest.mark.parametrize("i", [-1, 2])
def test_atom_index_out_of_range_raises(i):
    mu, nu = discrete_k(2)
    with pytest.raises(InvalidInput, match="out of range"):
        reachable_set(mu, nu, i)


def test_atom_index_that_is_not_an_integer_raises():
    """A float or a string index raises InvalidInput, not numpy's
    IndexError or Python's TypeError; a numpy integer is an index."""
    mu, nu = discrete_k(2)
    for call in (
        lambda: max_mass_on_pair(mu, nu, 0.5, 0),
        lambda: reachable_set(mu, nu, 1.0),
        lambda: min_mass_on_pair(mu, nu, 0, "1"),
    ):
        with pytest.raises(InvalidInput, match="not an integer"):
            call()
    i, j = np.int64(1), np.int64(2)
    assert max_mass_on_pair(mu, nu, i, j) == max_mass_on_pair(mu, nu, 1, 2)
    np.testing.assert_array_equal(reachable_set(mu, nu, i), reachable_set(mu, nu, 1))


def test_time_limit_raises_solver_error(stub_highs):
    """A solve stopped at its budget raises, from the coupling, the order
    and the paving (mixed_k(3), whose coupling the filter does not force)."""
    mu, nu = mixed_k(3)
    stub_highs("kTimeLimit")
    for call in (find_coupling, check_convex_order, compute_paving):
        with pytest.raises(SolverError, match="Time limit reached"):
            call(mu, nu)


def test_gaussian_grid_13_coupling_is_certified(monkeypatch):
    """The coupling LP over the shortlist of gaussian_grid(13)'s 38 025
    pairs, which no line forces, is solved well inside a 10 s budget,
    and the coupling passes the certificate."""
    monkeypatch.setattr(lp, "TIME_LIMIT", 10.0)
    mu, nu = gaussian_grid(13)
    s = _scaled(mu, nu)
    _certify(s, find_coupling(mu, nu).matrix / s.mass)


def test_budget_stops_a_long_solve(monkeypatch):
    """The LP of the largest mass on one of gaussian_grid(13)'s 38 025
    pairs, from its centre atom, spans every pair and takes about a
    second; with a budget far below that it stops at the budget,
    and the message names it and the LP's size."""
    monkeypatch.setattr(lp, "TIME_LIMIT", 0.01)
    mu, nu = gaussian_grid(13)
    message = r"Time limit reached \(732 rows, 38025 columns, 0.01 s budget\)"
    with pytest.raises(SolverError, match=message):
        max_mass_on_pair(mu, nu, 84, 0)


def test_budget_is_per_solve(monkeypatch):
    """HiGHS's time limit counts the reused solver's run time over all
    its solves; each LP still gets the whole budget, so short solves
    that take longer than the budget in total all finish."""
    monkeypatch.setattr(lp, "TIME_LIMIT", 0.2)
    mu, nu = gaussian_grid(7)
    solver = lp._solver()
    start = solver.getRunTime()
    while solver.getRunTime() - start < 0.5:
        find_coupling(mu, nu)


def test_infeasible_status_without_a_certificate_raises_solver_error(stub_highs):
    """HiGHS's word alone refutes nothing: on mixed_k(3), where an LP
    runs, an "infeasible" report without a dual ray, or a model HiGHS
    rejects, raises SolverError from the coupling and the order, and
    so does a ray that a pair the LP posed breaks (1 on mu-atom 0's mass
    row: each of its pairs is priced 1, above the ray's margin mu_0)."""
    mu, nu = mixed_k(3)
    for status in ("kInfeasible", "kModelError"):
        stub_highs(status)
        for call in (find_coupling, check_convex_order):
            with pytest.raises(SolverError, match="infeasible without a dual ray"):
                call(mu, nu)
    ray = np.zeros(mu.n_atoms + nu.n_atoms + 2 * mu.n_atoms)
    ray[0] = 1.0
    stub_highs("kInfeasible", ray=ray)
    for call in (find_coupling, check_convex_order):
        with pytest.raises(SolverError, match="dual ray fails its check"):
            call(mu, nu)
    # a solve without an answer on the reversed pair, whose second
    # coordinate line refutes the order
    stub_highs("kUnknown")
    with pytest.raises(NotInConvexOrder):
        find_coupling(nu, mu)
    assert check_convex_order(nu, mu) is False


def test_corrupted_ray_raises_solver_error():
    """gaussian_grid(5) swapped, nu against mu, has no martingale
    coupling.  HiGHS's ray of its LP over every pair certifies that
    (``coupling._broken`` raises NotInConvexOrder); with the sign of its
    largest entry flipped, a pair is priced above its margin, and the
    check raises SolverError.  The ray of its LP over every other pair
    is broken by some pair left out; checked as the ray of an LP that
    posed one of those too, it raises SolverError."""
    mu, nu = gaussian_grid(5)
    every = np.arange(mu.n_atoms * nu.n_atoms)
    for cols in (every, every[::2]):
        A, b, s = _constraint_system(nu, mu, pairs=cols)
        res = lp.highs(np.zeros(cols.size), A, b, b, feas_tol=s.feas)
        assert res.status is lp.LpStatus.INFEASIBLE
        if cols is every:
            with pytest.raises(NotInConvexOrder, match="Farkas ray"):
                coupling._broken(s, b, res.ray, cols)
            flipped = res.ray.copy()
            k = np.argmax(np.abs(flipped))
            flipped[k] = -flipped[k]
            with pytest.raises(SolverError, match="dual ray fails its check"):
                coupling._broken(s, b, flipped, cols)
        else:
            broken = coupling._broken(s, b, res.ray, cols)
            assert broken.size and not np.isin(broken, cols).any()
            with pytest.raises(SolverError, match="dual ray fails its check"):
                coupling._broken(s, b, res.ray, np.union1d(cols, broken[:1]))


def test_gaussian_grid_17_poses_a_shortlist(monkeypatch):
    """gaussian_grid(17) has 104 329 pairs.  find_coupling's coupling
    passes its certificate, and its LPs pose fewer than a fifth of the
    pairs: the pairs the lines keep among each atom's nearest atoms of
    the other measure."""
    mu, nu = gaussian_grid(17)
    real, columns = coupling._constraint_system, []

    def counted(*args, **kwargs):
        A, b, s = real(*args, **kwargs)
        columns.append(A.shape[1])
        return A, b, s

    monkeypatch.setattr(coupling, "_constraint_system", counted)
    s = _scaled(mu, nu)
    _certify(s, find_coupling(mu, nu).matrix / s.mass)
    assert columns and max(columns) < mu.n_atoms * nu.n_atoms / 5


def test_max_support_infeasible_report_is_a_solver_error(stub_highs):
    """Zero is feasible for the max-support LP, so HiGHS calling it
    infeasible is a solver failure, not a refutation of the order: on
    mixed_k(3), where the filter leaves the mask to that LP, the mask
    calls raise SolverError, never NotInConvexOrder.  The coupling LP
    can be infeasible, but only a dual ray that passes its check
    refutes the order, so the same report without one is a SolverError
    there too."""
    mu, nu = mixed_k(3)
    stub_highs("kInfeasible")
    for call in (max_support_coupling, nonpolar_mask):
        with pytest.raises(SolverError, match="HiGHS reports it infeasible"):
            call(mu, nu)
    with pytest.raises(SolverError, match="infeasible without a dual ray"):
        find_coupling(mu, nu)


def _posed(mu, nu, theta):
    """The entries of the n x m matrix theta on the pairs that
    ``find_coupling``'s first LP poses (``coupling._shortlist``): the
    solution a stubbed solver returns for that LP."""
    s = _scaled(mu, nu)
    return theta.ravel()[coupling._shortlist(s, coupling._projection_filter(mu, nu, s)[0])]


def test_find_coupling_rejects_uncertified_solution(stub_highs):
    """A solution with a negative entry or a marginal residual is an
    error, not something to clip (mixed_k(3), where an LP runs over the
    10 pairs the lines keep, the first two in mu-atom 0's row)."""
    mu, nu = mixed_k(3)
    good = _posed(mu, nu, find_coupling(mu, nu).matrix)
    negative = good.copy()
    assert good.size == 10 and 0.0 < good[0] < 0.1
    negative[[0, 1]] += [-0.1, 0.1]  # same row sum, one entry < 0
    off_marginal = good * (1.0 + 1e-6)
    for x in (negative, off_marginal):
        stub_highs("kOptimal", x)
        with pytest.raises(SolverError, match="certificate"):
            find_coupling(mu, nu)
    # the order check in d >= 2 answers from the same certified solve
    with pytest.raises(SolverError, match="certificate"):
        check_convex_order(mu, nu)


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


def test_numpy_residual_matches_sparse_product(random_instances, gaussian_pair):
    """The certificate's residual, computed from theta as a matrix, is
    max |A theta - b| of the sparse system, on solved couplings, on
    copies with residuals near 1e-3, and on copies whose first row is
    moved along a direction that keeps its mass and barycenter, so that
    only the column sums show it."""
    from mot.coupling import _residual, _scaled

    rng = np.random.default_rng(4)
    pairs = [(mu, nu) for mu, nu, _, _ in random_instances] + [gaussian_pair]
    for mu, nu in pairs:
        A, b, _ = _constraint_system(mu, nu)
        S = csc_array((A.data, A.indices, A.indptr), shape=A.shape)
        # a unit vector orthogonal to the ones and to every coordinate of nu
        along = np.zeros((mu.n_atoms, nu.n_atoms))
        if nu.n_atoms > nu.ambient_dim + 1:
            along[0] = np.linalg.svd(np.vstack([np.ones(nu.n_atoms), nu.points.T]))[2][-1]
        for theta in (find_coupling(mu, nu).matrix, max_support_coupling(mu, nu)[1].matrix):
            noisy = theta + rng.uniform(0.0, 1e-3, size=theta.shape)
            for t in (theta, noisy, theta + 1e-3 * along):
                expected = float(np.max(np.abs(S @ t.ravel() - b)))
                assert abs(_residual(_scaled(mu, nu), t) - expected) <= 1e-15


def test_martingale_defect_matches_row_loop(random_instances, gaussian_pair):
    """``Coupling.martingale_defect`` (theta @ y - rowsum * x) agrees with
    the row-by-row sum_j theta_ij (y_j - x_i) up to the rounding of an
    m-term sum of products, on solved couplings and noisy copies."""
    rng = np.random.default_rng(6)
    pairs = [(mu, nu) for mu, nu, _, _ in random_instances] + [gaussian_pair]
    for mu, nu in pairs:
        theta = find_coupling(mu, nu).matrix
        scale = max(np.abs(mu.points).max(), np.abs(nu.points).max())
        tol = 4 * np.finfo(float).eps * (nu.n_atoms + 1) * scale
        for t in (theta, theta + rng.uniform(0.0, 1e-3, size=theta.shape)):
            loop = max(
                float(np.max(np.abs(t[i] @ (nu.points - x)))) for i, x in enumerate(mu.points)
            )
            c = Coupling(mu.points, nu.points, t)
            assert abs(c.martingale_defect() - loop) <= tol
    empty = Coupling(np.zeros((0, 1)), np.zeros((2, 1)), np.zeros((0, 2)))
    assert empty.martingale_defect() == 0.0


@pytest.mark.parametrize("damage", ["perturbed", "negative", "nan-entry", "nan-everywhere"])
def test_certificate_rejects_damaged_coupling(stub_highs, damage):
    """One entry moved by 1e-6 (a residual of 1e-6), or one empty entry
    set to -1e-9 (residual 1e-9, below RESIDUAL, but an entry below
    -FEAS), fails the certificate of both coupling LPs; so
    does a NaN in one entry or in every entry, whose comparisons are all
    false.  The coupling LP's solution holds the pairs it poses
    (``_posed``); every pair mixed_k(3)'s LP poses carries mass, so
    there no empty entry of that LP's solution is damaged."""
    message = {
        "perturbed": "residual 1e-06",
        "negative": "lowest entry -1e-09",
    }.get(damage, "residual nan, lowest entry nan")

    def damaged(theta):
        theta = theta.copy()
        if damage == "perturbed":
            theta[np.argmax(theta)] += 1e-6
        elif damage == "negative":
            theta[np.flatnonzero(theta == 0.0)[0]] = -1e-9
        elif damage == "nan-entry":
            theta[np.argmax(theta)] = np.nan
        else:
            theta[:] = np.nan
        return theta

    cases = []
    for mu, nu in (mixed_k(3), mixed_k(4)):
        mask, cert = max_support_coupling(mu, nu)
        for theta in (find_coupling(mu, nu).matrix, cert.matrix):
            cases.append((mu, nu, mask, theta, _posed(mu, nu, theta)))
    for mu, nu, mask, theta, posed in cases:
        if damage != "negative" or (posed == 0.0).any():
            stub_highs("kOptimal", damaged(posed))
            with pytest.raises(SolverError, match=message):
                find_coupling(mu, nu)
        # the max-support LP's point [s | t | tau] with W (s + t) / tau = theta
        s = mask.ravel().astype(float)
        w = np.minimum(mu.weights[:, None], nu.weights[None, :]).ravel()
        stub_highs("kOptimal", np.concatenate([s, damaged(theta.ravel()) / w - s, [1.0]]))
        with pytest.raises(SolverError, match=message):
            max_support_coupling(mu, nu)


def test_max_support_that_leaves_a_row_empty_raises(stub_highs):
    """An FRT optimum whose s is 1 on every pair of mu-atom 0 and 0 on
    every other pair marks no pair of the other rows, though every
    mu-atom of a coupling sends its mass somewhere: SolverError."""
    mu, nu = mixed_k(3)
    n, m = mu.n_atoms, nu.n_atoms
    s = np.zeros((n, m))
    s[0] = 1.0
    stub_highs("kOptimal", np.concatenate([s.ravel(), np.zeros(n * m), [1.0]]))
    with pytest.raises(SolverError, match="left a mu-atom without any pair"):
        max_support_coupling(mu, nu)


def test_max_support_with_no_pair_is_not_a_refutation(stub_highs):
    """An FRT optimum that marks no pair, over every pair, does not refute
    the order: on continuous_grid(3), which the projection filter settles
    with no LP, the order holds, so the mask is not known and the call
    raises SolverError, never NotInConvexOrder."""
    mu, nu = continuous_grid(3)
    n, m = mu.n_atoms, nu.n_atoms
    stub_highs("kOptimal", np.zeros(2 * n * m + 1))
    with pytest.raises(SolverError, match="carry no coupling"):
        max_support_coupling(mu, nu)
    assert check_convex_order(mu, nu) is True

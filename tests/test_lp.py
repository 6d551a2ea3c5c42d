"""The LP backend: status correctness, duality, determinism."""

import os
import pathlib
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mot import lp
from mot.errors import InvalidInput, SolverError

TOL = 1e-7


def test_solve_bounded_single_variable():
    # minimise -x subject to x <= 1, x >= 0
    res = lp.highs([-1.0], [[1.0]], -np.inf, 1.0)
    assert res.status is lp.LpStatus.OPTIMAL
    assert abs(res.solution[0] - 1.0) <= TOL


def test_solve_infeasible():
    # x <= -1 contradicts x >= 0
    res = lp.highs([-1.0], [[1.0]], -np.inf, -1.0)
    assert res.status is lp.LpStatus.INFEASIBLE
    assert res.solution is None


def test_solve_unbounded():
    # minimise -x with no upper constraint
    res = lp.highs([-1.0], [[0.0]], -np.inf, 1.0)
    assert res.status is lp.LpStatus.UNBOUNDED


def test_feasible_point_in_box():
    res = lp.highs([0.0], [[1.0]], 0.5, 0.5, upper=1.0)
    assert res.status is lp.LpStatus.OPTIMAL


def test_feasible_contradictory_equalities():
    # x + y = 1 and x - y = 3 force x = 2 > upper bound 1
    b = np.array([1.0, 3.0])
    res = lp.highs(np.zeros(2), [[1.0, 1.0], [1.0, -1.0]], b, b, upper=1.0)
    assert res.status is lp.LpStatus.INFEASIBLE


def test_feasible_simplex_nonempty():
    res = lp.highs(np.zeros(4), np.ones((1, 4)), 1.0, 1.0)
    assert res.status is lp.LpStatus.OPTIMAL


def test_known_optimum_random_instances():
    """Weak duality oracle: with c = y^T A for y >= 0 and b = A x*, the
    point x* is optimal for max c.x s.t. A x <= b, x >= 0."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 2.0, size=(m, n))
        x_star = rng.uniform(0.0, 2.0, size=n)
        y = rng.uniform(0.1, 1.0, size=m)
        b = A @ x_star
        c = y @ A
        res = lp.highs(-c, A, -np.inf, b, feas_tol=1e-9)
        assert res.status is lp.LpStatus.OPTIMAL
        assert abs(float(c @ res.solution) - float(c @ x_star)) <= TOL
        assert np.all(A @ res.solution <= b + 1e-8)


def test_determinism():
    rng = np.random.default_rng(5)
    A = np.abs(rng.uniform(-1.0, 1.0, size=(4, 6)))
    x_star = rng.uniform(0.0, 1.0, size=6)
    c = -(rng.uniform(0.0, 1.0, size=4) @ A)
    first = lp.highs(c, A, -np.inf, A @ x_star)
    second = lp.highs(c, A, -np.inf, A @ x_star)
    assert first.status is second.status
    assert np.array_equal(first.solution, second.solution)


def test_degenerate_instance_terminates():
    # duplicate rows make the optimum degenerate; must still terminate
    A = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    res = lp.highs([-1.0, -1.0], A, -np.inf, 1.0)
    assert res.status is lp.LpStatus.OPTIMAL
    assert abs(res.solution.sum() - 1.0) <= TOL


def test_non_finite_coefficients_rejected():
    """A non-finite objective or matrix entry, or a NaN bound, raises;
    infinite bounds are legal."""
    one = np.array([[1.0]])
    bad = [
        ([np.nan], one, [0.0], [1.0], {}),
        ([1.0], [[np.nan]], [-np.inf], [1.0], {}),
        ([1.0], [[np.inf]], [-np.inf], [1.0], {}),
        ([1.0], [[-np.inf]], [-np.inf], [1.0], {}),
        ([1.0], one, [np.nan], [1.0], {}),
        ([1.0], one, [0.0], np.nan, {}),
        ([1.0], one, [0.0], [1.0], {"lower": [np.nan]}),
        ([1.0], one, [0.0], [1.0], {"upper": np.nan}),
    ]
    for c, A, lo, hi, kw in bad:
        with pytest.raises(InvalidInput):
            lp.highs(np.array(c), A, lo, hi, **kw)
    res = lp.highs([1.0], one, -np.inf, np.inf, lower=-1.0, upper=np.inf)
    assert res.status is lp.LpStatus.OPTIMAL


def test_highs_rejects_bounds_of_wrong_length():
    """Bounds, and the objective, must have one entry per row or column."""
    A = np.eye(2)
    with pytest.raises(InvalidInput):
        lp.highs(np.zeros(2), A, [0.0, 0.0], [1.0, 1.0], upper=np.ones(3))
    with pytest.raises(InvalidInput):
        lp.highs(np.zeros(2), A, [0.0], [1.0])
    with pytest.raises(InvalidInput):
        lp.highs(np.zeros(3), A, [0.0, 0.0], [1.0, 1.0])
    assert lp.highs(np.zeros(2), A, 0.0, [1.0, 1.0], upper=2.0).status is lp.LpStatus.OPTIMAL


def test_lower_bounds_shift():
    # minimise x subject to x <= 5 with x >= 2 attains the bound
    res = lp.highs([1.0], [[1.0]], -np.inf, 5.0, lower=2.0)
    assert res.status is lp.LpStatus.OPTIMAL
    assert abs(res.solution[0] - 2.0) <= TOL


def test_highs_outcomes_map_to_status_or_solver_error(stub_highs):
    args = ([-1.0], [[1.0]], -np.inf, 1.0)
    stub_highs("kUnbounded")
    assert lp.highs(*args).status is lp.LpStatus.UNBOUNDED
    for status, load_error in [("kInfeasible", False), ("kModelError", False),
                               ("kNotset", True)]:
        stub_highs(status, load_error=load_error)
        assert lp.highs(*args).status is lp.LpStatus.INFEASIBLE
    for status, message in [("kIterationLimit", "Iteration limit reached"),
                            ("kUnknown", "Unknown"),
                            ("kUnboundedOrInfeasible", "Primal infeasible or unbounded"),
                            ("kOptimal", "Optimal")]:
        stub_highs(status)
        with pytest.raises(SolverError, match=f"LP not solved: {message}"):
            lp.highs(*args)
    # an optimum whose run failed is not read
    stub_highs("kOptimal", x=[1.0], run_error=True)
    with pytest.raises(SolverError, match="LP not solved: Optimal"):
        lp.highs(*args)
    stub_highs("kOptimal", x=[1.0])
    assert lp.highs(*args).solution.tolist() == [1.0]


def _milp_reference(
    c, A, row_lo, row_hi, lower=0.0, upper=np.inf, feas_tol=None, what="LP",
    max_value_scaling=False,
):
    """``lp.highs``'s problem solved by ``scipy.optimize.milp`` with the
    same HiGHS options: presolve off, the feasibility tolerances when
    given, max-value scaling when asked, no console log (milp's
    default).  A ``CscMatrix`` is handed to milp as the ``csc_array`` of
    the same arrays."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    if isinstance(A, lp.CscMatrix):
        A = csc_array((A.data, A.indices, A.indptr), shape=A.shape)

    options = {"presolve": False}
    if feas_tol is not None:
        options["primal_feasibility_tolerance"] = feas_tol
        options["dual_feasibility_tolerance"] = feas_tol
    if max_value_scaling:
        options["simplex_scale_strategy"] = 4
    with warnings.catch_warnings():
        # milp passes options it does not know on to HiGHS, with a warning
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            c,
            constraints=LinearConstraint(A, row_lo, row_hi),
            bounds=Bounds(lower, upper),
            options=options,
        )
    status = {0: lp.LpStatus.OPTIMAL, 2: lp.LpStatus.INFEASIBLE, 3: lp.LpStatus.UNBOUNDED}
    return status[res.status], res.x


def _recorded_highs_calls(monkeypatch, run):
    """The argument lists of every ``lp.highs`` call made by ``run()``."""
    calls = []
    real = lp.highs

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "highs", record)
    run()
    monkeypatch.setattr(lp, "highs", real)
    return calls


def test_highs_matches_milp_bit_for_bit(monkeypatch):
    """Same status and the same x, bit for bit, as scipy.optimize.milp
    on the coupling LPs, a per-pair LP, a dense program, an infeasible
    and an unbounded LP."""
    from conftest import random_dilation_pair
    from mot.coupling import find_coupling, max_mass_on_pair, max_support_coupling
    from mot.fixtures import discrete_k, gaussian_grid, mixed_k

    rng = np.random.default_rng(20240824)
    pairs = [discrete_k(3), mixed_k(4), gaussian_grid(3)]
    pairs += [random_dilation_pair(rng, dim=1 + k % 3) for k in range(20)]

    def run():
        for mu, nu in pairs:
            find_coupling(mu, nu)
            max_support_coupling(mu, nu)
        max_mass_on_pair(*discrete_k(3), 0, 1)
        rng_dense = np.random.default_rng(3)
        A = np.abs(rng_dense.uniform(-1.0, 1.0, size=(5, 7)))
        c = -rng_dense.uniform(0.0, 1.0, size=7)
        b = A @ rng_dense.uniform(0.0, 1.0, size=7)
        # rows <=, <=, =, >=, <=
        row_lo = np.where([False, False, True, True, False], b, -np.inf)
        row_hi = np.where([True, True, True, False, True], b, np.inf)
        upper = np.array([np.inf, 2.0, np.inf, np.inf, 1.5, np.inf, np.inf])
        lp.highs(c, A, row_lo, row_hi, upper=upper, feas_tol=1e-9)
        lp.highs([-1.0], [[1.0]], -np.inf, -1.0, feas_tol=1e-9)
        lp.highs([-1.0], [[0.0]], -np.inf, 1.0, feas_tol=1e-9)

    calls = _recorded_highs_calls(monkeypatch, run)
    assert len(calls) == 2 * len(pairs) + 4
    seen = set()
    for args, kwargs in calls:
        status, x = _milp_reference(*args, **kwargs)
        res = lp.highs(*args, **kwargs)
        seen.add(res.status)
        assert res.status is status
        if status is lp.LpStatus.OPTIMAL:
            assert res.solution.dtype == x.dtype
            assert res.solution.tobytes() == x.tobytes()
        else:
            assert res.solution is None
    assert seen == set(lp.LpStatus)


def _fresh_highs(
    c, A, row_lo, row_hi, lower=0.0, upper=np.inf, feas_tol=None, max_value_scaling=False
):
    """``lp.highs``'s problem on a newly built HiGHS solver that is used
    once, with presolve off, no console log and the feasibility
    tolerances and max-value scaling set only when asked: (status, x or
    None)."""
    from scipy.optimize._highspy import _core
    from scipy.sparse import csc_array

    if isinstance(A, lp.CscMatrix):
        A = csc_array((A.data, A.indices, A.indptr), shape=A.shape)
    else:
        A = csc_array(A)
    m, n = A.shape
    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = m
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data.astype(float)
    model.col_cost_ = np.asarray(c, dtype=float)
    model.col_lower_ = np.broadcast_to(np.asarray(lower, dtype=float), n).copy()
    model.col_upper_ = np.broadcast_to(np.asarray(upper, dtype=float), n).copy()
    model.row_lower_ = np.broadcast_to(np.asarray(row_lo, dtype=float), m).copy()
    model.row_upper_ = np.broadcast_to(np.asarray(row_hi, dtype=float), m).copy()
    solver = _core._Highs()
    solver.setOptionValue("log_to_console", False)
    solver.setOptionValue("presolve", "off")
    if feas_tol is not None:
        solver.setOptionValue("primal_feasibility_tolerance", float(feas_tol))
        solver.setOptionValue("dual_feasibility_tolerance", float(feas_tol))
    if max_value_scaling:
        solver.setOptionValue("simplex_scale_strategy", 4)
    assert solver.passModel(model) != _core.HighsStatus.kError
    solver.run()
    status = {
        _core.HighsModelStatus.kOptimal: lp.LpStatus.OPTIMAL,
        _core.HighsModelStatus.kInfeasible: lp.LpStatus.INFEASIBLE,
        _core.HighsModelStatus.kUnbounded: lp.LpStatus.UNBOUNDED,
    }[solver.getModelStatus()]
    x = np.array(solver.getSolution().col_value) if status is lp.LpStatus.OPTIMAL else None
    return status, x


def _assert_as_fresh(args, kwargs):
    """``lp.highs`` on this thread's solver answers like ``_fresh_highs``."""
    res = lp.highs(*args, **kwargs)
    status, x = _fresh_highs(*args, **kwargs)
    assert res.status is status
    if x is None:
        assert res.solution is None
    else:
        assert res.solution.tobytes() == x.tobytes()


def test_reused_solver_answers_like_a_fresh_one(stub_highs, monkeypatch):
    """One thread's solver, reused over a sequence that changes the
    tolerances and the scaling, fails, raises and swaps sizes, answers
    every LP bit for bit as a solver built for that LP alone."""
    from mot.coupling import _constraint_system, find_coupling
    from mot.fixtures import gaussian_grid, mixed_k
    from mot.tolerance import FEAS, GEO

    reused = lp._solver()[0]
    small = _constraint_system(*mixed_k(3))[:2]
    large = _constraint_system(*gaussian_grid(7))[:2]

    def coupling_lp(system, tol):
        A, b = system
        return (np.zeros(A.shape[1]), A, b, b), {"feas_tol": tol}

    rng = np.random.default_rng(8)
    A = np.abs(rng.uniform(-1.0, 1.0, size=(5, 7)))
    dense = ((-rng.uniform(0.0, 1.0, size=7), A, -np.inf, A @ rng.uniform(0.0, 1.0, size=7)),
             {"upper": 2.0})
    for tol in (None, FEAS, GEO, None):
        _assert_as_fresh(*coupling_lp(small, tol))
        _assert_as_fresh(dense[0], dict(dense[1], feas_tol=tol))
        _assert_as_fresh(dense[0], dict(dense[1], feas_tol=tol, max_value_scaling=True))
    _assert_as_fresh(([-1.0], [[1.0]], -np.inf, -1.0), {"feas_tol": FEAS})  # infeasible
    _assert_as_fresh(([-1.0], [[0.0]], -np.inf, 1.0), {})  # unbounded
    _assert_as_fresh(*coupling_lp(small, None))
    with pytest.raises(InvalidInput):
        lp.highs([np.nan], [[1.0]], 0.0, 1.0)
    with pytest.raises(InvalidInput):  # below HiGHS's smallest tolerance
        lp.highs(*coupling_lp(small, 1e-11)[0], feas_tol=1e-11)
    _assert_as_fresh(*coupling_lp(small, None))
    stub_highs("kIterationLimit")
    with pytest.raises(SolverError, match="Iteration limit"):
        lp.highs(*coupling_lp(small, FEAS)[0], feas_tol=FEAS)
    monkeypatch.undo()
    # the reused solver's last LP ran at HiGHS's default tolerance, at
    # which this coupling fails its certificate; FEAS must hold again
    mu, nu = gaussian_grid(9)
    theta = find_coupling(mu, nu).matrix
    A, b, _ = _constraint_system(mu, nu)
    _, x = _fresh_highs(np.zeros(A.shape[1]), A, b, b, feas_tol=FEAS)
    expected = np.maximum(x, 0.0).reshape(theta.shape) * mu.total_mass
    assert theta.tobytes() == expected.tobytes()
    _assert_as_fresh(*coupling_lp(small, GEO))
    _assert_as_fresh(*coupling_lp(large, FEAS))
    _assert_as_fresh(*coupling_lp(small, FEAS))
    assert lp._solver()[0] is reused


def test_threads_solve_on_their_own_solvers():
    """Two threads solving interleaved coupling LPs at once get the
    serial answers, each on a solver of its own."""
    from conftest import random_dilation_pair
    from mot.coupling import find_coupling

    rng = np.random.default_rng(9)
    pairs = [random_dilation_pair(rng, dim=1 + k % 3) for k in range(40)]
    serial = [find_coupling(mu, nu).matrix.tobytes() for mu, nu in pairs]
    start = threading.Barrier(2, timeout=30)

    def work(part):
        start.wait()
        out = [find_coupling(mu, nu).matrix.tobytes() for mu, nu in part]
        return out, lp._solver()[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work, pairs[k::2]) for k in range(2)]
            (even, first), (odd, second) = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert even == serial[0::2] and odd == serial[1::2]
    assert len({id(first), id(second), id(lp._solver()[0])}) == 3


def test_import_loads_no_scipy():
    """scipy is imported on the first solve, not by ``import mot``."""
    code = "import sys, mot, mot.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_lp_is_the_only_highs_call_site():
    """No module of the package but ``lp`` names HiGHS's binding or
    scipy's LP solvers, so every LP goes through ``lp.highs``."""
    for path in pathlib.Path(lp.__file__).parent.rglob("*.py"):
        if path.name == "lp.py":
            continue
        text = path.read_text()
        for name in ("_highspy", "milp", "linprog"):
            assert name not in text, f"{path.name} references {name}"

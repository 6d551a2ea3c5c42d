"""The LP backend: status correctness, duality, determinism."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mot import lp
from mot.errors import InvalidInput, SolverError

TOL = 1e-7


def _single_var(objective, rows, rels, rhs, **kw):
    return lp.LinearProgram(
        objective=np.array(objective),
        constraint_matrix=np.array(rows),
        relations=rels,
        rhs=np.array(rhs),
        **kw,
    )


def test_solve_bounded_single_variable():
    # maximize x subject to x <= 1, x >= 0
    res = lp.solve(_single_var([1.0], [[1.0]], [lp.LEQ], [1.0]))
    assert res.status is lp.LpStatus.OPTIMAL
    assert abs(res.objective_value - 1.0) <= TOL
    assert abs(res.solution[0] - 1.0) <= TOL


def test_solve_infeasible():
    # x <= -1 contradicts x >= 0
    res = lp.solve(_single_var([1.0], [[1.0]], [lp.LEQ], [-1.0]))
    assert res.status is lp.LpStatus.INFEASIBLE
    assert res.solution is None


def test_solve_unbounded():
    # maximize x with no upper constraint
    res = lp.solve(_single_var([1.0], [[0.0]], [lp.LEQ], [1.0]))
    assert res.status is lp.LpStatus.UNBOUNDED


def test_feasible_point_in_box():
    prog = _single_var([0.0], [[1.0]], [lp.EQ], [0.5], upper_bounds=[1.0])
    assert lp.feasible(prog)


def test_feasible_contradictory_equalities():
    # x + y = 1 and x - y = 3 force x = 2 > upper bound 1
    prog = lp.LinearProgram(
        objective=np.zeros(2),
        constraint_matrix=np.array([[1.0, 1.0], [1.0, -1.0]]),
        relations=[lp.EQ, lp.EQ],
        rhs=np.array([1.0, 3.0]),
        upper_bounds=[1.0, 1.0],
    )
    assert not lp.feasible(prog)


def test_feasible_simplex_nonempty():
    prog = lp.LinearProgram(
        objective=np.zeros(4),
        constraint_matrix=np.ones((1, 4)),
        relations=[lp.EQ],
        rhs=np.array([1.0]),
    )
    assert lp.feasible(prog)


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
        prog = lp.LinearProgram(
            objective=c,
            constraint_matrix=A,
            relations=[lp.LEQ] * m,
            rhs=b,
        )
        res = lp.solve(prog)
        assert res.status is lp.LpStatus.OPTIMAL
        assert abs(res.objective_value - float(c @ x_star)) <= TOL
        assert np.all(A @ res.solution <= b + lp.TAU_LP * 10)


def test_determinism():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, size=(4, 6))
    x_star = rng.uniform(0.0, 1.0, size=6)
    prog = lp.LinearProgram(
        objective=rng.uniform(0.0, 1.0, size=4) @ np.abs(A),
        constraint_matrix=np.abs(A),
        relations=[lp.LEQ] * 4,
        rhs=np.abs(A) @ x_star,
    )
    first = lp.solve(prog)
    second = lp.solve(prog)
    assert first.status is second.status
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.solution, second.solution)


def test_degenerate_instance_terminates():
    # duplicate rows make the optimum degenerate; must still terminate
    prog = lp.LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraint_matrix=np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]
        ),
        relations=[lp.LEQ] * 5,
        rhs=np.array([1.0, 1.0, 1.0, 1.0, 1.0]),
    )
    res = lp.solve(prog)
    assert res.status is lp.LpStatus.OPTIMAL
    assert abs(res.objective_value - 1.0) <= TOL


def test_non_finite_coefficients_rejected():
    with pytest.raises(InvalidInput):
        lp.solve(_single_var([np.nan], [[1.0]], [lp.LEQ], [1.0]))
    with pytest.raises(InvalidInput):
        lp.feasible(_single_var([1.0], [[np.inf]], [lp.LEQ], [1.0]))
    with pytest.raises(InvalidInput):
        lp.highs(np.array([np.nan]), np.array([[1.0]]), [0.0], [1.0])


def test_lower_bounds_shift():
    # maximize -x with x >= 2 attains the bound
    prog = lp.LinearProgram(
        objective=np.array([-1.0]),
        constraint_matrix=np.array([[1.0]]),
        relations=[lp.LEQ],
        rhs=np.array([5.0]),
        lower_bounds=np.array([2.0]),
    )
    res = lp.solve(prog)
    assert res.status is lp.LpStatus.OPTIMAL
    assert abs(res.solution[0] - 2.0) <= TOL


def test_highs_outcomes_map_to_status_or_solver_error(stub_highs):
    prog = _single_var([1.0], [[1.0]], [lp.LEQ], [1.0])
    stub_highs("kUnbounded")
    assert lp.solve(prog).status is lp.LpStatus.UNBOUNDED
    for status, load_error in [("kInfeasible", False), ("kModelError", False),
                               ("kNotset", True)]:
        stub_highs(status, load_error=load_error)
        assert lp.solve(prog).status is lp.LpStatus.INFEASIBLE
        assert not lp.feasible(prog)
    for status, message in [("kIterationLimit", "Iteration limit reached"),
                            ("kUnknown", "Unknown"),
                            ("kUnboundedOrInfeasible", "Primal infeasible or unbounded"),
                            ("kOptimal", "Optimal")]:
        stub_highs(status)
        with pytest.raises(SolverError, match=f"LP not solved: {message}"):
            lp.solve(prog)
    # an optimum whose run failed is not read
    stub_highs("kOptimal", x=[1.0], run_error=True)
    with pytest.raises(SolverError, match="LP not solved: Optimal"):
        lp.solve(prog)
    stub_highs("kOptimal", x=[1.0])
    assert lp.solve(prog).solution.tolist() == [1.0]


def _milp_reference(c, A, row_lo, row_hi, lower=0.0, upper=np.inf, feas_tol=None, what="LP"):
    """``lp.highs``'s problem solved by ``scipy.optimize.milp`` with the
    same HiGHS options: presolve off, the feasibility tolerances when
    given, no console log (milp's default)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    options = {"presolve": False}
    if feas_tol is not None:
        options["primal_feasibility_tolerance"] = feas_tol
        options["dual_feasibility_tolerance"] = feas_tol
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
        A = rng_dense.uniform(-1.0, 1.0, size=(5, 7))
        lp.solve(lp.LinearProgram(
            objective=rng_dense.uniform(0.0, 1.0, size=7), constraint_matrix=np.abs(A),
            relations=[lp.LEQ, lp.LEQ, lp.EQ, lp.GEQ, lp.LEQ],
            rhs=np.abs(A) @ rng_dense.uniform(0.0, 1.0, size=7),
            upper_bounds=[None, 2.0, None, None, 1.5, None, None],
        ))
        lp.solve(_single_var([1.0], [[1.0]], [lp.LEQ], [-1.0]))
        lp.solve(_single_var([1.0], [[0.0]], [lp.LEQ], [1.0]))

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


def test_import_loads_no_scipy():
    """scipy is imported on the first solve, not by ``import mot``."""
    code = "import sys, mot, mot.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(lp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

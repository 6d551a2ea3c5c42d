"""The LP backend: status correctness, duality, determinism."""

import numpy as np
import pytest
import scipy.optimize

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


def _stub_milp(monkeypatch, status, message, x=None):
    def fake(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=status, message=message, x=x)

    monkeypatch.setattr(scipy.optimize, "milp", fake)


def test_highs_outcomes_map_to_status_or_solver_error(monkeypatch):
    prog = _single_var([1.0], [[1.0]], [lp.LEQ], [1.0])
    _stub_milp(monkeypatch, 3, "The problem is unbounded.")
    assert lp.solve(prog).status is lp.LpStatus.UNBOUNDED
    _stub_milp(monkeypatch, 2, "The problem is infeasible.")
    assert lp.solve(prog).status is lp.LpStatus.INFEASIBLE
    assert not lp.feasible(prog)
    for status, message in [(1, "Iteration limit reached."), (4, "model_status is Unknown"),
                            (0, "optimal but no solution returned")]:
        _stub_milp(monkeypatch, status, message)
        with pytest.raises(SolverError, match="LP not solved"):
            lp.solve(prog)

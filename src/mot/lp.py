"""The package's one LP backend, HiGHS.

``highs`` solves min c @ x subject to row_lo <= A x <= row_hi and
0 <= x <= upper, and every LP of the package goes through it: the
sparse coupling LPs of ``coupling`` and the relative-interior LP of
``geometry``.  It takes the constraint matrix as a ``CscMatrix`` (the
raw compressed-column arrays, which the coupling LPs write directly
and which go to HiGHS without a ``scipy.sparse`` object or its format
checks) or as anything ``scipy.sparse.csc_array`` converts.  It drives
scipy's bundled HiGHS binding (``scipy.optimize._highspy._core``) with
presolve off; going through ``scipy.optimize.milp`` cost about 1.7 ms
of option checks and re-validation per call, several times HiGHS's own
time on small LPs.  Each thread keeps one HiGHS solver (``_solver``),
built and configured on its first solve, because building and
configuring one took about a quarter of a small LP's time; it scales
rows and columns by their largest entry for every LP.  Every solve
loads its model afresh, which clears the previous model, basis and
solution, and sets both feasibility tolerances (``SOLVER_FEAS`` unless
the caller names one) and the time budget again, so no call sees what
an earlier one left behind.  HiGHS's dual simplex is deterministic: the
same input gives the same output.  Every LP the package poses is
bounded, so an outcome other than optimal or infeasible raises
``SolverError``, an "unbounded" report among them; so does a solve that
runs past its budget of ``TIME_LIMIT`` seconds, so no solve hangs.
scipy is imported on the first solve, so importing the package loads
none of it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, SolverError
from .tolerance import SOLVER_FEAS


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class CscMatrix(NamedTuple):
    """A sparse matrix as its compressed-column arrays: the row indices
    and values of column k are ``indices``/``data[indptr[k]:indptr[k + 1]]``.
    ``highs`` hands these arrays to HiGHS as they are."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


# this thread's solver, set by ``_solver``
_local = threading.local()
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
# seconds of HiGHS run time one LP may take before it stops in SolverError
TIME_LIMIT = 60.0


@dataclass
class LpResult:
    status: LpStatus
    solution: np.ndarray | None = None
    # on "infeasible", HiGHS's dual ray where it has one: y with
    # A^T y <= 0 and b^T y > 0 for rows A x = b (its Farkas certificate)
    ray: np.ndarray | None = None


def highs(c, A, row_lo, row_hi, upper=np.inf, feas_tol=SOLVER_FEAS, what="LP") -> LpResult:
    """min c @ x subject to row_lo <= A x <= row_hi, 0 <= x <= upper.

    ``A`` is a ``CscMatrix``, whose arrays go to HiGHS as they are, or
    anything ``scipy.sparse.csc_array`` accepts (a dense array, another
    sparse format), which is converted.  A non-finite entry of ``c`` or
    ``A``, a NaN bound or a ``c`` that is not one entry per column
    raises InvalidInput; infinite bounds are legal.
    Scalar bounds are repeated to full length.  Every column's lower
    bound is 0: each LP the package poses has x >= 0.  The LP runs on this
    thread's HiGHS solver (``_solver``), which has the options
    ``scipy.optimize.milp`` would set with presolve off and max-value
    scaling, and so gives its answers bit for bit.  ``feas_tol`` sets
    HiGHS's primal and dual feasibility tolerances, on every call, and a
    value HiGHS rejects (below 1e-10, say) raises InvalidInput.  So is
    the budget of ``TIME_LIMIT`` seconds of HiGHS run time for this LP.
    Returns an optimal result with x, or an infeasible one (also a model
    HiGHS rejects), which carries HiGHS's dual ray (``getDualRay``)
    where HiGHS reports the model infeasible and has one.  Any other
    outcome, "unbounded" and the budget spent among them, or an optimum
    without a point, raises
    SolverError("<what> not solved: <HiGHS model status> (<size>, <budget>)").
    """
    from scipy.optimize._highspy import _core

    if not isinstance(A, CscMatrix):
        from scipy.sparse import csc_array

        S = csc_array(A)
        A = CscMatrix(S.data, S.indices, S.indptr, S.shape)
    c = np.asarray(c, dtype=float)
    values = A.data.astype(float, copy=False)
    if not (np.isfinite(c).all() and np.isfinite(values).all()):
        raise InvalidInput("non-finite LP coefficient")
    m, n = A.shape
    if c.shape != (n,):
        raise InvalidInput(f"objective of shape {c.shape} for {n} columns")
    # passModel's array form: HighsLp's setters copy integer vectors
    # element by element, which cost several times the load itself on
    # the coupling LPs
    model = (
        n, m, values.shape[0], _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
        c, np.zeros(n), _filled(upper, n), _filled(row_lo, m), _filled(row_hi, m),
        A.indptr, A.indices, values,
        # all columns continuous; an empty integrality array makes passModel fail
        np.zeros(n, dtype=np.int32),
    )

    error = _core.HighsStatus.kError
    solver = _solver()
    for name in _TOLERANCES:
        if solver.setOptionValue(name, float(feas_tol)) == error:
            raise InvalidInput(f"HiGHS rejects the feasibility tolerance {feas_tol}")
    # HiGHS's time limit bounds the solver's run time summed over every
    # solve since it was built, so the budget starts from what is spent
    solver.setOptionValue("time_limit", solver.getRunTime() + TIME_LIMIT)
    if solver.passModel(*model) == error:
        status, ran = _core.HighsModelStatus.kModelError, False
    else:
        ran = solver.run() != error
        status = solver.getModelStatus()
    if status == _core.HighsModelStatus.kOptimal and ran:
        solution = solver.getSolution()
        if solution.value_valid:
            x = np.array(solution.col_value)
            return LpResult(LpStatus.OPTIMAL, x)
    elif status == _core.HighsModelStatus.kInfeasible:
        ok, has_ray, ray = solver.getDualRay()
        return LpResult(LpStatus.INFEASIBLE, ray=np.array(ray) if ok != error and has_ray else None)
    elif status == _core.HighsModelStatus.kModelError:
        return LpResult(LpStatus.INFEASIBLE)
    raise SolverError(
        f"{what} not solved: {solver.modelStatusToString(status)} "
        f"({m} rows, {n} columns, {TIME_LIMIT:g} s budget)"
    )


def _solver():
    """This thread's HiGHS solver.

    It is built on the thread's first solve, with the console log and
    presolve off and rows and columns scaled by their largest entry
    (``simplex_scale_strategy`` 4) instead of the scaling HiGHS chooses.
    It is kept only once configured, so an exception while it is built
    leaves none behind.
    """
    solver = getattr(_local, "solver", None)
    if solver is None:
        from scipy.optimize._highspy import _core

        solver = _core._Highs()
        solver.setOptionValue("log_to_console", False)
        solver.setOptionValue("presolve", "off")
        solver.setOptionValue("simplex_scale_strategy", 4)
        _local.solver = solver
    return solver


def _filled(bound, k: int) -> np.ndarray:
    """A bound as k floats: a scalar is repeated, an array of length k
    taken as it is; any other shape, or a NaN, raises InvalidInput."""
    bound = np.asarray(bound, dtype=float)
    if bound.ndim == 0:
        nan = math.isnan(bound)
        bound = np.full(k, bound)
    elif bound.shape == (k,):
        nan = np.isnan(bound).any()
    else:
        raise InvalidInput(f"bound of shape {bound.shape} for {k} entries")
    if nan:
        raise InvalidInput("NaN bound")
    return bound

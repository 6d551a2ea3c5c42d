"""The package's one LP backend, HiGHS.

``highs`` solves min c @ x subject to row_lo <= A x <= row_hi and
lower <= x <= upper, and every LP of the package goes through it: the
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
configuring one took about a quarter of a small LP's time.  Every
solve loads its model afresh, which clears the previous model, basis
and solution, and sets both feasibility tolerances and the scaling
again, so no call sees what an earlier one left behind.  HiGHS's dual
simplex is deterministic: the same input gives the same output.  An outcome other
than optimal, infeasible or unbounded raises ``SolverError``.  scipy
is imported on the first solve, so importing the package loads none
of it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, SolverError


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class CscMatrix(NamedTuple):
    """A sparse matrix as its compressed-column arrays: the row indices
    and values of column k are ``indices``/``data[indptr[k]:indptr[k + 1]]``.
    ``highs`` hands these arrays to HiGHS as they are."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


# this thread's solver and its default tolerances, set by ``_solver``
_local = threading.local()
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
_SCALING = "simplex_scale_strategy"
_MAX_VALUE_SCALING = 4  # rows and columns by their largest entry


@dataclass
class LpResult:
    status: LpStatus
    solution: np.ndarray | None = None


def highs(
    c, A, row_lo, row_hi, lower=0.0, upper=np.inf, feas_tol=None, what="LP",
    max_value_scaling=False,
) -> LpResult:
    """min c @ x subject to row_lo <= A x <= row_hi, lower <= x <= upper.

    ``A`` is a ``CscMatrix``, whose arrays go to HiGHS as they are, or
    anything ``scipy.sparse.csc_array`` accepts (a dense array, another
    sparse format), which is converted.  A non-finite entry of ``c`` or
    ``A``, a NaN bound or a ``c`` that is not one entry per column
    raises InvalidInput; infinite bounds are legal.
    Scalar bounds are repeated to full length.  The LP runs on this
    thread's HiGHS solver (``_solver``), which has the options
    ``scipy.optimize.milp`` would set (no console log, presolve off) and
    so gives its answers bit for bit.  ``feas_tol`` sets HiGHS's primal
    and dual feasibility tolerances; None sets them back to HiGHS's
    defaults.  Both are set on every call, and a value HiGHS rejects
    (below 1e-10, say) raises InvalidInput.  ``max_value_scaling`` has
    HiGHS scale rows and columns by their largest entry instead of the
    scaling it chooses; it too is set on every call.
    Returns an optimal result with x, or an infeasible (also a model
    HiGHS rejects) or unbounded one.  Any other outcome, or an optimum
    without a point, raises
    SolverError("<what> not solved: <HiGHS model status>").
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
        c, _filled(lower, n), _filled(upper, n), _filled(row_lo, m), _filled(row_hi, m),
        A.indptr, A.indices, values,
        # all columns continuous; an empty integrality array makes passModel fail
        np.zeros(n, dtype=np.int32),
    )

    error = _core.HighsStatus.kError
    solver, defaults = _solver()
    for name, default in zip(_TOLERANCES, defaults):
        tol = default if feas_tol is None else float(feas_tol)
        if solver.setOptionValue(name, tol) == error:
            raise InvalidInput(f"HiGHS rejects the feasibility tolerance {feas_tol}")
    solver.setOptionValue(_SCALING, _MAX_VALUE_SCALING if max_value_scaling else defaults[-1])
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
    elif status in (_core.HighsModelStatus.kInfeasible, _core.HighsModelStatus.kModelError):
        return LpResult(LpStatus.INFEASIBLE)
    elif status == _core.HighsModelStatus.kUnbounded:
        return LpResult(LpStatus.UNBOUNDED)
    raise SolverError(f"{what} not solved: {solver.modelStatusToString(status)}")


def _solver():
    """This thread's HiGHS solver and its default feasibility tolerances
    and scaling.

    The solver is built on the thread's first solve, with the console
    log and presolve off; the defaults (and the default scaling, last)
    are read from it then, before any call changes them.  It is kept
    only once configured, so an exception while it is built leaves none
    behind.
    """
    held = getattr(_local, "held", None)
    if held is None:
        from scipy.optimize._highspy import _core

        solver = _core._Highs()
        solver.setOptionValue("log_to_console", False)
        solver.setOptionValue("presolve", "off")
        defaults = tuple(solver.getOptionValue(name)[1] for name in _TOLERANCES + (_SCALING,))
        held = _local.held = (solver, defaults)
    return held


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

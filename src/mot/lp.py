"""Linear programs and the package's one LP backend, HiGHS.

``LinearProgram`` describes a maximisation with (<=, =, >=) rows and
variable bounds; ``solve`` and ``feasible`` answer it.  Every LP of the
package, these and the sparse coupling LPs of ``coupling``, is solved
by ``highs``.  It takes the constraint matrix as a ``CscMatrix`` (the
raw compressed-column arrays, which the coupling LPs write directly
and which go to HiGHS without a ``scipy.sparse`` object or its format
checks) or as anything ``scipy.sparse.csc_array`` converts.  It drives
scipy's bundled HiGHS binding (``scipy.optimize._highspy._core``) with
presolve off; going through ``scipy.optimize.milp`` cost about 1.7 ms
of option checks and re-validation per call, several times HiGHS's own
time on small LPs.  HiGHS's dual simplex is deterministic: the same
input gives the same output.  An outcome other than optimal,
infeasible or unbounded raises ``SolverError``.  scipy is imported on
the first solve, so importing the package loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, SolverError

# HiGHS primal and dual feasibility tolerance of ``solve`` and ``feasible``
TAU_LP = 1e-9

LEQ = "<="
EQ = "="
GEQ = ">="


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """max objective @ x  subject to  constraint_matrix x (<=,=,>=) rhs.

    Variables default to x >= 0; per-variable lower bounds and optional
    upper bounds may be given (None entry in ``upper_bounds`` means +inf).
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    relations: list
    rhs: np.ndarray
    lower_bounds: np.ndarray | None = None
    upper_bounds: list | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraint_matrix = np.asarray(self.constraint_matrix, dtype=float)
        if self.constraint_matrix.ndim == 1:
            self.constraint_matrix = self.constraint_matrix.reshape(1, -1)
        self.rhs = np.asarray(self.rhs, dtype=float)
        m, n = self.constraint_matrix.shape
        if len(self.relations) != m or self.rhs.shape[0] != m:
            raise InvalidInput("row count, relations and rhs must agree")
        if self.objective.shape[0] != n:
            raise InvalidInput("objective length must equal column count")
        for rel in self.relations:
            if rel not in (LEQ, EQ, GEQ):
                raise InvalidInput(f"unknown relation {rel!r}")
        if self.lower_bounds is not None:
            self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
            if self.lower_bounds.shape[0] != n:
                raise InvalidInput("lower_bounds length must equal column count")


class CscMatrix(NamedTuple):
    """A sparse matrix as its compressed-column arrays: the row indices
    and values of column k are ``indices``/``data[indptr[k]:indptr[k + 1]]``.
    ``highs`` hands these arrays to HiGHS as they are."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        dense[self.indices, cols] = self.data
        return dense


@dataclass
class LpResult:
    status: LpStatus
    solution: np.ndarray | None = None
    objective_value: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


def highs(
    c, A, row_lo, row_hi, lower=0.0, upper=np.inf, feas_tol=None, what="LP"
) -> LpResult:
    """min c @ x subject to row_lo <= A x <= row_hi, lower <= x <= upper.

    ``A`` is a ``CscMatrix``, whose arrays go to HiGHS as they are, or
    anything ``scipy.sparse.csc_array`` accepts (a dense array, another
    sparse format), which is converted.  Scalar bounds are repeated to
    full length.  HiGHS runs through scipy's bundled binding with the
    options ``scipy.optimize.milp`` would set (no console log, presolve
    off), which keeps its answers bit for bit.  ``feas_tol`` sets
    HiGHS's primal and dual feasibility tolerances; None keeps its
    defaults.
    Returns an optimal result with x and the value c @ x, or an
    infeasible (also a model HiGHS rejects) or unbounded one.  Any other
    outcome, or an optimum without a point, raises
    SolverError("<what> not solved: <HiGHS model status>").
    """
    from scipy.optimize._highspy import _core

    if not isinstance(A, CscMatrix):
        from scipy.sparse import csc_array

        S = csc_array(A)
        A = CscMatrix(S.data, S.indices, S.indptr, S.shape)
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise InvalidInput("non-finite objective coefficient")
    m, n = A.shape
    model = _core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = m
    model.a_matrix_.format_ = _core.MatrixFormat.kColwise
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data.astype(float, copy=False)
    model.col_cost_ = c
    model.col_lower_ = _filled(lower, n)
    model.col_upper_ = _filled(upper, n)
    model.row_lower_ = _filled(row_lo, m)
    model.row_upper_ = _filled(row_hi, m)

    solver = _core._Highs()
    solver.setOptionValue("log_to_console", False)
    solver.setOptionValue("presolve", "off")
    if feas_tol is not None:
        solver.setOptionValue("primal_feasibility_tolerance", float(feas_tol))
        solver.setOptionValue("dual_feasibility_tolerance", float(feas_tol))
    error = _core.HighsStatus.kError
    if solver.passModel(model) == error:
        status, ran = _core.HighsModelStatus.kModelError, False
    else:
        ran = solver.run() != error
        status = solver.getModelStatus()
    if status == _core.HighsModelStatus.kOptimal and ran:
        solution = solver.getSolution()
        if solution.value_valid:
            x = np.array(solution.col_value)
            return LpResult(LpStatus.OPTIMAL, x, float(c @ x))
    elif status in (_core.HighsModelStatus.kInfeasible, _core.HighsModelStatus.kModelError):
        return LpResult(LpStatus.INFEASIBLE)
    elif status == _core.HighsModelStatus.kUnbounded:
        return LpResult(LpStatus.UNBOUNDED)
    raise SolverError(f"{what} not solved: {solver.modelStatusToString(status)}")


def _filled(bound, k: int) -> np.ndarray:
    """A bound as k floats: a scalar is repeated, an array of length k
    taken as it is; any other shape raises InvalidInput."""
    bound = np.asarray(bound, dtype=float)
    if bound.ndim == 0:
        return np.full(k, bound)
    if bound.shape != (k,):
        raise InvalidInput(f"bound of shape {bound.shape} for {k} entries")
    return bound


def _highs_program(prog: LinearProgram, c: np.ndarray) -> LpResult:
    """min c @ x over the feasible set of ``prog``."""
    for arr in (prog.objective, prog.constraint_matrix, prog.rhs):
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("non-finite coefficient in linear program")
    rels = np.array(prog.relations)
    row_lo = np.where(rels == LEQ, -np.inf, prog.rhs)
    row_hi = np.where(rels == GEQ, np.inf, prog.rhs)
    lower = 0.0 if prog.lower_bounds is None else prog.lower_bounds
    upper = np.inf
    if prog.upper_bounds is not None:
        upper = np.array([np.inf if u is None else u for u in prog.upper_bounds], dtype=float)
    return highs(c, prog.constraint_matrix, row_lo, row_hi, lower, upper, feas_tol=TAU_LP)


def solve(prog: LinearProgram) -> LpResult:
    """Maximise the objective; the status is HiGHS's, and an optimal
    point satisfies every row and bound within TAU_LP."""
    res = _highs_program(prog, -prog.objective)
    if not res.is_optimal:
        return res
    return LpResult(LpStatus.OPTIMAL, res.solution, float(prog.objective @ res.solution))


def feasible(prog: LinearProgram) -> bool:
    """True iff the constraint system admits a point (the objective is
    ignored)."""
    return _highs_program(prog, np.zeros_like(prog.objective)).is_optimal

"""Dense two-phase simplex solver for the small LPs of geometry and pwl.

Maximisation convention.  Bland's pivoting rule throughout, so the solver
terminates on degenerate instances and is deterministic: the same input
always produces bit-identical output.  Equality rows are handled with
phase-1 artificial variables rather than elimination.  The coupling LPs
are larger and sparse, and go to HiGHS instead (``coupling._highs``);
this module only describes them, as ``LinearProgram``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidInput

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


@dataclass
class LpResult:
    status: LpStatus
    solution: np.ndarray | None = None
    objective_value: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


_STALL_LIMIT = 30


def _bland_iterate(tableau, basis, n_allowed, tol=TAU_LP):
    """Pivot in place until optimal or unbounded.

    Last row of ``tableau`` is the reduced-cost row of a maximisation;
    only the first ``n_allowed`` columns may enter the basis.  Entering
    columns follow Dantzig's rule until the objective stalls for
    ``_STALL_LIMIT`` degenerate pivots, then Bland's rule (smallest
    index) until progress resumes; leaving rows always break ratio ties
    by smallest basic-variable index, so termination is guaranteed and
    the pivot sequence is deterministic.  Returns True when optimal,
    False when unbounded.
    """
    m = tableau.shape[0] - 1
    basis_arr = np.asarray(basis)
    stall = 0
    bland = False
    last_corner = tableau[-1, -1]
    while True:
        red = tableau[-1, :n_allowed]
        if bland:
            pos = np.flatnonzero(red > tol)
            if pos.size == 0:
                return True
            entering = int(pos[0])
        else:
            entering = int(np.argmax(red))
            if red[entering] <= tol:
                return True
        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        eligible = col > tol
        if not np.any(eligible):
            return False
        ratios = np.full(m, np.inf)
        ratios[eligible] = rhs[eligible] / col[eligible]
        best = ratios.min()
        cands = np.flatnonzero(ratios <= best + tol)
        leaving = int(cands[np.argmin(basis_arr[cands])])

        piv = tableau[leaving, entering]
        tableau[leaving, :] /= piv
        colvals = tableau[:, entering].copy()
        colvals[leaving] = 0.0
        tableau -= np.outer(colvals, tableau[leaving, :])
        tableau[:, entering] = 0.0
        tableau[leaving, entering] = 1.0
        basis[leaving] = entering
        basis_arr[leaving] = entering

        corner = tableau[-1, -1]
        if corner < last_corner - tol:
            last_corner = corner
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True


def _prepare(lp: LinearProgram):
    """Shift lower bounds and fold upper bounds into extra <= rows.

    Returns (A, relations, b, c, shift, n) for a problem in x' >= 0.
    """
    A = lp.constraint_matrix
    m, n = A.shape
    c = lp.objective.copy()
    b = lp.rhs.copy()
    rels = list(lp.relations)
    shift = np.zeros(n)
    if lp.lower_bounds is not None and np.any(lp.lower_bounds != 0.0):
        shift = lp.lower_bounds
        b = b - A @ shift
    rows = [A]
    if lp.upper_bounds is not None:
        extra_rows = []
        extra_rhs = []
        for j, ub in enumerate(lp.upper_bounds):
            if ub is None:
                continue
            row = np.zeros(n)
            row[j] = 1.0
            extra_rows.append(row)
            extra_rhs.append(float(ub) - shift[j])
            rels.append(LEQ)
        if extra_rows:
            rows.append(np.array(extra_rows))
            b = np.concatenate([b, np.array(extra_rhs)])
    A = np.vstack(rows)
    return A, rels, b, c, shift, n


def _phase1(A, rels, b):
    """Build the phase-1 tableau and drive the artificial sum to zero.

    Returns (tableau, basis, n_struct_slack, feasible); column layout is
    [structural | slack/surplus | artificial | rhs].
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    rels = list(rels)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            rels[i] = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[rels[i]]

    slack_cols = []
    art_rows = []
    for i, rel in enumerate(rels):
        if rel == LEQ:
            slack_cols.append((i, 1.0))
        elif rel == GEQ:
            slack_cols.append((i, -1.0))
            art_rows.append(i)
        else:
            art_rows.append(i)

    n_slack = len(slack_cols)
    n_art = len(art_rows)
    n_total = n + n_slack + n_art
    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = [-1] * m
    for k, (i, sign) in enumerate(slack_cols):
        T[i, n + k] = sign
        if sign > 0:
            basis[i] = n + k
    for k, i in enumerate(art_rows):
        T[i, n + n_slack + k] = 1.0
        basis[i] = n + n_slack + k

    # phase-1 objective: maximise -sum(artificials); reduced costs from basis
    cost = np.zeros(n_total + 1)
    cost[n + n_slack : n + n_slack + n_art] = -1.0
    T[-1, :] = cost
    for i, bv in enumerate(basis):
        coef = T[-1, bv]
        if coef != 0.0:
            T[-1, :] -= coef * T[i, :]

    ok = _bland_iterate(T, basis, n_total)
    if not ok:  # pragma: no cover - phase-1 objective is bounded
        raise AssertionError("phase-1 cannot be unbounded")
    # corner holds minus the phase-1 objective; sum of artificials = T[-1, -1]
    feasible = T[-1, -1] <= TAU_LP
    return T, basis, n, n_slack, n_art, feasible


def _drop_artificials(T, basis, n, n_slack, n_art):
    """Pivot basic artificials out (or drop redundant rows)."""
    n_real = n + n_slack
    keep_rows = []
    m = T.shape[0] - 1
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = -1
            for j in range(n_real):
                if abs(T[i, j]) > TAU_LP:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant row
            piv = T[i, pivot_col]
            T[i, :] /= piv
            colvals = T[:, pivot_col].copy()
            colvals[i] = 0.0
            T -= np.outer(colvals, T[i, :])
            T[:, pivot_col] = 0.0
            T[i, pivot_col] = 1.0
            basis[i] = pivot_col
        keep_rows.append(i)
    rows = keep_rows + [m]
    T2 = T[rows][:, list(range(n_real)) + [T.shape[1] - 1]]
    basis2 = [basis[i] for i in keep_rows]
    return T2, basis2


def solve(lp: LinearProgram) -> LpResult:
    """Solve the LP; status is exact, solutions feasible within TAU_LP."""
    for arr in (lp.objective, lp.constraint_matrix, lp.rhs):
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("non-finite coefficient in linear program")
    A, rels, b, c, shift, n = _prepare(lp)
    T, basis, n, n_slack, n_art, feasible = _phase1(A, rels, b)
    if not feasible:
        return LpResult(LpStatus.INFEASIBLE)
    T, basis = _drop_artificials(T, basis, n, n_slack, n_art)

    n_real = n + n_slack
    m = len(basis)
    cost = np.zeros(n_real + 1)
    cost[:n] = c
    T[-1, :] = cost
    for i, bv in enumerate(basis):
        coef = T[-1, bv]
        if coef != 0.0:
            T[-1, :] -= coef * T[i, :]

    ok = _bland_iterate(T, basis, n_real)
    if not ok:
        return LpResult(LpStatus.UNBOUNDED)

    x = np.zeros(n_real)
    for i, bv in enumerate(basis):
        x[bv] = T[i, -1]
    solution = x[:n] + shift
    value = float(c @ solution)
    return LpResult(LpStatus.OPTIMAL, solution=solution, objective_value=value)


def feasible(lp: LinearProgram) -> bool:
    """Phase-1 only: True iff the constraint system admits a point."""
    for arr in (lp.objective, lp.constraint_matrix, lp.rhs):
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("non-finite coefficient in linear program")
    A, rels, b, _, _, _ = _prepare(lp)
    _, _, _, _, _, ok = _phase1(A, rels, b)
    return ok

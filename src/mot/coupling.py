"""Martingale transports between discrete measures.

Couplings are nonnegative matrices on supp(mu) x supp(nu) with row and
column marginals fixed and the conditional barycenter of each row equal
to its source point.  Every LP of this module is posed on one sparse
equality system (``_constraint_system``), written as the raw arrays of
an ``lp.CscMatrix`` and solved by HiGHS (``_highs``, on the package's
one backend ``lp.highs``); no ``scipy.sparse`` object is built.

A coupling an LP returns is certified before it is used (``_certify``):
from theta as an n x m matrix, numpy computes the residuals of the
system, which are the row sums minus mu, the column sums minus nu and
the row barycenter defects theta @ y - rowsum * x.  A residual above
COUPLING_RESIDUAL or an entry below -FEAS_TOL raises SolverError.

Polar pairs are pairs of atoms that carry zero mass under every
martingale coupling.  One LP (Freund, Roundy & Todd 1985) finds a
martingale coupling of maximal support; its positive entries are
exactly the non-polar pairs, and it is returned as their certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import InvalidInput, NotInConvexOrder, SolverError
from .geometry import TAU_GEO
from .measures import DiscreteMeasure, _require_comparable

EPS_POLAR = 1e-8
# HiGHS primal and dual feasibility tolerance of the plain coupling LPs;
# the default (1e-7) leaves residuals above COUPLING_RESIDUAL on
# gaussian_grid(9)
FEAS_TOL = 1e-10
# find_coupling certifies its answer: a residual of A x = b above this,
# or an entry below -FEAS_TOL, raises SolverError instead of being clipped
COUPLING_RESIDUAL = 1e-8


@dataclass
class Coupling:
    """theta_ij = mass moved from mu-atom i to nu-atom j."""

    mu_support: np.ndarray
    nu_support: np.ndarray
    matrix: np.ndarray

    def row_marginals(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def martingale_defect(self) -> float:
        """Largest component-wise violation of sum_j theta_ij (y_j - x_i) = 0."""
        return _martingale_defect(self.matrix, self.mu_support, self.nu_support)

    def to_json(self) -> dict:
        return {
            "mu_support": self.mu_support.tolist(),
            "nu_support": self.nu_support.tolist(),
            "matrix": self.matrix.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Coupling":
        try:
            mu_s = np.asarray(data["mu_support"], dtype=float)
            nu_s = np.asarray(data["nu_support"], dtype=float)
            mat = np.asarray(data["matrix"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed coupling JSON: {exc}") from exc
        if mat.shape != (mu_s.shape[0], nu_s.shape[0]):
            raise InvalidInput("coupling matrix shape does not match supports")
        return cls(mu_s, nu_s, mat)


@dataclass
class Kernel:
    """Disintegration gamma(x_i, .): one probability measure per mu-atom,
    each with barycenter x_i."""

    mu_support: np.ndarray
    conditionals: list  # list of DiscreteMeasure


def _constraint_system(mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True):
    """Sparse coupling equalities ``A theta = b`` over theta_ij >= 0.

    Column i*m + j is theta_ij.  It holds a 1 in row i (mass of mu-atom
    i), a 1 in row n + j (mass of nu-atom j) and, when ``martingale`` is
    set, y_j - x_i in rows n + m + d*i ... n + m + d*i + d - 1 (barycenter
    of row i).  ``A`` is an ``lp.CscMatrix`` written directly from these
    indices; no ``scipy.sparse`` object is built.
    """
    _require_comparable(mu, nu)
    n, m = mu.n_atoms, nu.n_atoms
    d = mu.ambient_dim if martingale else 0
    i, j = np.divmod(np.arange(n * m), m)
    per_col = 2 + d
    indices = np.empty((n * m, per_col), dtype=np.int32)
    indices[:, 0] = i
    indices[:, 1] = n + j
    data = np.ones((n * m, per_col))
    if martingale:
        indices[:, 2:] = (n + m + d * i)[:, None] + np.arange(d)
        data[:, 2:] = (nu.points[None, :, :] - mu.points[:, None, :]).reshape(n * m, d)
    indptr = np.arange(0, per_col * n * m + 1, per_col, dtype=np.int32)
    A = lp.CscMatrix(data.ravel(), indices.ravel(), indptr, (n + m + d * n, n * m))
    b = np.concatenate([mu.weights, nu.weights, np.zeros(d * n)])
    return A, b


def _highs(c, A, rhs, upper=np.inf, tight=True) -> np.ndarray:
    """min c @ x subject to A x = rhs and 0 <= x <= upper (``lp.highs``).

    ``tight`` sets the feasibility tolerances to FEAS_TOL instead of the
    HiGHS defaults.  Returns the optimal x.  An infeasible system raises
    NotInConvexOrder; any other outcome raises SolverError.
    """
    res = lp.highs(
        c, A, rhs, rhs, upper=upper, feas_tol=FEAS_TOL if tight else None, what="coupling LP"
    )
    if res.status is lp.LpStatus.INFEASIBLE:
        raise NotInConvexOrder("no martingale coupling exists")
    if res.status is lp.LpStatus.UNBOUNDED:
        raise SolverError("coupling LP not solved: HiGHS reports it unbounded")
    return res.solution


def find_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Any feasible martingale coupling; raises NotInConvexOrder if none.

    The solution is checked before its roundoff is clipped to 0:
    marginal and martingale residuals above COUPLING_RESIDUAL or entries
    below -FEAS_TOL raise SolverError.
    """
    A, b = _constraint_system(mu, nu)
    x = _highs(np.zeros(A.shape[1]), A, b)
    _certify(mu, nu, x)
    matrix = np.maximum(x, 0.0).reshape(mu.n_atoms, nu.n_atoms)
    return Coupling(mu.points.copy(), nu.points.copy(), matrix)


def _martingale_defect(theta, x, y) -> float:
    """max |theta @ y - rowsum * x|: the largest row barycenter residual
    sum_j theta_ij (y_j - x_i) of the n x m matrix theta, over every
    coordinate (0 for no rows)."""
    return float(np.max(np.abs(theta @ y - theta.sum(axis=1)[:, None] * x), initial=0.0))


def _residual(mu: DiscreteMeasure, nu: DiscreteMeasure, theta) -> float:
    """max |A theta - b| of the martingale system, from theta as an
    n x m matrix: row sums minus mu, column sums minus nu, and the row
    barycenter residuals (``_martingale_defect``)."""
    theta = theta.reshape(mu.n_atoms, nu.n_atoms)
    return max(
        float(np.max(np.abs(theta.sum(axis=1) - mu.weights))),
        float(np.max(np.abs(theta.sum(axis=0) - nu.weights))),
        _martingale_defect(theta, mu.points, nu.points),
    )


def _certify(mu: DiscreteMeasure, nu: DiscreteMeasure, theta):
    """Raise SolverError unless theta is a martingale coupling of mu and
    nu within COUPLING_RESIDUAL (``_residual``) with no entry below
    -FEAS_TOL; a NaN entry fails both tests."""
    residual = _residual(mu, nu, theta)
    lowest = float(theta.min())
    if not (residual <= COUPLING_RESIDUAL and lowest >= -FEAS_TOL):
        raise SolverError(
            f"coupling fails its certificate: residual {residual:.3g}, "
            f"lowest entry {lowest:.3g}"
        )


def _check_indices(mu, nu, i, j):
    if not (0 <= i < mu.n_atoms) or not (0 <= j < nu.n_atoms):
        raise InvalidInput(f"pair index ({i}, {j}) out of range")


def _extreme_entry(A, b, k, sign) -> float:
    """max (sign 1) or min (sign -1) of theta_k over {A theta = b, theta >= 0}."""
    c = np.zeros(A.shape[1])
    c[k] = -sign
    return float(_highs(c, A, b)[k])


def max_mass_on_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int, martingale: bool = True
) -> float:
    """max theta_ij over all (martingale) couplings; the pair is polar
    iff the value is <= EPS_POLAR."""
    _check_indices(mu, nu, i, j)
    A, b = _constraint_system(mu, nu, martingale)
    return _extreme_entry(A, b, i * nu.n_atoms + j, 1.0)


def min_mass_on_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int, martingale: bool = True
) -> float:
    """min theta_ij over all (martingale) couplings."""
    _check_indices(mu, nu, i, j)
    A, b = _constraint_system(mu, nu, martingale)
    return _extreme_entry(A, b, i * nu.n_atoms + j, -1.0)


def polar_matrix(
    mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True
) -> np.ndarray:
    """Matrix of max theta_ij over all pairs (one LP per pair)."""
    A, b = _constraint_system(mu, nu, martingale)
    out = [_extreme_entry(A, b, k, 1.0) for k in range(A.shape[1])]
    return np.array(out).reshape(mu.n_atoms, nu.n_atoms)


def max_support_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Non-polar mask and a martingale coupling positive on exactly it.

    One LP (Freund, Roundy & Todd 1985) over z_ij = theta_ij / w_ij with
    w_ij = min(mu_i, nu_j), the largest mass the pair can carry:
    max sum s subject to A W y = tau b, 0 <= s <= 1, s <= y, tau >= 0,
    posed with y = s + t, t >= 0.  An optimum has s_ij = 1 on every pair
    some coupling charges and s_ij = 0 elsewhere, so the mask is s > 1/2
    and W y / tau is a coupling of maximal support.  Without W, tau grows
    like one over the smallest charged mass (2.5e7 on gaussian_grid(7)),
    and on gaussian_grid(9) HiGHS ends with status "Unknown".  No pair at
    all means no martingale coupling exists.
    """
    A, b = _constraint_system(mu, nu)
    n, m = mu.n_atoms, nu.n_atoms
    nm = n * m
    w = np.minimum(mu.weights[:, None], nu.weights[None, :]).ravel()
    data = (A.data.reshape(nm, -1) * w[:, None]).ravel()
    b_rows = np.flatnonzero(b)
    nnz = data.shape[0]
    # columns [s | t | tau]
    big = lp.CscMatrix(
        np.concatenate([data, data, -b[b_rows]]),
        np.concatenate([A.indices, A.indices, b_rows.astype(np.int32)]),
        np.concatenate([A.indptr, A.indptr[1:] + nnz, [2 * nnz + b_rows.size]]),
        (A.shape[0], 2 * nm + 1),
    )
    c = np.zeros(2 * nm + 1)
    c[:nm] = -1.0
    upper = np.full(2 * nm + 1, np.inf)
    upper[:nm] = 1.0
    # with tight tolerances HiGHS calls this bounded LP "Unbounded" on
    # some random dilation pairs, so it keeps the defaults
    x = _highs(c, big, np.zeros(A.shape[0]), upper, tight=False)
    s, tau = x[:nm], x[-1]
    mask = (s > 0.5).reshape(n, m)
    if not mask.any():
        raise NotInConvexOrder("no martingale coupling exists")
    if not mask.any(axis=1).all():
        raise SolverError("max-support LP left a mu-atom without any pair")
    theta = w * (s + x[nm : 2 * nm]) / tau
    _certify(mu, nu, theta)
    return mask, Coupling(mu.points.copy(), nu.points.copy(), theta.reshape(n, m))


def nonpolar_mask(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Boolean matrix marking the non-polar pairs (one LP, see
    ``max_support_coupling``); raises NotInConvexOrder if there is no
    martingale coupling."""
    return max_support_coupling(mu, nu)[0]


def reachable_set(mu: DiscreteMeasure, nu: DiscreteMeasure, i: int) -> np.ndarray:
    """nu-atoms reachable from mu-atom i under some coupling, plus x_i
    itself (the barycenter constraint puts x_i in the hull anyway)."""
    if not (0 <= i < mu.n_atoms):
        raise InvalidInput(f"atom index {i} out of range")
    mask = nonpolar_mask(mu, nu)
    return _reachable_from_mask(mu, nu, mask, i)


def _reachable_from_mask(mu, nu, mask, i) -> np.ndarray:
    pts = [nu.points[j] for j in range(nu.n_atoms) if mask[i, j]]
    x = mu.points[i]
    if not any(np.max(np.abs(x - p)) <= TAU_GEO for p in pts):
        pts.append(x)
    return np.array(pts)


def disintegrate(c: Coupling) -> Kernel:
    """gamma(x_i, y_j) = theta_ij / mu_i over the positive entries."""
    conditionals = []
    for i in range(c.mu_support.shape[0]):
        row = c.matrix[i]
        total = row.sum()
        if total <= 0:
            raise InvalidInput(f"coupling row {i} carries no mass")
        keep = row > 0
        conditionals.append(
            DiscreteMeasure(c.nu_support[keep], row[keep] / total)
        )
    return Kernel(c.mu_support.copy(), conditionals)

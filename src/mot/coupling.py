"""Martingale transports between discrete measures.

Couplings are nonnegative matrices on supp(mu) x supp(nu) with row and
column marginals fixed and the conditional barycenter of each row equal
to its source point.  Every LP of this module is posed on one sparse
equality system (``_constraint_system``), written as the raw arrays of
an ``lp.CscMatrix`` and solved by HiGHS (``_highs``, on the package's
one backend ``lp.highs``); no ``scipy.sparse`` object is built.

The LPs and the certificate work on normalised arrays (``_scaled``):
theta over mu's total mass, weights over that mass, and points divided
by the extent of both supports, so that their tolerances are relative
(``tolerance``, and the README's "Tolerances").  mu's points are
centred on mu's barycentre and nu's on nu's.
``measures._require_comparable`` has already decided whether the two
barycentres agree, at the LP's tolerance, so the LPs see first moments
that agree to round-off and never decide that question again.

A coupling an LP returns is certified before it is used (``_certify``):
from theta as an n x m matrix, numpy computes the residuals of the
normalised system, which are the row sums minus mu, the column sums
minus nu and the row barycenter defects theta @ y - rowsum * x.  A
residual above RESIDUAL or an entry below minus the system's
feasibility tolerance (FEAS, or coarser far from the origin, but never
above RESIDUAL: ``tolerance.feasibility``) raises SolverError.

Polar pairs are pairs of atoms that carry zero mass under every
martingale coupling.  One LP (Freund, Roundy & Todd 1985) finds a
martingale coupling of maximal support; its positive entries are
exactly the non-polar pairs, and it is returned as their certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import InvalidInput, NotInConvexOrder, SolverError
from .measures import DiscreteMeasure, _require_comparable
from .tolerance import GEO, RESIDUAL, extent


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


class _Scaled(NamedTuple):
    """An instance in the normalised arrays of the coupling LPs."""

    mass: float  # mu's total mass
    mu_w: np.ndarray  # weights over mass
    nu_w: np.ndarray
    x: np.ndarray  # points centred on their barycentre, over the extent
    y: np.ndarray
    feas: float  # feasibility tolerance of the normalised system


def _scaled(mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True) -> _Scaled:
    """The normalised arrays of mu and nu, from the scales of
    ``measures._require_comparable``, which raises for measures that
    cannot be coupled."""
    mass, mu_centre, nu_centre, scale, feas = _require_comparable(mu, nu, martingale)
    return _Scaled(
        mass,
        mu.weights / mass,
        nu.weights / mass,
        (mu.points - mu_centre) / scale,
        (nu.points - nu_centre) / scale,
        feas,
    )


def _constraint_system(mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True):
    """Sparse coupling equalities ``A theta = b`` over theta_ij >= 0, in
    the normalised arrays of ``_scaled``: theta is mass over mu's total
    mass.  Returns A, b and the normalised instance (``_Scaled``), whose
    ``feas`` is the system's feasibility tolerance.

    Column i*m + j is theta_ij.  It holds a 1 in row i (mass of mu-atom
    i), a 1 in row n + j (mass of nu-atom j) and, when ``martingale`` is
    set, y_j - x_i in rows n + m + d*i ... n + m + d*i + d - 1 (barycenter
    of row i).  ``A`` is an ``lp.CscMatrix`` written directly from these
    indices; no ``scipy.sparse`` object is built.
    """
    s = _scaled(mu, nu, martingale)
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
        data[:, 2:] = (s.y[None, :, :] - s.x[:, None, :]).reshape(n * m, d)
    indptr = np.arange(0, per_col * n * m + 1, per_col, dtype=np.int32)
    A = lp.CscMatrix(data.ravel(), indices.ravel(), indptr, (n + m + d * n, n * m))
    b = np.concatenate([s.mu_w, s.nu_w, np.zeros(d * n)])
    return A, b, s


def _highs(c, A, rhs, feas, upper=np.inf) -> np.ndarray:
    """min c @ x subject to A x = rhs and 0 <= x <= upper (``lp.highs``).

    ``feas`` sets the feasibility tolerances (None: the HiGHS defaults,
    whose 1e-7 leaves residuals above RESIDUAL on gaussian_grid(9)).
    Returns the optimal x.  An infeasible system raises
    NotInConvexOrder; any other outcome raises SolverError.
    """
    res = lp.highs(c, A, rhs, rhs, upper=upper, feas_tol=feas, what="coupling LP")
    if res.status is lp.LpStatus.INFEASIBLE:
        raise NotInConvexOrder("no martingale coupling exists")
    if res.status is lp.LpStatus.UNBOUNDED:
        raise SolverError("coupling LP not solved: HiGHS reports it unbounded")
    return res.solution


def find_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Any feasible martingale coupling; raises NotInConvexOrder if none.

    The normalised solution is checked before its roundoff is clipped
    to 0 (``_certify``), then scaled back to mu's total mass.
    """
    A, b, s = _constraint_system(mu, nu)
    x = _highs(np.zeros(A.shape[1]), A, b, s.feas)
    _certify(s, x)
    matrix = np.maximum(x, 0.0).reshape(mu.n_atoms, nu.n_atoms) * s.mass
    return Coupling(mu.points.copy(), nu.points.copy(), matrix)


def _martingale_defect(theta, x, y) -> float:
    """max |theta @ y - rowsum * x|: the largest row barycenter residual
    sum_j theta_ij (y_j - x_i) of the n x m matrix theta, over every
    coordinate (0 for no rows)."""
    return float(np.max(np.abs(theta @ y - theta.sum(axis=1)[:, None] * x), initial=0.0))


def _residual(s: _Scaled, theta) -> float:
    """max |A theta - b| of the normalised martingale system
    (``_constraint_system``) of the instance s, from the normalised
    theta as an n x m matrix: row sums minus mu, column sums minus nu,
    and the row barycenter residuals (``_martingale_defect``)."""
    theta = theta.reshape(s.mu_w.shape[0], s.nu_w.shape[0])
    return max(
        float(np.max(np.abs(theta.sum(axis=1) - s.mu_w))),
        float(np.max(np.abs(theta.sum(axis=0) - s.nu_w))),
        _martingale_defect(theta, s.x, s.y),
    )


def _certify(s: _Scaled, theta):
    """Raise SolverError unless the normalised theta is a martingale
    coupling of the instance s within RESIDUAL (``_residual``) with no
    entry below minus the system's feasibility tolerance; a NaN entry
    fails both tests."""
    residual = _residual(s, theta)
    lowest = float(theta.min())
    if not (residual <= RESIDUAL and lowest >= -s.feas):
        raise SolverError(
            f"coupling fails its certificate: residual {residual:.3g}, "
            f"lowest entry {lowest:.3g}"
        )


def _check_indices(mu, nu, i, j):
    if not (0 <= i < mu.n_atoms) or not (0 <= j < nu.n_atoms):
        raise InvalidInput(f"pair index ({i}, {j}) out of range")


def _extreme_entry(A, b, feas, k, sign) -> float:
    """max (sign 1) or min (sign -1) of theta_k over {A theta = b, theta >= 0},
    in the units of b."""
    c = np.zeros(A.shape[1])
    c[k] = -sign
    return float(_highs(c, A, b, feas)[k])


def max_mass_on_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int, martingale: bool = True
) -> float:
    """max theta_ij over all (martingale) couplings; the pair is polar
    iff the value is at most ``tolerance.POLAR`` times the total mass."""
    _check_indices(mu, nu, i, j)
    A, b, s = _constraint_system(mu, nu, martingale)
    return _extreme_entry(A, b, s.feas, i * nu.n_atoms + j, 1.0) * s.mass


def min_mass_on_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int, martingale: bool = True
) -> float:
    """min theta_ij over all (martingale) couplings."""
    _check_indices(mu, nu, i, j)
    A, b, s = _constraint_system(mu, nu, martingale)
    return _extreme_entry(A, b, s.feas, i * nu.n_atoms + j, -1.0) * s.mass


def polar_matrix(
    mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True
) -> np.ndarray:
    """Matrix of max theta_ij over all pairs (one LP per pair)."""
    A, b, s = _constraint_system(mu, nu, martingale)
    out = [_extreme_entry(A, b, s.feas, k, 1.0) for k in range(A.shape[1])]
    return np.array(out).reshape(mu.n_atoms, nu.n_atoms) * s.mass


def max_support_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Non-polar mask and a martingale coupling positive on exactly it.

    One LP (Freund, Roundy & Todd 1985) on the normalised system over
    z_ij = theta_ij / w_ij with w_ij = min(mu_i, nu_j), the largest mass
    the pair can carry:
    max sum s subject to A W y = tau b, 0 <= s <= 1, s <= y, tau >= 0,
    posed with y = s + t, t >= 0.  An optimum has s_ij = 1 on every pair
    some coupling charges and s_ij = 0 elsewhere, so the mask is s > 1/2
    and W y / tau is a coupling of maximal support.  Without W, tau grows
    like one over the smallest charged mass (2.5e7 on gaussian_grid(7)),
    and on gaussian_grid(9) HiGHS ends with status "Unknown".  No pair at
    all means no martingale coupling exists.
    """
    A, b, inst = _constraint_system(mu, nu)
    n, m = mu.n_atoms, nu.n_atoms
    nm = n * m
    w = np.minimum(inst.mu_w[:, None], inst.nu_w[None, :]).ravel()
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
    # With tight tolerances HiGHS calls this bounded LP "Unbounded" on
    # some random dilation pairs, so it keeps the defaults.  With the
    # scaling HiGHS chooses it ends in "Unknown" on gaussian_grid(9) and
    # in "Solve error" or "Unknown" on a 1-D test instance translated by
    # 5e5-1e6; scaled by the largest entry of each row and column, it
    # solved every such case.  The other LPs keep the default scaling:
    # max-value scaling on all of them made the benchmark's pave-grid
    # solve time 17 % longer.  Zero is feasible and s is bounded, so
    # any outcome but an optimum is a solver failure.
    zero = np.zeros(A.shape[0])
    res = lp.highs(c, big, zero, zero, upper=upper, what="coupling LP", max_value_scaling=True)
    if res.status is not lp.LpStatus.OPTIMAL:
        raise SolverError(f"coupling LP not solved: HiGHS reports it {res.status.value}")
    x = res.solution
    s, tau = x[:nm], x[-1]
    mask = (s > 0.5).reshape(n, m)
    if not mask.any():
        raise NotInConvexOrder("no martingale coupling exists")
    if not mask.any(axis=1).all():
        raise SolverError("max-support LP left a mu-atom without any pair")
    theta = w * (s + x[nm : 2 * nm]) / tau
    _certify(inst, theta)
    matrix = theta.reshape(n, m) * inst.mass
    return mask, Coupling(mu.points.copy(), nu.points.copy(), matrix)


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
    tol = GEO * extent(mu.points, nu.points)
    if not any(np.max(np.abs(x - p)) <= tol for p in pts):
        pts.append(x)
    return np.array(pts)


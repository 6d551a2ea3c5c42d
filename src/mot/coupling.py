"""Martingale transports between discrete measures.

Couplings are nonnegative matrices on supp(mu) x supp(nu) with row and
column marginals fixed and the conditional barycenter of each row equal
to its source point.  Every LP of this module is posed on one sparse
equality system (``_constraint_system``), written as the raw arrays of
an ``lp.CscMatrix`` and solved by HiGHS (``_highs``, on the package's
one backend ``lp.highs``); no ``scipy.sparse`` object is built.

The LPs and the certificate work on the normalised arrays of
``measures._scaled``: theta over mu's total mass, weights over that
mass, and points divided by the extent of both supports, so that their
tolerances are relative (``tolerance``, and the README's "Tolerances").
mu's points are centred on mu's barycentre and nu's on nu's.
``_scaled`` has already decided whether the two barycentres agree, at
the LP's tolerance, so the LPs see first moments that agree to
round-off and never decide that question again.

Every coupling, whether an LP returns it or not, is certified before
it is used (``_certify``):
from theta as an n x m matrix, numpy computes the residuals of the
normalised system, which are the row sums minus mu, the column sums
minus nu and the row barycenter defects theta @ y - rowsum * x.  A
residual above RESIDUAL or an entry below minus the system's
feasibility tolerance (FEAS, or coarser far from the origin, but never
above RESIDUAL: ``tolerance.feasibility``) raises SolverError.  A
forced coupling that is tight (``_tight``, below) needs no such pass:
its bound implies every one of these checks.

Polar pairs are pairs of atoms that carry zero mass under every
martingale coupling.  One LP (Freund, Roundy & Todd 1985) finds a
martingale coupling of maximal support; its positive entries are
exactly the non-polar pairs, and it is returned as their certificate.
``nonpolar_mask`` first reads the pairs off the zeros of u_nu - u_mu on
the coordinate axes in turn, since a martingale coupling projects to a
1-D one (``_projection_filter``; Beiglböck, Nutz & Touzi 2017).  An
axis drops the pairs it separates where the superhedge of its zeros
bounds their mass by POLAR times the total.  In dimension one, where it
does, the pairs left are the mask, certified by that superhedge
(``_certify_polar``), and no LP is solved.  Where every nu-atom keeps
exactly one mu-atom, the only coupling over the pairs left sends nu_j
from that atom to y_j.  The filter stops at the first axis after which
that coupling is tight: its row-mass defects and the norms of its row
barycentre defects, in the instance's own frame, sum to at most
``s.feas``, the level below which a line refutes the order
(``_tight``).  Such a coupling passes ``_certify``, and by the triangle
inequality it keeps u_nu - u_mu above minus that level on every line,
so no axis left could refute the order; the filter returns it, and
``nonpolar_mask`` and ``find_coupling`` answer with it and no LP.
Otherwise ``nonpolar_mask`` poses its LP over the pairs left
(``_max_support``), and ``find_coupling`` builds the left-curtain
coupling in dimension one (Beiglböck & Juillet 2016; ``_left_curtain``)
with no LP.  In higher dimensions it poses its LP over a shortlist
(``_shortlist``; Gottschlich & Schuhmacher 2014): the pairs left that
join an atom to one of its NEAREST nearest atoms of the other measure,
every pair left on small instances.  Where that LP has no solution,
HiGHS's Farkas ray prices every pair in O(n m d) numpy work, the pairs
that break it join the shortlist and the LP is solved again
(``_priced_coupling``); a ray that no pair breaks certifies over every
pair that no coupling exists (``_broken``).  So the order is decided
exactly with no LP over every pair.  ``max_support_coupling``,
``polar_matrix`` and ``max_mass_on_pair`` solve their LPs over every
pair in every dimension.  NotInConvexOrder comes only from ``_scaled``
(barycentres that differ), ``_axis_zeros`` (a line that refutes the
order) and ``_broken`` (a Farkas ray that passes its check and that no
pair breaks); HiGHS's "infeasible" without such a ray is a SolverError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import InvalidInput, NotInConvexOrder, SolverError
from .geometry import as_points
from .measures import DiscreteMeasure, _axis_zeros, _Scaled, _scaled
from .tolerance import GEO, POLAR, RESIDUAL, ROUND, SOLVER_FEAS, extent


# each atom's nearest atoms of the other measure whose pairs
# ``find_coupling``'s first LP poses (``_shortlist``)
NEAREST = 16


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
        """The coupling of ``to_json``'s dict.  The supports must be
        finite (n, d) and (m, d) point lists of one d, and the matrix
        n x m with finite nonnegative entries; anything else raises
        InvalidInput."""
        try:
            mu_s = np.asarray(data["mu_support"], dtype=float)
            nu_s = np.asarray(data["nu_support"], dtype=float)
            mat = np.asarray(data["matrix"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed coupling JSON: {exc}") from exc
        if mu_s.ndim != 2 or nu_s.ndim != 2 or mu_s.shape[1] != nu_s.shape[1]:
            raise InvalidInput(
                f"coupling supports must be point lists of one dimension, "
                f"got shapes {mu_s.shape} and {nu_s.shape}"
            )
        mu_s, nu_s = as_points(mu_s), as_points(nu_s)
        if mat.shape != (mu_s.shape[0], nu_s.shape[0]):
            raise InvalidInput("coupling matrix shape does not match supports")
        if not (np.isfinite(mat).all() and (mat >= 0).all()):
            raise InvalidInput("coupling matrix entries must be finite and nonnegative")
        return cls(mu_s, nu_s, mat)


def _constraint_system(mu, nu, martingale=True, s=None, pairs=None):
    """Sparse coupling equalities ``A theta = b`` over theta_ij >= 0, in
    the normalised arrays of ``_scaled``: theta is mass over mu's total
    mass.  Returns A, b and the normalised instance (``_Scaled``), whose
    ``feas`` is the system's feasibility tolerance.

    One column per pair of ``pairs`` (flat indices i*m + j, in the order
    given; default every pair, so that column i*m + j is theta_ij), and
    none for any other pair.  The column of theta_ij holds a 1 in row i
    (mass of mu-atom i), a 1 in row n + j (mass of nu-atom j) and, when
    ``martingale`` is set, y_j - x_i in the d rows from n + m + d*i on
    (barycenter of row i).  ``A`` is an ``lp.CscMatrix`` written
    directly from these indices; no ``scipy.sparse`` object is built.
    ``s``: the instance's ``_scaled`` arrays, where the caller has them.
    """
    s = _scaled(mu, nu, martingale) if s is None else s
    n, m = mu.n_atoms, nu.n_atoms
    d = mu.ambient_dim if martingale else 0
    i, j = np.divmod(np.arange(n * m) if pairs is None else pairs, m)
    k, per_col = i.size, 2 + d
    indices = np.empty((k, per_col), dtype=np.int32)
    indices[:, 0] = i
    indices[:, 1] = n + j
    data = np.ones((k, per_col))
    if martingale:
        indices[:, 2:] = (n + m + d * i)[:, None] + np.arange(d)
        # np.take: a tenth of fancy indexing's time on 38 025 pairs
        data[:, 2:] = np.take(s.y, j, axis=0) - np.take(s.x, i, axis=0)
    indptr = np.arange(0, per_col * k + 1, per_col, dtype=np.int32)
    A = lp.CscMatrix(data.ravel(), indices.ravel(), indptr, (n + m + d * n, k))
    b = np.concatenate([s.mu_w, s.nu_w, np.zeros(d * n)])
    return A, b, s


def _highs(c, A, b, s: _Scaled, cols=None):
    """min c @ x subject to A x = b and x >= 0 (``lp.highs``), where
    A and b are the system of ``_constraint_system`` over the pairs
    ``cols`` (default every pair) of the normalised instance s, at its
    feasibility tolerance s.feas (HiGHS's default, SOLVER_FEAS, leaves
    residuals above RESIDUAL on gaussian_grid(9)).

    Returns the optimal x and None.  Where the system has no solution it
    returns None and the pairs that break its Farkas ray (``_broken``),
    which raises NotInConvexOrder where no pair does and SolverError
    where the ray is missing or fails its check.  HiGHS takes no model
    without columns; a system over no pair needs no LP, as the ray that
    is 1 on every mass row and 0 on the barycentre rows has A^T y = 0
    and b^T y = 2.  ``lp.highs`` raises SolverError on any outcome but
    an optimum or an infeasible model.
    """
    if A.shape[1] == 0:
        ray = np.zeros(b.size)
        ray[: s.mu_w.size + s.nu_w.size] = 1.0
    else:
        res = lp.highs(c, A, b, b, feas_tol=s.feas, what="coupling LP")
        if res.status is lp.LpStatus.OPTIMAL:
            return res.solution, None
        ray = res.ray
    return None, _broken(s, b, ray, cols)


def _broken(s: _Scaled, b, y, cols=None) -> np.ndarray:
    """The pairs, as sorted flat indices i*m + j, that break y as a
    Farkas ray of the system A theta = b, theta >= 0 of
    ``_constraint_system`` over every pair, where the LP over the pairs
    ``cols`` (default every pair) returned it.

    The price of pair (i, j) is a_ij^T y = y_i + y_(n+j) + h_i . (y_j - x_i),
    with h_i the entries of y on mu-atom i's barycentre rows, computed
    for every pair at once in O(n m d) numpy work, and its margin is
    b^T y, with y scaled to a largest entry of 1.  Every coupling theta
    has nonnegative entries summing to 1, the normalised mass, so
    b^T y = sum theta_ij a_ij^T y is at most the largest price of a pair
    it charges: where every pair is priced below the margin, less the
    round-off of a price (ROUND), no coupling exists.  In the terms of a
    martingale, y is then a superhedge psi(y) + phi(x) + h(x) . (y - x)
    that costs less on every pair than its value under mu and nu: a
    model-free arbitrage (Acciaio, Beiglböck, Penkner & Schachermayer
    2016).  So y must certify that the LP over ``cols`` has no solution,
    and anything else (no ray, a ray with no finite nonzero entry, a
    margin of at most 0, a pair of ``cols`` priced up to the margin)
    raises SolverError.  A pair priced up to the margin breaks the ray;
    where none does, NotInConvexOrder is raised, as y certifies it over
    every pair.
    """
    top = 0.0 if y is None else float(np.maximum.reduce(np.abs(y), initial=0.0))
    if not 0.0 < top < np.inf:
        raise SolverError("coupling LP infeasible without a dual ray")
    y = y / top
    n, m = s.mu_w.size, s.nu_w.size
    d = (y.size - n - m) // n  # 0 for the system without barycentre rows
    h = y[n + m :].reshape(n, d)
    price = (
        y[:n, None] + y[n : n + m] + h @ s.y[:, :d].T - np.add.reduce(h * s.x[:, :d], axis=1)[:, None]
    ).ravel()
    margin = float(b @ y) - ROUND
    posed = np.maximum.reduce(price if cols is None else price[cols], initial=0.0)
    if not posed < margin:
        raise SolverError(
            f"coupling LP's dual ray fails its check: margin {margin:.3g}, "
            f"a pair posed priced {posed:.3g}"
        )
    broken = np.flatnonzero(price >= margin)
    if broken.size == 0:
        raise NotInConvexOrder(
            f"no martingale coupling exists: a Farkas ray of margin {margin:.3g} prices every pair"
        )
    return broken


def find_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """Any feasible martingale coupling; raises NotInConvexOrder if none.

    Answered by the first of these steps that applies:
    1. a coordinate line that refutes the order raises NotInConvexOrder
       (``_projection_filter``);
    2. the tight coupling at which the filter stops: the pairs kept after
       an axis force it, and its defects are within the lines'
       refutation level (``_tight``), so it passes ``_certify`` and no
       axis left could refute the order;
    3. in dimension one, the left-curtain coupling (``_left_curtain``),
       which passes its certificate (``_certify``) or raises SolverError;
    4. in higher dimensions, the LP over the shortlist of the pairs the
       lines keep (``_shortlist``): those among each atom's NEAREST
       nearest atoms of the other measure.  Where it has no solution,
       the pairs that break HiGHS's Farkas ray join it and it is solved
       again (``_priced_coupling``), and a ray that no pair breaks
       certifies NotInConvexOrder over every pair (``_broken``).  The
       normalised solution is checked before its roundoff is clipped
       to 0.
    Only step 4 solves LPs.  The answer is scaled back to mu's total
    mass.
    """
    s = _scaled(mu, nu)
    keep, _, theta = _projection_filter(mu, nu, s)
    if theta is None and mu.ambient_dim == 1:
        theta = _left_curtain(s)
    elif theta is None:
        theta = _priced_coupling(mu, nu, s, _shortlist(s, keep))
    return Coupling(mu.points.copy(), nu.points.copy(), theta * s.mass)


def _shortlist(s: _Scaled, keep) -> np.ndarray:
    """The pairs that ``find_coupling``'s LP poses first, as sorted flat
    indices i*m + j: those of ``keep`` (an n x m boolean matrix, the
    pairs the lines keep) that are among mu-atom i's NEAREST nearest
    nu-atoms or nu-atom j's NEAREST nearest mu-atoms, by Euclidean
    distance in the normalised arrays (the shortlist method of
    Gottschlich & Schuhmacher 2014).  Where n or m is at most NEAREST,
    every pair is among them, so the shortlist is ``keep`` and no
    distance is computed.  Otherwise it costs one n x m distance matrix
    and a partial sort along each axis."""
    n, m = keep.shape
    if min(n, m) > NEAREST:
        gap = s.x[:, None, :] - s.y
        dist = np.add.reduce(gap * gap, axis=2)
        near = np.zeros((n, m), dtype=bool)
        np.put_along_axis(near, np.argpartition(dist, NEAREST - 1, axis=1)[:, :NEAREST], True, 1)
        np.put_along_axis(near, np.argpartition(dist, NEAREST - 1, axis=0)[:NEAREST], True, 0)
        keep = keep & near
    return np.flatnonzero(keep)


def _priced_coupling(mu, nu, s: _Scaled, cols) -> np.ndarray:
    """A certified normalised coupling (``_certify``) from the LP over
    the pairs ``cols``, or NotInConvexOrder.  Where that LP has no
    solution, the pairs that break its Farkas ray join ``cols`` and it
    is solved again (``_highs``).  Each round adds pairs the ray was
    checked on none of, so the loop ends, at the latest with every pair
    posed, and a ray that no pair breaks certifies over every pair that
    no coupling exists.  The solution's round-off is clipped to 0 after
    the certificate."""
    theta = np.zeros(mu.n_atoms * nu.n_atoms)
    while True:
        A, b, _ = _constraint_system(mu, nu, s=s, pairs=cols)
        x, broken = _highs(np.zeros(cols.size), A, b, s, cols)
        if x is not None:
            break
        cols = np.union1d(cols, broken)
    theta[cols] = x
    _certify(s, theta)
    return np.maximum(theta, 0.0).reshape(mu.n_atoms, nu.n_atoms)


def _pattern(s: _Scaled, keep):
    """The normalised coupling that the pairs ``keep`` (an n x m boolean
    matrix) force where each nu-atom keeps exactly one mu-atom: theta_ij
    = nu_j on them and 0 elsewhere, the only one that charges no other
    pair.  None where some nu-atom keeps none or several."""
    # exactly one per column: m pairs in all, and no column without one
    if np.count_nonzero(keep) != keep.shape[1] or not np.logical_and.reduce(
        np.logical_or.reduce(keep, axis=0)
    ):
        return None
    return np.where(keep, s.nu_w, 0.0)


def _tight(s: _Scaled, theta) -> bool:
    """Whether the normalised coupling theta, whose columns are nu and
    whose entries are nonnegative, misses mu and the martingale rows by at
    most the refutation level of a line, ``s.feas``:
    sum_i |r_i - mu_i| + sum_i |b_i| <= s.feas, with r_i the row sums and
    b_i = sum_j theta_ij (Y_j - X_i) / scale the row barycentre defects in
    the instance's own frame (Euclidean norms).  The arrays of ``_scaled``
    centre mu and nu on their own barycentres, so |b_i| is bounded by
    |theta @ y - r x|_i plus r_i times the distance between the
    barycentres (``s.shift``).

    A tight coupling passes ``_certify``: each of its residuals is at
    most that sum, and s.feas <= RESIDUAL.  And no line refutes the
    order: along a unit vector v, at the projection a of any atom,
    u_nu(a) = sum_ij theta_ij |<v, Y_j> - a| >= sum_i |r_i (<v, X_i> - a) + <v, b_i>|
    by the triangle inequality, and |<v, X_i> - a| is at most the
    extent, so u_nu(a) - u_mu(a) is at least -sum_i (|r_i - mu_i| + |b_i|)
    times mass and extent: no lower than the level below which
    ``_axis_zeros`` refutes."""
    add = np.add.reduce
    rows = add(theta, axis=1)
    defect = theta @ s.y - rows[:, None] * s.x
    gap = add(np.abs(rows - s.mu_w)) + add(np.sqrt(add(defect * defect, axis=1)))
    return float(gap) + float(add(rows)) * s.shift <= s.feas


def _left_curtain(s: _Scaled):
    """The normalised left-curtain coupling of a 1-D instance (Beiglböck
    & Juillet 2016): the mu-atoms, left to right, each send their mass
    to their shadow in what is left of nu.  The shadow of mass a at x is
    the window [t, t + a] of quantile levels of the remaining nu whose
    mean is x.  Taken in increasing order, the remaining nu-atoms have
    cumulative masses M and first moments Q, and the first moment of the
    levels below l is Q interpolated against M at l.  The window's first
    moment Q(t + a) - Q(t) is then nondecreasing in t and linear between
    the knots where t or t + a is in M, so t, where it equals a x, is
    interpolated between two knots.  It must pass ``_certify``, which
    raises SolverError where it does not."""
    order = np.argsort(s.y[:, 0])
    # nu in increasing order, after a massless atom at 0 so that M and Q
    # start at level 0
    y = np.concatenate([[0.0], s.y[order, 0]])
    left = np.concatenate([[0.0], s.nu_w[order]])
    rows = np.zeros((s.mu_w.size, y.size - 1))
    for i in np.argsort(s.x[:, 0]):
        a = s.mu_w[i]
        M, Q = left.cumsum(), (left * y).cumsum()
        knots = np.concatenate([M, M - a]).clip(0.0, M[-1] - a)
        knots.sort()
        window = np.interp(knots + a, M, Q) - np.interp(knots, M, Q)
        t = np.interp(a * s.x[i, 0], window, knots)
        ends = M.clip(t, t + a)
        rows[i] = ends[1:] - ends[:-1]
        np.maximum(left[1:] - rows[i], 0.0, out=left[1:])  # no round-off below 0
    theta = np.empty_like(rows)
    theta[:, order] = rows
    _certify(s, theta)
    return theta


def _martingale_defect(theta, x, y) -> float:
    """max |theta @ y - rowsum * x|: the largest row barycenter residual
    sum_j theta_ij (y_j - x_i) of the n x m matrix theta, over every
    coordinate (0 for no rows)."""
    defect = theta @ y - np.add.reduce(theta, axis=1)[:, None] * x
    return float(np.maximum.reduce(np.abs(defect), axis=None, initial=0.0))


def _residual(s: _Scaled, theta) -> float:
    """max |A theta - b| of the normalised martingale system
    (``_constraint_system``) of the instance s, from the normalised
    theta as an n x m matrix: row sums minus mu, column sums minus nu,
    and the row barycenter residuals (``_martingale_defect``)."""
    theta = theta.reshape(s.mu_w.shape[0], s.nu_w.shape[0])
    add, top = np.add.reduce, np.maximum.reduce
    return max(
        float(top(np.abs(add(theta, axis=1) - s.mu_w))),
        float(top(np.abs(add(theta, axis=0) - s.nu_w))),
        _martingale_defect(theta, s.x, s.y),
    )


def _certify(s: _Scaled, theta) -> float:
    """Raise SolverError unless the normalised theta is a martingale
    coupling of the instance s within RESIDUAL (``_residual``) with no
    entry below minus the system's feasibility tolerance; a NaN entry
    fails both tests.  Returns the residual."""
    residual = _residual(s, theta)
    lowest = float(np.minimum.reduce(theta, axis=None))
    if not (residual <= RESIDUAL and lowest >= -s.feas):
        raise SolverError(
            f"coupling fails its certificate: residual {residual:.3g}, "
            f"lowest entry {lowest:.3g}"
        )
    return residual


def _atom_index(k, n: int) -> int:
    """k as the index of one of n atoms: an integer (``np.int64`` too)
    in range(n), else InvalidInput."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidInput(f"atom index {k!r} is not an integer") from None
    if not 0 <= k < n:
        raise InvalidInput(f"atom index {k} out of range for {n} atoms")
    return k


def _extreme_entry(A, b, s: _Scaled, k, sign) -> float:
    """max (sign 1) or min (sign -1) of theta_k over {A theta = b, theta >= 0},
    the system over every pair of the instance s, in the units of b; a
    zero is +0.0, whatever sign the LP gave it."""
    c = np.zeros(A.shape[1])
    c[k] = -sign
    return float(_highs(c, A, b, s)[0][k]) + 0.0


def max_mass_on_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int, martingale: bool = True
) -> float:
    """max theta_ij over all (martingale) couplings; the pair is polar
    iff the value is at most ``tolerance.POLAR`` times the total mass."""
    i, j = _atom_index(i, mu.n_atoms), _atom_index(j, nu.n_atoms)
    A, b, s = _constraint_system(mu, nu, martingale)
    return _extreme_entry(A, b, s, i * nu.n_atoms + j, 1.0) * s.mass


def min_mass_on_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int, martingale: bool = True
) -> float:
    """min theta_ij over all (martingale) couplings."""
    i, j = _atom_index(i, mu.n_atoms), _atom_index(j, nu.n_atoms)
    A, b, s = _constraint_system(mu, nu, martingale)
    return _extreme_entry(A, b, s, i * nu.n_atoms + j, -1.0) * s.mass


def polar_matrix(
    mu: DiscreteMeasure, nu: DiscreteMeasure, martingale: bool = True
) -> np.ndarray:
    """Matrix of max theta_ij over all pairs (one LP per pair)."""
    A, b, s = _constraint_system(mu, nu, martingale)
    out = [_extreme_entry(A, b, s, k, 1.0) for k in range(A.shape[1])]
    return np.array(out).reshape(mu.n_atoms, nu.n_atoms) * s.mass


def max_support_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Non-polar mask and a martingale coupling positive on exactly it,
    from the max-support LP over every pair (``_max_support``)."""
    return _max_support(mu, nu, _scaled(mu, nu), np.arange(mu.n_atoms * nu.n_atoms))


def _max_support(mu, nu, inst: _Scaled, cols: np.ndarray):
    """Non-polar mask and a certified martingale coupling positive on
    exactly it, from one LP (Freund, Roundy & Todd 1985) over the pairs
    ``cols`` (flat indices i*m + j), whose columns alone
    ``_constraint_system`` writes; every other pair is held at zero.

    The LP is posed over z_ij = theta_ij / w_ij with w_ij = min(mu_i,
    nu_j), the largest mass the pair can carry:
    max sum s subject to A W y = tau b, 0 <= s <= 1, s <= y, tau >= 0,
    posed with y = s + t, t >= 0.  An optimum has s_ij = 1 on every pair
    some coupling charges and s_ij = 0 elsewhere, so the mask is s > 1/2
    and W y / tau is a coupling of maximal support.  Without W, tau grows
    like one over the smallest charged mass (2.5e7 on gaussian_grid(7)),
    and on gaussian_grid(9) HiGHS ends with status "Unknown".  Each row
    is posed per unit of its atom's mass: a mass row over its right-hand
    side, the barycentre rows of mu-atom i over mu_i.  Every column then
    holds a 1 in one mass row, which HiGHS's drop of entries of at most
    1e-9 cannot empty, and tau a -1 in every mass row; posed without
    it, gaussian_grid(11) ends in status "Not Set".  The LP answers
    only the mask: it runs at SOLVER_FEAS, coarser than ``inst.feas``,
    and the pairs out of ``cols`` may carry up to POLAR of the mass.
    So where its optimum marks no pair, or its certified coupling misses
    the system by more than ``inst.feas``, ``find_coupling`` decides the
    order (NotInConvexOrder from ``_scaled``, ``_axis_zeros`` or
    ``_highs``); where it holds, no pair at all is a SolverError.
    """
    n, m, k = mu.n_atoms, nu.n_atoms, cols.size
    A, _, _ = _constraint_system(mu, nu, s=inst, pairs=cols)
    w = np.minimum(inst.mu_w[:, None], inst.nu_w[None, :]).ravel()[cols]
    mass = np.concatenate([inst.mu_w, inst.nu_w, np.repeat(inst.mu_w, mu.ambient_dim)])
    data = (A.data.reshape(-1, 2 + mu.ambient_dim) * w[:, None]).ravel() / mass[A.indices]
    nnz = data.shape[0]
    # columns [s | t | tau]
    big = lp.CscMatrix(
        np.concatenate([data, data, np.full(n + m, -1.0)]),
        np.concatenate([A.indices, A.indices, np.arange(n + m, dtype=np.int32)]),
        np.concatenate([A.indptr, A.indptr[1:] + nnz, [2 * nnz + n + m]]),
        (A.shape[0], 2 * k + 1),
    )
    c = np.zeros(2 * k + 1)
    c[:k] = -1.0
    upper = np.full(2 * k + 1, np.inf)
    upper[:k] = 1.0
    # zero is feasible, so an infeasible report is a solver failure
    zero = np.zeros(A.shape[0])
    res = lp.highs(c, big, zero, zero, upper=upper, feas_tol=SOLVER_FEAS, what="coupling LP")
    if res.status is not lp.LpStatus.OPTIMAL:
        raise SolverError(f"coupling LP not solved: HiGHS reports it {res.status.value}")
    x = res.solution
    s, tau = x[:k], x[-1]
    mask = np.zeros(n * m, dtype=bool)
    mask[cols] = s > 0.5
    mask = mask.reshape(n, m)
    if not mask.any():
        find_coupling(mu, nu)
        raise SolverError("coupling LP not solved: the pairs kept carry no coupling")
    if not mask.any(axis=1).all():
        raise SolverError("max-support LP left a mu-atom without any pair")
    theta = np.zeros(n * m)
    theta[cols] = w * (s + x[k : 2 * k]) / tau
    if _certify(inst, theta) > inst.feas:
        find_coupling(mu, nu)
    return mask, Coupling(mu.points.copy(), nu.points.copy(), theta.reshape(n, m) * inst.mass)


def nonpolar_mask(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Boolean matrix marking the non-polar pairs; raises NotInConvexOrder
    if there is no martingale coupling.  The pairs some coordinate
    projection proves polar are dropped first (``_projection_filter``).
    In dimension one, where the axis's bound holds, the pairs left are
    the mask (Beiglböck, Nutz & Touzi 2017), certified by the superhedge
    of its zeros (``_certify_polar``) with no LP.  Where the filter
    stops on a tight forced coupling (``_tight``), that coupling passes
    ``_certify`` and is positive on exactly the pairs left, the axes'
    superhedges certify the pairs dropped, and no axis left could refute
    the order, so the pairs left are the mask, again with no LP.
    Otherwise the mask is the max-support LP's (``_max_support``) over
    the pairs left, where the order holds."""
    inst = _scaled(mu, nu)
    keep, zeros, theta = _projection_filter(mu, nu, inst)
    if mu.ambient_dim == 1 and zeros[0] is not None:
        _certify_polar(mu, nu, keep, zeros[0], inst)
        return keep
    if theta is not None:
        return keep
    return _max_support(mu, nu, inst, np.flatnonzero(keep))[0]


def _axis_mask(x, mu_w, y, nu_w, inst: _Scaled):
    """The 1-D rule on one line, where mu's and nu's atoms lie at x and y
    with weights mu_w and nu_w: the zeros of u_nu - u_mu are
    ``measures._axis_zeros``'s at the instance's scales, which raises
    NotInConvexOrder where that line refutes the order.

    Returns the pairs (i, j) whose y_j lies in the closed component of
    x_i (between the zeros on either side of x_i, or at x_i when it is a
    zero), widened by GEO times the extent; the positions of those
    zeros; their superhedge's cost, the sum of u_nu - u_mu over them;
    and the least value it takes off the mask (``_projection_filter``),
    infinite on a full mask.  That superhedge gains 2 |y_j - z| where
    y_j lies past the zero z bounding the component x_i lies strictly
    inside, and |y_j - z| where x_i is z itself.  The n x m distances
    past the zeros add O(n m) to the zero rule's O((n + m)^2) work.
    """
    bps, vals, _, left, right = _axis_zeros(x, mu_w, y, nu_w, inst)
    at = bps.searchsorted(x)
    first, last = left[at], right[at]
    past = np.maximum(bps[first][:, None] - y, y - bps[last][:, None])
    mask = past <= GEO * inst.scale
    factor = 2.0 - (first == last)  # 1 where x_i is itself the zero
    least = np.minimum.reduce(past * factor[:, None], axis=None, initial=np.inf, where=~mask)
    used = np.zeros(bps.size, dtype=bool)
    used[first] = used[last] = True
    return mask, bps[used], np.add.reduce(vals[used]), least


def _projection_filter(mu: DiscreteMeasure, nu: DiscreteMeasure, inst: _Scaled):
    """The pairs that no coordinate projection read proves polar, as an
    n x m boolean matrix; per axis read, the positions of the zeros that
    certify what it drops, or None where its bound fails and it drops
    nothing; and the normalised coupling the filter stopped on, or None.

    Projected on axis k, a martingale coupling is a 1-D martingale
    coupling of the projected marginals, so the 1-D rule (``_axis_mask``)
    drops the pairs whose y_j lies, on that axis, outside the closed
    component of x_i.  The superhedge of the axis's zeros a,
    H(x, y) = sum over a of |y_k - a| - |x_k - a| - sign(x_k - a) (y_k - x_k),
    is nonnegative, and every martingale coupling gives it the cost
    sum (u_nu - u_mu)(a) over the projections, so the mass on the pairs
    dropped is at most that cost over the least H on them.  An axis
    drops its pairs only where that bound is at most POLAR times the mass.

    The axes are read in order, and the filter stops after the first one,
    whether its bound held or not, at which the pairs kept force a tight
    coupling (``_pattern`` and ``_tight``): it passes ``_certify``, and it
    keeps u_nu - u_mu above the refutation level of ``_axis_zeros`` on any
    line, so no axis left could refute the order.  It is returned, to be
    the answer of ``find_coupling`` and ``nonpolar_mask``.  Otherwise the
    axes left are read, as they may refute the order.
    """
    keep = np.ones((mu.n_atoms, nu.n_atoms), dtype=bool)
    zeros = []
    for k in range(mu.ambient_dim):
        mask, z, cost, least = _axis_mask(
            mu.points[:, k], mu.weights, nu.points[:, k], nu.weights, inst
        )
        if cost <= POLAR * inst.mass * least:
            keep &= mask
        else:
            z = None
        zeros.append(z)
        theta = _pattern(inst, keep)
        if theta is not None and _tight(inst, theta):
            return keep, zeros, theta
    return keep, zeros, None


def _certify_polar(mu, nu, mask, zeros, inst: _Scaled):
    """Raise SolverError unless the 1-D mask is certified by the
    superhedge of the zeros a of u_nu - u_mu: psi(y) = sum |y - a|,
    phi(x) = - sum |x - a|, h(x) = sum sign(x - a).  Its value
    H = psi(y) + phi(x) - h(x) (y - x) is nonnegative by convexity, and
    every martingale coupling gives it the cost
    <nu, psi> + <mu, phi> = sum (u_nu - u_mu)(a), so it puts at most
    that cost over the least H off the mask on the pairs off the mask.
    The check, with the mask's own position tolerance tol, GEO times the
    instance's extent: every row of the mask holds a pair, -tol <= H <=
    2 tol on the mask (a nu-atom up to tol past a zero), H > tol off it,
    and the mass off it is at most POLAR times the total mass, the least
    mass of a transport.  With z <= n + m zeros, O((n + m) z + n m)
    work, at most O((n + m)^2)."""
    x, y = mu.points[:, 0], nu.points[:, 0]
    tol = GEO * inst.scale
    add = np.add.reduce
    dx = x[:, None] - zeros
    psi = add(np.abs(y[:, None] - zeros), axis=1)
    phi = -add(np.abs(dx), axis=1)
    H = psi + phi[:, None] - add(np.sign(dx), axis=1)[:, None] * (y - x[:, None])
    cost = float(nu.weights @ psi + mu.weights @ phi)
    # the extremes of H on and off the mask (infinite where there is no
    # entry), for the bounds every entry must meet
    on_lo = np.minimum.reduce(H, axis=None, initial=np.inf, where=mask)
    on_hi = np.maximum.reduce(H, axis=None, initial=-np.inf, where=mask)
    off_lo = np.minimum.reduce(H, axis=None, initial=np.inf, where=~mask)
    if not (
        np.logical_and.reduce(np.logical_or.reduce(mask, axis=1))
        and on_lo >= -tol
        and on_hi <= 2 * tol
        and off_lo > tol
        and cost <= POLAR * inst.mass * off_lo
    ):
        raise SolverError(f"1-D non-polar mask fails its superhedge certificate (cost {cost:.3g})")


def reachable_set(mu: DiscreteMeasure, nu: DiscreteMeasure, i: int) -> np.ndarray:
    """nu-atoms reachable from mu-atom i under some coupling, plus x_i
    itself (the barycenter constraint puts x_i in the hull anyway)."""
    i = _atom_index(i, mu.n_atoms)
    mask = nonpolar_mask(mu, nu)
    pts, x = nu.points[mask[i]], mu.points[i]
    if not (np.abs(pts - x).max(axis=1) <= GEO * extent(mu.points, nu.points)).any():
        pts = np.vstack([pts, x])
    return pts

"""Output checks computed apart from the program, with numpy and scipy only.

Nothing here imports ``mot``.  Hulls get their own H-representation
(SVD for the affine hull, ``scipy.spatial.ConvexHull`` for the facets),
relative-interior overlaps are decided by ``scipy.optimize.linprog``
(HiGHS), and one-dimensional potentials are evaluated in numpy.

Tolerances, beside the program's own: the program decides rank,
membership and tightness at 1e-9 (``TAU_GEO``) and strict positivity at
1e-7 (``EPS_RI``); its LP solutions are feasible to 1e-9 (``TAU_LP``).

Each check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

# scipy is imported where it is used, so that importing this module adds
# nothing to a run's set-up time beyond what the program itself imports.

RANK_TOL = 1e-9  # affine rank, as the program's TAU_GEO
MEMBER_TOL = 1e-9  # closed membership: facet slack and off-hull residual
RI_MARGIN = 1e-9  # relative interior: every facet slack at least this
RI_OVERLAP = 1e-7  # smallest barycentric weight of a common point, as EPS_RI
RESIDUAL_TOL = 1e-8  # coupling marginal and martingale residuals
POSITIVE_MASS = 1e-8  # a coupling entry above this is a transport, as EPS_POLAR
MATCH_TOL = 1e-7  # equality of points, vertex sets and interval ends
MASS_TOL = 1e-9  # equality of weights; barycentre-face outside mass
AFFINE_TOL = 1e-9  # a PWL piece agrees with phi at a vertex


class Hull:
    """conv(vertices) as an affine frame plus facet inequalities A u + b <= 0
    with unit normals, in the frame's coordinates u."""

    def __init__(self, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.vertices = V
        self.base = V.mean(axis=0)
        C = V - self.base
        if V.shape[0] == 1:
            self.basis = np.zeros((0, V.shape[1]))
        else:
            _, s, vt = np.linalg.svd(C, full_matrices=False)
            self.basis = vt[: int(np.sum(s > RANK_TOL))]
        self.dim = self.basis.shape[0]
        U = C @ self.basis.T
        if self.dim == 0:
            self.A, self.b = np.zeros((0, 0)), np.zeros(0)
        elif self.dim == 1:
            self.A = np.array([[1.0], [-1.0]])
            self.b = np.array([-U[:, 0].max(), U[:, 0].min()])
        else:
            from scipy.spatial import ConvexHull

            eq = ConvexHull(U).equations
            self.A, self.b = eq[:, :-1], eq[:, -1]

    def _frame(self, x):
        d = np.asarray(x, dtype=float) - self.base
        u = self.basis @ d
        return float(np.linalg.norm(d - u @ self.basis)), self.A @ u + self.b

    def contains(self, x, tol=MEMBER_TOL) -> bool:
        off, viol = self._frame(x)
        return off <= tol and bool(np.all(viol <= tol))

    def in_relative_interior(self, x, margin=RI_MARGIN) -> bool:
        off, viol = self._frame(x)
        return off <= MEMBER_TOL and bool(np.all(viol < -margin))


def same_points(a, b, tol=MATCH_TOL) -> bool:
    """Equal as finite point sets (each point of one within tol of one of the other)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return False
    d = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2) <= tol
    return bool(np.all(d.any(axis=1)) and np.all(d.any(axis=0)))


def hull_vertices(points) -> np.ndarray:
    """Extreme points of a full-dimensional point set (or the ends in 1-D)."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.shape[1] == 1:
        return np.array([[P[:, 0].min()], [P[:, 0].max()]])
    from scipy.spatial import ConvexHull

    return P[ConvexHull(P).vertices]


def relative_interiors_meet(V, W) -> bool:
    """Some point is a convex combination of V and of W with every weight
    above RI_OVERLAP: max s over lambda, mu >= s, one LP."""
    from scipy.optimize import linprog

    V, W = np.asarray(V, dtype=float), np.asarray(W, dtype=float)
    if np.any(V.min(0) > W.max(0) + MEMBER_TOL) or np.any(W.min(0) > V.max(0) + MEMBER_TOL):
        return False
    k, r, d = V.shape[0], W.shape[0], V.shape[1]
    n = k + r + 1
    A_eq = np.zeros((d + 2, n))
    A_eq[:d, :k], A_eq[:d, k : k + r] = V.T, -W.T
    A_eq[d, :k] = 1.0
    A_eq[d + 1, k : k + r] = 1.0
    b_eq = np.concatenate([np.zeros(d), [1.0, 1.0]])
    A_ub = np.hstack([-np.eye(k + r), np.ones((k + r, 1))])  # s - weight <= 0
    c = np.zeros(n)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k + r), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (k + r) + [(0, 1)], method="highs")
    if res.status == 2:  # infeasible: the hulls do not even meet
        return False
    if res.status != 0:
        raise RuntimeError(f"overlap LP did not solve: {res.message}")
    return -res.fun > RI_OVERLAP


# ---- pavings and couplings ---------------------------------------------


def paving_errors(mu_pts, mu_w, nu_pts, nu_w, paving: dict) -> list:
    """Invariants every paving must have, given as the program's JSON."""
    errs = []
    n = len(mu_pts)
    cells = paving["cells"]
    listed = sorted([i for c in cells for i in c["members"]] + list(paving["singletons"]))
    if listed != list(range(n)):
        errs.append(f"mu-atoms not listed exactly once: {listed} for {n} atoms")
    hulls = [Hull(c["hull_vertices"]) for c in cells]
    for c, h in zip(cells, hulls):
        if h.dim != c["affine_dim"] or h.dim == 0:
            errs.append(f"cell {c['members']}: affine_dim {c['affine_dim']}, hull has {h.dim}")
        for i in c["members"]:
            if 0 <= i < n and not h.in_relative_interior(mu_pts[i]):
                errs.append(f"member {i} not in the relative interior of its cell")
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if relative_interiors_meet(hulls[a].vertices, hulls[b].vertices):
                errs.append(f"cells {a} and {b} have intersecting relative interiors")
    errs += _outside_agreement(mu_pts, mu_w, nu_pts, nu_w, hulls)
    return errs


def _outside_agreement(mu_pts, mu_w, nu_pts, nu_w, hulls) -> list:
    def outside(pts, w):
        return [(p, wi) for p, wi in zip(pts, w) if not any(h.contains(p) for h in hulls)]

    mu_out, nu_out = outside(mu_pts, mu_w), outside(nu_pts, nu_w)
    if len(mu_out) != len(nu_out):
        return [f"{len(mu_out)} mu-atoms but {len(nu_out)} nu-atoms outside the cells"]
    used = [False] * len(nu_out)
    for p, w in mu_out:
        hit = next(
            (j for j, (q, v) in enumerate(nu_out)
             if not used[j] and np.max(np.abs(p - q)) <= MATCH_TOL and abs(w - v) <= MASS_TOL),
            None,
        )
        if hit is None:
            return [f"mu and nu differ outside the cells at {np.asarray(p).tolist()}"]
        used[hit] = True
    return []


def coupling_errors(mu_pts, mu_w, nu_pts, nu_w, matrix) -> list:
    """Nonnegative, right marginals, and every row's barycentre at its atom."""
    M = np.asarray(matrix, dtype=float)
    errs = []
    if M.shape != (len(mu_pts), len(nu_pts)):
        return [f"coupling shape {M.shape}, expected {(len(mu_pts), len(nu_pts))}"]
    if M.min() < 0.0:
        errs.append(f"negative coupling entry {M.min()}")
    row = np.max(np.abs(M.sum(axis=1) - mu_w))
    col = np.max(np.abs(M.sum(axis=0) - nu_w))
    mart = np.max(np.abs(M @ nu_pts - M.sum(axis=1)[:, None] * mu_pts))
    for label, r in (("row marginal", row), ("column marginal", col), ("martingale", mart)):
        if r > RESIDUAL_TOL:
            errs.append(f"{label} residual {r:.3g} > {RESIDUAL_TOL}")
    return errs


def confinement_errors(mu_pts, nu_pts, paving: dict, transports, label) -> list:
    """Every (i, j, mass) with mass > POSITIVE_MASS ends in the closed hull
    of i's cell, or at x_i when i is a singleton."""
    hull_of = {}
    for c in paving["cells"]:
        h = Hull(c["hull_vertices"])
        for i in c["members"]:
            hull_of[i] = h
    errs = []
    for i, j, mass in transports:
        if mass <= POSITIVE_MASS:
            continue
        h = hull_of.get(i)
        ok = (
            h.contains(nu_pts[j])
            if h is not None
            else np.max(np.abs(nu_pts[j] - mu_pts[i])) <= MEMBER_TOL
        )
        if not ok:
            errs.append(f"{label} moves mass {mass:.3g} from mu-atom {i} out of its cell to nu-atom {j}")
    return errs


def matrix_transports(matrix):
    M = np.asarray(matrix, dtype=float)
    return [(int(i), int(j), float(M[i, j])) for i, j in np.argwhere(M > POSITIVE_MASS)]


def kernel_transports(mu_pts, nu_pts, triples):
    """(x, y, mass) in point space -> (i, j, mass) over the atoms; a point
    that is no atom gets index -1, which kernel_errors rejects."""

    def index(pts, p):
        d = np.max(np.abs(np.asarray(pts) - p), axis=1)
        k = int(np.argmin(d))
        return k if d[k] <= MATCH_TOL else -1

    return [(index(mu_pts, x), index(nu_pts, y), float(m)) for x, y, m in triples]


def kernel_errors(mu_pts, mu_w, nu_pts, nu_w, transports) -> list:
    """The construction kernel itself is a martingale coupling of (mu, nu)."""
    if any(i < 0 or j < 0 for i, j, _ in transports):
        return ["construction kernel moves mass between points that are no atoms"]
    M = np.zeros((len(mu_pts), len(nu_pts)))
    for i, j, mass in transports:
        M[i, j] += mass
    return [f"construction kernel: {e}" for e in coupling_errors(mu_pts, mu_w, nu_pts, nu_w, M)]


# ---- what the theory says about particular families --------------------


def columns_errors(mu_pts, paving: dict) -> list:
    """discrete_k / continuous_grid: one vertical segment {t} x [-1, 1] per
    column, holding the one mu-atom (t, 0)."""
    errs = []
    if paving["singletons"]:
        errs.append(f"unexpected singletons {paving['singletons']}")
    if len(paving["cells"]) != len(mu_pts):
        errs.append(f"{len(paving['cells'])} cells for {len(mu_pts)} columns")
    seen = set()
    for c in paving["cells"]:
        if len(c["members"]) != 1:
            errs.append(f"column cell with members {c['members']}")
            continue
        i = c["members"][0]
        t = mu_pts[i][0]
        if not same_points(c["hull_vertices"], [[t, -1.0], [t, 1.0]]):
            errs.append(f"cell of atom {i} is not the segment at x = {t}")
        seen.add(i)
    if seen != set(range(len(mu_pts))):
        errs.append("some column has no cell")
    return errs


def mixed_errors(mu_pts, paving: dict) -> list:
    """mixed_k: the square [0,1] x [-1,1] plus the segments at x = 0 and x = 1,
    the segments holding the end columns and the square everything else."""
    cells = paving["cells"]
    if len(cells) != 3 or paving["singletons"]:
        return [f"{len(cells)} cells and singletons {paving['singletons']}, expected 3 cells"]
    shapes = {
        "square": [[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]],
        "left": [[0.0, -1.0], [0.0, 1.0]],
        "right": [[1.0, -1.0], [1.0, 1.0]],
    }
    found = {}
    for c in cells:
        for name, verts in shapes.items():
            if same_points(c["hull_vertices"], verts):
                found[name] = sorted(c["members"])
    if set(found) != set(shapes):
        return [f"cells are not the square and two edges: found {sorted(found)}"]
    x = np.asarray(mu_pts)[:, 0]
    errs = []
    for name, t in (("left", 0.0), ("right", 1.0)):
        want = sorted(np.flatnonzero(np.abs(x - t) <= MATCH_TOL).tolist())
        if found[name] != want:
            errs.append(f"{name} edge holds {found[name]}, expected {want}")
    return errs


def gaussian_errors(mu_pts, nu_pts, paving: dict) -> list:
    """gaussian_grid: one 2-D cell holding every atom, hull = conv(supp nu)."""
    cells = paving["cells"]
    if len(cells) != 1 or paving["singletons"]:
        return [f"{len(cells)} cells and singletons {paving['singletons']}, expected one cell"]
    c = cells[0]
    errs = []
    if sorted(c["members"]) != list(range(len(mu_pts))) or c["affine_dim"] != 2:
        errs.append("the cell is not 2-D or does not hold every atom")
    if not same_points(c["hull_vertices"], hull_vertices(nu_pts)):
        errs.append("cell hull differs from conv(supp nu)")
    return errs


def potential_intervals(mu_x, mu_w, nu_x, nu_w) -> list:
    """Maximal open intervals where u_nu - u_mu > 0, u(x) = sum w |x - y|.
    The difference is linear between breakpoints and never negative, so
    each interval runs between the zero breakpoints around a positive run."""
    bps = np.unique(np.concatenate([mu_x, nu_x]))
    diff = (nu_w * np.abs(bps[:, None] - nu_x)).sum(1) - (mu_w * np.abs(bps[:, None] - mu_x)).sum(1)
    pos = diff > RANK_TOL * max(1.0, float(np.max(np.abs(bps))))
    out = []
    k = 0
    while k < len(bps):
        if pos[k]:
            start = k
            while k < len(bps) and pos[k]:
                k += 1
            out.append((float(bps[max(start - 1, 0)]), float(bps[min(k, len(bps) - 1)])))
        k += 1
    return out


def intervals_errors(expected, got, label) -> list:
    got = sorted((float(a), float(b)) for a, b in got)
    if len(got) != len(expected) or any(
        abs(a - c) > MATCH_TOL or abs(b - d) > MATCH_TOL for (a, b), (c, d) in zip(got, expected)
    ):
        return [f"{label} {got} differs from the positivity intervals {expected}"]
    return []


def one_dim_errors(mu_pts, mu_w, nu_pts, nu_w, paving: dict, domain) -> list:
    """In 1-D the cells are the positivity intervals of u_nu - u_mu, and
    so is potential_domain's answer."""
    expected = potential_intervals(mu_pts[:, 0], mu_w, nu_pts[:, 0], nu_w)
    cells = [
        (min(v[0] for v in c["hull_vertices"]), max(v[0] for v in c["hull_vertices"]))
        for c in paving["cells"]
    ]
    return intervals_errors(expected, cells, "cells") + intervals_errors(expected, domain, "potential_domain")


# ---- piecewise-linear functions and polytopes --------------------------


def component_errors(grads, offs, x, box_vertices, vertices) -> list:
    """x in the relative interior of its component; one affine piece agrees
    with phi on every vertex; the component stays in the box."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    errs = []
    if not Hull(V).in_relative_interior(x):
        errs.append("point not in the relative interior of its component")
    phi = np.max(V @ grads.T + offs, axis=1)
    gap = np.max(np.abs(V @ grads.T + offs - phi[:, None]), axis=0)
    if gap.min() > AFFINE_TOL:
        errs.append(f"no single piece agrees with phi on the component (gap {gap.min():.3g})")
    box = Hull(box_vertices)
    if not all(box.contains(v) for v in V):
        errs.append("component leaves the box")
    return errs


def hull_errors(points, vertices) -> list:
    if not same_points(vertices, hull_vertices(points)):
        return ["hull vertices differ from scipy's ConvexHull"]
    return []


def barycenter_face_errors(atoms, weights, D_vertices, face_vertices, outside_mass) -> list:
    """The face at alpha's barycentre is a face of D holding all of alpha."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    w = np.asarray(weights, dtype=float)
    F = np.atleast_2d(np.asarray(face_vertices, dtype=float))
    errs = []
    if outside_mass > MASS_TOL:
        errs.append(f"reported outside mass {outside_mass:.3g} > {MASS_TOL}")
    face = Hull(F)
    own = float(sum(wi for p, wi in zip(atoms, w) if not face.contains(p)))
    if own > MASS_TOL:
        errs.append(f"mass {own:.3g} of alpha lies outside the face")
    if not face.in_relative_interior(w @ atoms / w.sum()):
        errs.append("barycentre not in the relative interior of the face")
    D = np.asarray(D_vertices, dtype=float)
    if not all(np.min(np.max(np.abs(D - v), axis=1)) <= MATCH_TOL for v in F):
        errs.append("face vertex is not a vertex of D")
    return errs

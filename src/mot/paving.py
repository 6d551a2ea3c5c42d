"""Convex paving of a discrete martingale-transport instance.

The cell of a mu-atom x is ri conv(supp P_x), where P is a martingale
coupling of maximal support (``coupling.max_support_coupling``).  By the
paving theorem two such cells are equal or disjoint, so cells are built
by grouping atoms with equal hulls.  Every martingale coupling is
confined to them row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import Coupling, nonpolar_mask
from .errors import DimensionMismatch
from .geometry import (
    Polytope,
    as_point,
    convex_hull,
    in_relative_interior,
    relative_interiors_intersect,
)
from .measures import DiscreteMeasure
from .tolerance import GEO, POLAR, extent


@dataclass
class PavingCell:
    members: list  # indices of mu-atoms in the cell
    hull: Polytope  # closure of the cell
    affine_dim: int

    def is_singleton(self) -> bool:
        return self.hull.is_singleton()


@dataclass
class ConvexPaving:
    """Non-singleton cells plus the indices of mu-atoms whose cell is
    their own singleton; points outside every cell are singletons too."""

    cells: list  # non-singleton PavingCell
    singletons: list  # indices of mu-atoms left as singleton cells
    mu_points: np.ndarray

    def to_json(self) -> dict:
        return {
            "cells": [
                {
                    "members": list(c.members),
                    "hull_vertices": c.hull.vertices.tolist(),
                    "affine_dim": c.affine_dim,
                }
                for c in self.cells
            ],
            "singletons": list(self.singletons),
        }


def compute_paving(mu: DiscreteMeasure, nu: DiscreteMeasure) -> ConvexPaving:
    """Group the mu-atoms by the hull of their non-polar nu-atoms.

    One hull per distinct mask row; atoms whose hulls have the same
    vertices share a cell.  Cells are ordered by their smallest member
    and list their members in ascending order.
    """
    mask = nonpolar_mask(mu, nu)
    row_hulls: dict[bytes, tuple] = {}
    groups: dict[tuple, tuple] = {}
    for i, row in enumerate(mask):
        raw = row.tobytes()
        if raw not in row_hulls:
            hull = convex_hull(nu.points[row])
            # hull vertices are exact copies of nu-atoms, so equal hulls
            # have equal keys
            row_hulls[raw] = (tuple(sorted(map(tuple, hull.vertices.tolist()))), hull)
        key, hull = row_hulls[raw]
        groups.setdefault(key, (hull, []))[1].append(i)
    cells = []
    singles = []
    for hull, members in groups.values():
        if hull.is_singleton():
            singles.extend(members)
        else:
            cells.append(PavingCell(members, hull, hull.affine_dim))
    return ConvexPaving(cells, singles, mu.points.copy())


def locate(p: ConvexPaving, x) -> PavingCell:
    """The unique cell whose relative interior contains x; any other
    point gets its own singleton cell."""
    x = as_point(x, p.mu_points.shape[1])
    for cell in p.cells:
        if in_relative_interior(x, cell.hull):
            return cell
    return PavingCell([], Polytope([x], minimal=True), 0)


@dataclass
class ConfinementReport:
    """Pairs (i, j, mass) whose mass escapes the hull of i's cell, and
    pairs (a, b) of cell indices whose relative interiors intersect."""

    violations: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.overlaps


def verify_against_coupling(p: ConvexPaving, c: Coupling) -> ConfinementReport:
    """Check that every coupling entry above POLAR times the coupling's
    mass stays within the hull of its source atom's cell (within GEO
    times the extent of both supports of the atom itself, for a
    singleton), and that distinct cells have disjoint relative
    interiors.  Two cells whose vertex bounding boxes are more than that
    distance apart in some coordinate are disjoint; only the other pairs
    are decided by ``relative_interiors_intersect`` (one LP each)."""
    if c.mu_support.shape[1] != p.mu_points.shape[1]:
        raise DimensionMismatch("coupling and paving dimensions differ")
    tol = GEO * extent(c.mu_support, c.nu_support)
    transport = POLAR * c.matrix.sum()
    hull_of = {}
    for cell in p.cells:
        for i in cell.members:
            hull_of[i] = cell.hull
    report = ConfinementReport()
    for i in range(c.mu_support.shape[0]):
        hull = hull_of.get(i)
        for j in range(c.nu_support.shape[0]):
            mass = c.matrix[i, j]
            if mass <= transport:
                continue
            target = c.nu_support[j]
            if hull is None:
                inside = bool(np.max(np.abs(target - c.mu_support[i])) <= tol)
            else:
                inside = hull.contains(target)
            if not inside:
                report.violations.append((i, j, float(mass)))
    lo = np.array([cell.hull.vertices.min(axis=0) for cell in p.cells])
    hi = np.array([cell.hull.vertices.max(axis=0) for cell in p.cells])
    for a in range(len(p.cells)):
        apart = (lo[a + 1 :] > hi[a] + tol) | (hi[a + 1 :] < lo[a] - tol)
        for b in a + 1 + np.flatnonzero(~apart.any(axis=1)):
            if relative_interiors_intersect(p.cells[a].hull, p.cells[b].hull):
                report.overlaps.append((a, int(b)))
    return report

"""Convex paving of a discrete martingale-transport instance.

The cell of a mu-atom x is ri conv(supp P_x), where P is a martingale
coupling of maximal support: its support is the non-polar mask
(``coupling.nonpolar_mask``).  In every dimension the pairs that some
coordinate projection proves polar are dropped first; in dimension one,
where that projection's bound holds, the pairs left are the mask, as
they are where they leave each nu-atom to one mu-atom and so force a
tight coupling (``coupling._tight``); otherwise one LP over the pairs
left decides it.  By the paving theorem two such cells are equal or
disjoint, so cells are built by grouping atoms with equal hulls.  A mask
row's nu-atoms are distinct atoms of one measure, so its hull is the
generic hull with nothing to dedupe (``geometry._distinct_hull``), and
its vertices, some of them in nu's order, key its cell by their bytes.  A
row of two atoms, an atom split in two as on the line, is a segment: its
two atoms are its vertices and its dimension is 1, with no frame built;
any hull builds its facets only when something reads them.  Every
martingale coupling is confined to the cells row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import Coupling, nonpolar_mask
from .errors import DimensionMismatch, InvalidInput
from .geometry import (
    Polytope,
    _distinct_hull,
    as_point,
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
    groups: dict[bytes, tuple] = {}
    for i, row in enumerate(mask):
        raw = row.tobytes()
        if raw not in row_hulls:
            hull = _distinct_hull(nu.points[row])
            # nu-atoms in nu's order, undeduped: equal hulls, equal bytes
            row_hulls[raw] = (hull.vertices.tobytes(), hull)
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
    """Check that every transport of the coupling stays within the hull
    of its source atom's cell (within GEO times the extent of both
    supports of the atom itself, for a singleton), and that distinct
    cells have disjoint relative interiors.

    Only the transports are checked, row by row: the entries above
    POLAR times the coupling's mass, and any NaN entry.  Two cells
    whose vertex bounding boxes are more than GEO times that extent
    apart in some coordinate are disjoint; only the other pairs are
    decided by ``relative_interiors_intersect`` (one LP each).  A
    coupling with either support in another dimension than the paving's
    raises DimensionMismatch; one whose rows are not the paving's atoms,
    in its order and within GEO times that extent, raises InvalidInput."""
    d = p.mu_points.shape[1]
    if c.mu_support.shape[1] != d or c.nu_support.shape[1] != d:
        raise DimensionMismatch("coupling and paving dimensions differ")
    tol = GEO * extent(c.mu_support, c.nu_support)
    same = c.mu_support.shape == p.mu_points.shape
    if not (same and (np.abs(c.mu_support - p.mu_points) <= tol).all()):
        raise InvalidInput("the coupling's rows are not the paving's atoms, in its order")
    transport = POLAR * c.matrix.sum()
    hull_of = {}
    for cell in p.cells:
        for i in cell.members:
            hull_of[i] = cell.hull
    report = ConfinementReport()
    # not light: a NaN entry is checked too
    for i, j in np.argwhere(~(c.matrix <= transport)).tolist():
        hull = hull_of.get(i)
        target = c.nu_support[j]
        if hull is None:
            inside = bool(np.max(np.abs(target - c.mu_support[i])) <= tol)
        else:
            inside = hull.contains(target)
        if not inside:
            report.violations.append((i, j, float(c.matrix[i, j])))
    lo = np.array([cell.hull.vertices.min(axis=0) for cell in p.cells])
    hi = np.array([cell.hull.vertices.max(axis=0) for cell in p.cells])
    for a in range(len(p.cells)):
        apart = (lo[a + 1 :] > hi[a] + tol) | (hi[a + 1 :] < lo[a] - tol)
        for b in a + 1 + np.flatnonzero(~apart.any(axis=1)):
            if relative_interiors_intersect(p.cells[a].hull, p.cells[b].hull):
                report.overlaps.append((a, int(b)))
    return report

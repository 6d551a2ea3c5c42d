"""The benchmark's workloads: their inputs, the operations timed on them,
and the checks of their outputs.

A workload builds a fixed list of operations (``setup``) and warms up
(``warmup``).  ``Op.run`` is the timed call into the program; ``result``
turns what it produced into plain JSON-like data; ``check_input`` adds
anything else the checks need; ``check`` returns the messages of every
failed check and ``corrupt`` yields damaged copies that ``check`` must
reject.  Only ``Op.run`` is timed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable

import numpy as np

import checks

# The program is called through its package attributes, looked up at call
# time, so that the tracer's wrappers see the benchmark's own calls.
import mot
import mot.cli
from mot import DiscreteMeasure, PwlConvex, fixtures
from mot.geometry import Polytope

# Seconds after which an operation is stopped and counted failed.  The
# guard only catches a hang; the known fault has its own, shorter limit.
GUARD_LIMIT = 20.0
KNOWN_FAULT_LIMIT = 2.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    limit: float = GUARD_LIMIT
    data: dict = field(default_factory=dict)


def _measure_arrays(m: DiscreteMeasure):
    return np.array(m.points, dtype=float), np.array(m.weights, dtype=float)


def _paving_checks(mu_pts, mu_w, nu_pts, nu_w, paving, coupling, kernel) -> list:
    errs = checks.paving_errors(mu_pts, mu_w, nu_pts, nu_w, paving)
    errs += checks.coupling_errors(mu_pts, mu_w, nu_pts, nu_w, coupling)
    errs += checks.confinement_errors(
        mu_pts, nu_pts, paving, checks.matrix_transports(coupling), "coupling"
    )
    transports = checks.kernel_transports(mu_pts, nu_pts, kernel)
    errs += checks.kernel_errors(mu_pts, mu_w, nu_pts, nu_w, transports)
    errs += checks.confinement_errors(mu_pts, nu_pts, paving, transports, "construction kernel")
    return errs


def _paving_corruptions(res):
    """A dropped cell, a shrunken hull and a perturbed coupling entry."""
    cells = res["paving"]["cells"]
    if cells:
        yield "dropped cell", {**res, "paving": {**res["paving"], "cells": cells[1:]}}
        biggest = max(range(len(cells)), key=lambda k: len(cells[k]["hull_vertices"]))
        V = np.asarray(cells[biggest]["hull_vertices"])
        shrunk = dict(cells[biggest], hull_vertices=(V.mean(0) + 0.5 * (V - V.mean(0))).tolist())
        yield "shrunken hull", {
            **res,
            "paving": {**res["paving"], "cells": cells[:biggest] + [shrunk] + cells[biggest + 1:]},
        }
    C = np.array(res["coupling"], dtype=float)
    C[np.unravel_index(np.argmax(C), C.shape)] += 1e-6
    yield "perturbed coupling entry", {**res, "coupling": C.tolist()}


class PaveGrid:
    """``mot pave`` through the CLI entry point, in-process, on JSON files
    of the structured 2-D families.  The seed only orders the operations:
    the families are fixed, and their atom order is left as built because
    the dense simplex's pivoting, and so whether it finishes, depends on it."""

    LARGE_LPS = True  # most of the time goes to large coupling LPs; see run.Pace

    CASES = (
        [("discrete_k", k) for k in (3, 5, 8, 12, 16)]
        + [("mixed_k", k) for k in (3, 4, 6, 9, 12)]
        + [("continuous_grid", n) for n in (6, 10, 13, 17, 21)]
        + [("gaussian_grid", 3)]
    )
    # continuous_grid(14): the undecided-pairs LP in nonpolar_mask cycles
    # in lp._bland_iterate, so this operation fails every time.
    KNOWN_FAULT = ("continuous_grid", 14)

    def __init__(self, seed: int, outdir: str):
        self.outdir = outdir

    @staticmethod
    def _instance(family, size):
        key = "k" if family in ("discrete_k", "mixed_k") else "grid"
        return fixtures.make(family, **{key: size})

    def _cli_op(self, name, mu, nu, limit, **data):
        paths = {k: os.path.join(self.outdir, f"{name}.{k}.json") for k in ("mu", "nu", "out")}
        for key, m in (("mu", mu), ("nu", nu)):
            with open(paths[key], "w") as fh:
                json.dump(m.to_json(), fh)
        args = ["pave", "--mu", paths["mu"], "--nu", paths["nu"], "--out", paths["out"]]
        run = lambda: mot.cli.main.main(args=args, prog_name="mot", standalone_mode=False)
        return Op(name, run, limit, dict(data, paths=paths, mu=mu, nu=nu))

    def setup(self):
        ops = []
        for family, size in self.CASES + [self.KNOWN_FAULT]:
            mu, nu = self._instance(family, size)
            fault = (family, size) == self.KNOWN_FAULT
            limit = KNOWN_FAULT_LIMIT if fault else GUARD_LIMIT
            ops.append(self._cli_op(f"{family}({size})", mu, nu, limit, family=family))
        return ops

    def warmup(self):
        mu, nu = self._instance("discrete_k", 2)
        self._cli_op("warmup", mu, nu, GUARD_LIMIT).run()

    def result(self, op, _value):
        with open(op.data["paths"]["out"]) as fh:
            return {"paving": json.load(fh)}

    def check_input(self, op, res):
        """Adds the coupling the checks confine: find_coupling, untimed."""
        mu, nu = op.data["mu"], op.data["nu"]
        return dict(res, coupling=mot.find_coupling(mu, nu).matrix.tolist())

    @staticmethod
    def _kernel(family, mu_pts, mu_w, nu_pts):
        """The families' own martingale kernels as (x, y, mass): corners
        for gaussian_grid, up/down within the column otherwise; mixed_k's
        centre atom spreads its 1/2 evenly over every nu-atom, whose mean
        is the centre."""
        if family == "gaussian_grid":
            return [
                (x, x + np.array(c), w / 4)
                for x, w in zip(mu_pts, mu_w)
                for c in product((-1.0, 1.0), repeat=2)
            ]
        xs = np.unique(nu_pts[:, 0])
        triples = []
        for x, w in zip(mu_pts, mu_w):
            column_w = w
            if family == "mixed_k":
                on_column = np.min(np.abs(xs - x[0])) <= checks.MATCH_TOL
                column_w = 1.0 / (2 * len(xs)) if on_column else 0.0
                centre_w = w - column_w
                if centre_w > checks.MASS_TOL:
                    triples += [(x, y, centre_w / len(nu_pts)) for y in nu_pts]
            if column_w > 0:
                triples += [(x, np.array([x[0], s]), column_w / 2) for s in (1.0, -1.0)]
        return triples

    def check(self, op, res):
        family = op.data["family"]
        mu_pts, mu_w = _measure_arrays(op.data["mu"])
        nu_pts, nu_w = _measure_arrays(op.data["nu"])
        kernel = self._kernel(family, mu_pts, mu_w, nu_pts)
        errs = _paving_checks(mu_pts, mu_w, nu_pts, nu_w, res["paving"], res["coupling"], kernel)
        if family in ("discrete_k", "continuous_grid"):
            errs += checks.columns_errors(mu_pts, res["paving"])
        elif family == "mixed_k":
            errs += checks.mixed_errors(mu_pts, res["paving"])
        else:
            errs += checks.gaussian_errors(mu_pts, nu_pts, res["paving"])
        return errs

    corrupt = staticmethod(_paving_corruptions)


def dilation_pair(rng, dim, n, n_stay):
    """The dilation construction of the test suite: each mu-atom stays or
    splits into two points whose weighted mean is the atom.  Returns the
    measures' points and weights and the kernel as (x, y, mass)."""
    pts = rng.uniform(-3.0, 3.0, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    stay = np.zeros(n, dtype=bool)
    stay[rng.choice(n, size=n_stay, replace=False)] = True
    kernel = []
    for p, wi, s in zip(pts, w, stay):
        if s:
            kernel.append((p, p, wi))
            continue
        v = rng.uniform(0.2, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        a = rng.uniform(0.2, 0.8)
        kernel += [(p, p + (1.0 - a) * v, wi * a), (p, p - a * v, wi * (1.0 - a))]
    nu_pts = np.array([y for _, y, _ in kernel])
    nu_w = np.array([m for _, _, m in kernel])
    return pts, w, nu_pts, nu_w, kernel


class PaveRandom:
    """One instance's full analysis per operation, library calls only.

    The instances are one fixed draw (generator seed POOL_SEED), and the
    run's seed only orders them.  Drawn per seed, about one instance in
    a thousand makes lp.solve return a coupling with negative entries, so
    the operation would fail on some seeds and not on others.  Every
    (dimension, atom count) stratum gets the same number of instances
    and a fixed number of atoms that stay."""

    LARGE_LPS = False

    POOL_SEED = 20240824
    DIMS = (1, 2, 3)
    MAX_ATOMS = 6
    PER_STRATUM = 18

    def __init__(self, seed: int, outdir: str):
        pass

    def _op(self, name, dim, pts, w, nu_pts, nu_w, kernel):
        mu, nu = DiscreteMeasure(pts, w), DiscreteMeasure(nu_pts, nu_w)

        def run():
            order = mot.check_convex_order(mu, nu)
            coupling = mot.find_coupling(mu, nu)
            paving = mot.compute_paving(mu, nu)
            domain = mot.potential_domain(mu, nu) if dim == 1 else None
            return order, coupling, paving, domain

        return Op(name, run, data=dict(dim=dim, mu=mu, nu=nu, kernel=kernel))

    def setup(self):
        rng = np.random.default_rng(self.POOL_SEED)
        ops = []
        for dim in self.DIMS:
            for n in range(1, self.MAX_ATOMS + 1):
                for rep in range(self.PER_STRATUM):
                    n_stay = int(0.3 * n + 0.5) if rep % 2 == 0 else int(0.3 * n)
                    pair = dilation_pair(rng, dim, n, n_stay)
                    ops.append(self._op(f"d{dim}-n{n}-{rep}", dim, *pair))
        return ops

    def warmup(self):
        rng = np.random.default_rng(0)
        for dim in self.DIMS:
            self._op("warmup", dim, *dilation_pair(rng, dim, 3, 1)).run()

    def result(self, op, value):
        order, coupling, paving, domain = value
        return {
            "order": bool(order),
            "coupling": coupling.matrix.tolist(),
            "paving": paving.to_json(),
            "domain": None if domain is None else [list(iv) for iv in domain],
        }

    def check_input(self, op, res):
        return res

    def check(self, op, res):
        mu_pts, mu_w = _measure_arrays(op.data["mu"])
        nu_pts, nu_w = _measure_arrays(op.data["nu"])
        errs = [] if res["order"] else ["a dilation pair was judged not in convex order"]
        errs += _paving_checks(
            mu_pts, mu_w, nu_pts, nu_w, res["paving"], res["coupling"], op.data["kernel"]
        )
        if op.data["dim"] == 1:
            errs += checks.one_dim_errors(mu_pts, mu_w, nu_pts, nu_w, res["paving"], res["domain"])
        return errs

    corrupt = staticmethod(_paving_corruptions)


class GeometryPwl:
    """Thousands of tiny LPs and no coupling: affine components of random
    PWL convex functions clipped to a box, convex hulls of random point
    sets, and the barycentre-face construction, in dimensions 1-3.  Piece
    counts and point counts cycle through fixed values; only positions
    come from the seed."""

    LARGE_LPS = False

    DIMS = (1, 2, 3)
    PER_DIM = 100
    PIECES = 5

    def __init__(self, seed: int, outdir: str):
        self.seed = seed

    def _ops(self, rng, dim, rep):
        box_v = np.array(list(product((-2.0, 2.0), repeat=dim)))
        box = Polytope(box_v, minimal=True)
        grads = rng.uniform(-2.0, 2.0, size=(self.PIECES, dim))
        offs = rng.uniform(-1.0, 1.0, size=self.PIECES)
        phi = PwlConvex(list(zip(grads, offs)))
        x = rng.uniform(-2.0, 2.0, size=dim)
        pts = rng.uniform(-2.0, 2.0, size=(dim + 1 + rep % (8 - dim), dim))
        # criterion 5: alpha on convex combinations of some vertices of D
        D_v = checks.hull_vertices(rng.uniform(-2.0, 2.0, size=(dim + 1 + rep % (6 - dim), dim)))
        D = Polytope(D_v, minimal=True)
        sel = rng.choice(len(D_v), size=1 + rep % len(D_v), replace=False)
        lam = rng.uniform(0.0, 1.0, size=(1 + rep % 4, len(sel)))
        atoms = (lam / lam.sum(axis=1, keepdims=True)) @ D_v[sel]
        aw = rng.uniform(0.1, 1.0, size=len(atoms))
        alpha = DiscreteMeasure(atoms, aw)
        tag = f"d{dim}-{rep}"
        return [
            Op(f"component-{tag}", lambda: mot.affine_component(phi, x, box),
               data=dict(kind="component", grads=grads, offs=offs, x=x, box=box_v)),
            Op(f"hull-{tag}", lambda: mot.convex_hull(pts), data=dict(kind="hull", points=pts)),
            Op(f"face-{tag}", lambda: mot.check_barycenter_face(alpha, D),
               data=dict(kind="face", atoms=alpha.points, weights=alpha.weights, D=D_v)),
        ]

    def setup(self):
        rng = np.random.default_rng(self.seed)
        return [op for dim in self.DIMS for rep in range(self.PER_DIM) for op in self._ops(rng, dim, rep)]

    def warmup(self):
        rng = np.random.default_rng(0)
        for dim in self.DIMS:
            for op in self._ops(rng, dim, 3):
                op.run()

    def result(self, op, value):
        if op.data["kind"] == "face":
            return {"vertices": value.face.vertices.tolist(), "outside_mass": value.outside_mass}
        return {"vertices": value.vertices.tolist()}

    def check_input(self, op, res):
        return res

    def check(self, op, res):
        d = op.data
        if d["kind"] == "component":
            return checks.component_errors(d["grads"], d["offs"], d["x"], d["box"], res["vertices"])
        if d["kind"] == "hull":
            return checks.hull_errors(d["points"], res["vertices"])
        return checks.barycenter_face_errors(
            d["atoms"], d["weights"], d["D"], res["vertices"], res["outside_mass"]
        )

    @staticmethod
    def corrupt(res):
        """A moved vertex: pushed away from the centroid, so it leaves a
        component, a hull or a face."""
        V = np.array(res["vertices"], dtype=float)
        c = V.mean(axis=0)
        step = V[0] - c if len(V) > 1 else np.ones_like(c)
        V[0] = V[0] + 0.25 * step / max(np.linalg.norm(step), 1e-12)
        yield "moved vertex", dict(res, vertices=V.tolist())


WORKLOADS = {"pave-grid": PaveGrid, "pave-random": PaveRandom, "geometry-pwl": GeometryPwl}

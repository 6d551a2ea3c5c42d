"""Shared fixtures and random-instance generators for the test suite.

Random (mu, nu) pairs are produced by a dilation construction: every
mu-atom either stays in place or splits into two points whose weighted
mean is the atom itself.  The construction certifies the convex order
and bounds the support sizes, so it doubles as an oracle.
"""

import numpy as np
import pytest

from mot import DiscreteMeasure, compute_paving, find_coupling
from mot.fixtures import gaussian_grid
from mot.pwl import PwlConvex


def random_dilation_pair(rng, dim=1, max_atoms=4, max_split=2.0):
    """A pair mu <=_c nu with <= max_atoms mu-atoms and <= 2*max_atoms
    nu-atoms; nu is the image of mu under a random dilation kernel."""
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-3.0, 3.0, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    nu_pts = []
    nu_w = []
    for p, wi in zip(pts, w):
        if rng.random() < 0.3:
            nu_pts.append(p)
            nu_w.append(wi)
        else:
            v = rng.uniform(0.2, max_split, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            a = rng.uniform(0.2, 0.8)
            # a * (p + (1-a) v) + (1-a) * (p - a v) = p, so the split
            # preserves the barycenter of the atom
            nu_pts.append(p + (1.0 - a) * v)
            nu_w.append(wi * a)
            nu_pts.append(p - a * v)
            nu_w.append(wi * (1.0 - a))
    return DiscreteMeasure(pts, w), DiscreteMeasure(nu_pts, nu_w)


def random_pwl(rng, dim, n_pieces=5, scale=2.0):
    grads = rng.uniform(-scale, scale, size=(n_pieces, dim))
    offs = rng.uniform(-1.0, 1.0, size=n_pieces)
    return PwlConvex(list(zip(grads, offs)))


@pytest.fixture
def stub_highs(monkeypatch):
    """Replace the HiGHS solver that ``lp.highs`` builds with one whose
    run ends in a chosen way.

    ``stub_highs(status, x=None, load_error=False, run_error=False)``:
    every later solve reports the ``HighsModelStatus`` member named
    ``status`` and, when ``x`` is given, the point ``x``;
    ``load_error``/``run_error`` make ``passModel``/``run`` return
    ``kError``.  Options and status strings are the real binding's.
    """
    from scipy.optimize._highspy import _core

    def stub(status, x=None, load_error=False, run_error=False):
        class FakeHighs(_core._Highs):
            def passModel(self, model):
                return _core.HighsStatus.kError if load_error else _core.HighsStatus.kOk

            def run(self):
                return _core.HighsStatus.kError if run_error else _core.HighsStatus.kOk

            def getModelStatus(self):
                return getattr(_core.HighsModelStatus, status)

            def getSolution(self):
                solution = _core.HighsSolution()
                if x is not None:
                    solution.col_value = list(x)
                    solution.value_valid = True
                return solution

        monkeypatch.setattr(_core, "_Highs", FakeHighs)

    return stub


@pytest.fixture(scope="session")
def gaussian_pair():
    return gaussian_grid(5)


@pytest.fixture(scope="session")
def gaussian_paving(gaussian_pair):
    mu, nu = gaussian_pair
    return compute_paving(mu, nu)


@pytest.fixture(scope="session")
def gaussian_coupling(gaussian_pair):
    mu, nu = gaussian_pair
    return find_coupling(mu, nu)


@pytest.fixture(scope="session")
def random_instances():
    """100 seeded dilation instances across dimensions 1-3, each with
    its paving and one feasible coupling."""
    rng = np.random.default_rng(20240824)
    out = []
    for trial in range(100):
        dim = 1 + trial % 3
        mu, nu = random_dilation_pair(rng, dim=dim)
        out.append((mu, nu, compute_paving(mu, nu), find_coupling(mu, nu)))
    return out

"""Invariance of the paving (ROADMAP aim 3), as property tests.

The cells C_x depend only on which pairs some martingale transport
charges, so the paving cannot change under a permutation of the atoms,
a translation, a spatial scaling, an orthogonal map or a common mass
factor of (mu, nu).  Each test draws one of the 100 seeded instances of
``conftest.random_instances`` or one of the four fixture families, and
one such map, and compares cell members, affine dimensions and hull
vertices (as nu-atom indices) with the untransformed paving.  The runs
are derandomised with a fixed number of examples, so they are the same
on every machine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dilation_pair
from mot import DiscreteMeasure, check_convex_order, compute_paving, find_coupling
from mot.errors import InvalidInput, NotInConvexOrder
from mot.fixtures import continuous_grid, discrete_k, gaussian_grid, mixed_k
from mot.measures import potential_domain


def _instances():
    rng = np.random.default_rng(20240824)  # conftest.random_instances' draw
    pairs = [random_dilation_pair(rng, dim=1 + trial % 3) for trial in range(100)]
    return pairs + [discrete_k(3), mixed_k(3), continuous_grid(10), gaussian_grid(5)]


INSTANCES = _instances()
_BASE = {}

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)
index = st.integers(0, len(INSTANCES) - 1)
seed = st.integers(0, 2**32 - 1)


def _signature(mu, nu, mu_order=None, nu_order=None):
    """The paving of (mu, nu) as a set of cells (members, affine
    dimension, hull vertices as nu-atom indices) and the singletons, in
    the numbering the atoms had before ``mu_order``/``nu_order`` put
    them in their present order."""
    mu_order = np.arange(mu.n_atoms) if mu_order is None else mu_order
    nu_order = np.arange(nu.n_atoms) if nu_order is None else nu_order
    # hull vertices are copies of nu-atoms
    atom = {row: int(nu_order[j]) for j, row in enumerate(map(tuple, nu.points.tolist()))}
    p = compute_paving(mu, nu)
    cells = frozenset(
        (
            frozenset(int(mu_order[i]) for i in cell.members),
            cell.affine_dim,
            frozenset(atom[row] for row in map(tuple, cell.hull.vertices.tolist())),
        )
        for cell in p.cells
    )
    return cells, frozenset(int(mu_order[i]) for i in p.singletons)


def _base(k):
    if k not in _BASE:
        _BASE[k] = _signature(*INSTANCES[k])
    return _BASE[k]


def _mapped(k, points=lambda p: p, mass=1.0):
    mu, nu = INSTANCES[k]
    return (
        DiscreteMeasure(points(mu.points), mass * mu.weights),
        DiscreteMeasure(points(nu.points), mass * nu.weights),
    )


@PROPERTY
@given(index, seed)
def test_paving_invariant_under_permutation(k, s):
    mu, nu = INSTANCES[k]
    rng = np.random.default_rng(s)
    p, q = rng.permutation(mu.n_atoms), rng.permutation(nu.n_atoms)
    shuffled = DiscreteMeasure(mu.points[p], mu.weights[p]), DiscreteMeasure(nu.points[q], nu.weights[q])
    assert _signature(*shuffled, p, q) == _base(k)


@PROPERTY
@given(index, seed, st.floats(-3.0, 6.0))
def test_paving_invariant_under_translation(k, s, exponent):
    d = INSTANCES[k][0].ambient_dim
    shift = np.random.default_rng(s).uniform(-1.0, 1.0, size=d) * 10.0**exponent
    assert _signature(*_mapped(k, lambda p: p + shift)) == _base(k)


@PROPERTY
@given(index, st.floats(-9.0, 6.0))
def test_paving_invariant_under_scaling(k, exponent):
    assert _signature(*_mapped(k, lambda p: p * 10.0**exponent)) == _base(k)


@PROPERTY
@given(index, seed)
def test_paving_invariant_under_orthogonal_maps(k, s):
    d = INSTANCES[k][0].ambient_dim
    Q, R = np.linalg.qr(np.random.default_rng(s).normal(size=(d, d)))
    Q = Q * np.sign(np.diag(R))  # Haar-distributed, reflections included
    assert _signature(*_mapped(k, lambda p: p @ Q.T)) == _base(k)


@PROPERTY
@given(index, st.floats(-12.0, 6.0))
def test_paving_invariant_under_mass_factor(k, exponent):
    assert _signature(*_mapped(k, mass=10.0**exponent)) == _base(k)


@pytest.mark.parametrize(
    "name, points, mass",
    [
        ("scaled by 1e-9", lambda p: 1e-9 * p, 1.0),
        ("translated by 1e6", lambda p: p + 1e6, 1.0),
        ("translated by -1e6", lambda p: p - 1e6, 1.0),
        ("mass 1e-9", lambda p: p, 1e-9),
        ("mass 1e-12", lambda p: p, 1e-12),
    ],
)
def test_every_instance_paves_as_unmapped_at_the_extremes(name, points, mass):
    """Every instance at the ends of the ranges, where absolute
    tolerances merged atoms (1e-9), failed the coupling certificate
    (1e6) or divided by a zero FRT tau (mass 1e-9)."""
    for k in range(len(INSTANCES)):
        assert _signature(*_mapped(k, points, mass)) == _base(k), (name, k)


@pytest.mark.parametrize("family", [discrete_k, mixed_k])
def test_fixtures_scaled_by_1e_9_pave_into_three_cells(family):
    mu, nu = family(3)
    tiny = DiscreteMeasure(1e-9 * mu.points, mu.weights), DiscreteMeasure(1e-9 * nu.points, nu.weights)
    p = compute_paving(*tiny)
    assert len(p.cells) == 3
    assert _signature(*tiny) == _signature(mu, nu)


@pytest.mark.parametrize(
    "mu, nu",
    [
        # nu = delta_0 against mu spread to +-1, at mass 1e-12
        (
            DiscreteMeasure([[-1.0], [1.0]], [0.5e-12, 0.5e-12]),
            DiscreteMeasure([[0.0]], [1e-12]),
        ),
        # mu spread to +-1e-9 against nu = delta_0
        (
            DiscreteMeasure([[-1e-9, 0.0], [1e-9, 0.0]], [0.5, 0.5]),
            DiscreteMeasure([[0.0, 0.0]], [1.0]),
        ),
    ],
)
def test_no_convex_order_at_small_mass_or_scale(mu, nu):
    """mu is more spread than nu, so no martingale coupling exists,
    however small the mass or the spread: every way of asking says so."""
    assert not check_convex_order(mu, nu)
    with pytest.raises(NotInConvexOrder):
        find_coupling(mu, nu)
    with pytest.raises(NotInConvexOrder):
        compute_paving(mu, nu)
    if mu.ambient_dim == 1:
        with pytest.raises(NotInConvexOrder):
            potential_domain(mu, nu)



_POINT = DiscreteMeasure([[1e8]], [1.0])
_SPREAD = DiscreteMeasure([[1e8 - 5e-6], [1e8 + 5e-6]], [0.5, 0.5])


@pytest.mark.parametrize("mu, nu", [(_POINT, _SPREAD), (_SPREAD, _POINT)])
def test_tiny_extent_far_from_the_origin_is_too_coarse_to_decide(mu, nu):
    """Atoms near 1e8 that span 1e-5 are known only to about 1e-8, a
    thousandth of their extent, finer than which no coupling can be
    certified: the pair in convex order and the pair that is not both
    raise InvalidInput, however the question is asked."""
    for ask in (check_convex_order, find_coupling, compute_paving, potential_domain):
        with pytest.raises(InvalidInput, match="too coarse"):
            ask(mu, nu)

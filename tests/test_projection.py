"""The coordinate-projection filter of the d >= 2 non-polar mask, against
the max-support LP over every pair as its oracle.

Projected on one axis a martingale coupling is a 1-D martingale coupling
of the projected marginals, so ``nonpolar_mask`` drops the pairs that
some projection proves polar before it poses the max-support LP, and
poses none where the pairs left force a tight coupling.
``max_support_coupling`` keeps every pair.
"""

import numpy as np
import pytest

from conftest import fail_the_curtain, random_dilation_pair
from mot import DiscreteMeasure, check_convex_order, compute_paving, find_coupling, lp
from mot import coupling, measures
from mot.coupling import max_support_coupling, nonpolar_mask, polar_matrix
from mot.errors import NotInConvexOrder, SolverError
from mot.fixtures import continuous_grid, discrete_k, gaussian_grid, mixed_k
from mot.tolerance import FEAS, INTERIOR, POLAR

FAMILIES = [
    discrete_k(3),
    discrete_k(8),
    mixed_k(3),
    mixed_k(6),
    continuous_grid(6),
    continuous_grid(10),
    gaussian_grid(3),
    gaussian_grid(5),
]


def _lp_mask(mu, nu):
    return max_support_coupling(mu, nu)[0]


def _moved(m, f):
    return DiscreteMeasure(f(m.points), m.weights)


def test_filter_is_sound(random_instances):
    """On the d = 2-3 random instances, the fixture families and rotated
    and translated copies of both, the filtered mask is the full LP's."""
    pairs = [(mu, nu) for mu, nu, _, _ in random_instances if mu.ambient_dim > 1]
    assert len(pairs) >= 60
    pairs += FAMILIES
    rng = np.random.default_rng(14)
    copies = []
    for mu, nu in pairs:
        d = mu.ambient_dim
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shift = rng.uniform(-1.0, 1.0, size=d) * 10.0 ** rng.uniform(2, 6)
        for f in (lambda p: p @ rotation.T, lambda p: p + shift):
            copies.append((_moved(mu, f), _moved(nu, f)))
    for mu, nu in pairs + copies:
        assert np.array_equal(nonpolar_mask(mu, nu), _lp_mask(mu, nu))


def _count_lps(monkeypatch):
    """The columns of each LP ``lp.highs`` is asked to solve and of each
    coupling system written, appended to two lists as they happen."""
    real, real_system = lp.highs, coupling._constraint_system
    columns, written = [], []

    def counted(c, A, *args, **kwargs):
        columns.append(A.shape[1])
        return real(c, A, *args, **kwargs)

    def counted_system(*args, **kwargs):
        out = real_system(*args, **kwargs)
        written.append(out[0].shape[1])
        return out

    monkeypatch.setattr(lp, "highs", counted)
    monkeypatch.setattr(coupling, "_constraint_system", counted_system)
    return columns, written


def test_filter_shrinks_the_lp(monkeypatch):
    """On continuous_grid(10) each mu-atom reaches only the two nu-atoms
    of its own column, so the filter leaves 20 pairs of 200 and forces
    the coupling: the mask poses no LP.  On mixed_k(9), where it leaves
    130 pairs of 162 and nu-atoms shared, the max-support LP is posed
    over those pairs only, and the mask path writes only their columns
    of the coupling system."""
    columns, written = _count_lps(monkeypatch)
    mu, nu = continuous_grid(10)
    pruned = nonpolar_mask(mu, nu)
    full = _lp_mask(mu, nu)
    assert np.array_equal(pruned, full) and pruned.sum() == 20
    # columns [s | t | tau] over the pairs posed: the oracle's alone
    assert columns == [2 * 200 + 1]
    assert written == [200]
    columns.clear()
    written.clear()
    mu, nu = mixed_k(9)
    pruned = nonpolar_mask(mu, nu)
    full = _lp_mask(mu, nu)
    assert np.array_equal(pruned, full) and pruned.sum() == 130
    assert columns == [2 * 130 + 1, 2 * 162 + 1]
    assert written == [130, 162]


def _forced_pairs():
    """continuous_grid(10), discrete_k(12) and the seeded dilation pairs
    in dimensions 1-3 where the filter leaves every nu-atom to exactly
    one mu-atom."""
    rng = np.random.default_rng(20)
    pairs = []
    for trial in range(90):
        mu, nu = random_dilation_pair(rng, dim=1 + trial % 3, max_atoms=6)
        keep = coupling._projection_filter(mu, nu, measures._scaled(mu, nu))[0]
        if (keep.sum(axis=0) == 1).all():
            pairs.append((mu, nu))
    assert len(pairs) >= 30 and {mu.ambient_dim for mu, _ in pairs} == {1, 2, 3}
    return [continuous_grid(10), discrete_k(12)] + pairs


def _full_lp_coupling(mu, nu):
    """The certified coupling matrix of the LP over every pair."""
    A, b, s = coupling._constraint_system(mu, nu)
    x, _ = coupling._highs(np.zeros(A.shape[1]), A, b, s)
    coupling._certify(s, x)
    return np.maximum(x, 0.0).reshape(mu.n_atoms, nu.n_atoms) * s.mass


def test_forced_pattern_solves_no_lp(monkeypatch):
    """Where every nu-atom keeps one mu-atom, the mask, the coupling and
    the order come with no LP: the mask is the full LP's, and the
    coupling passes its certificate and is the full LP's within 1e-12."""
    pairs = _forced_pairs()
    answers = []
    columns, _ = _count_lps(monkeypatch)
    for mu, nu in pairs:
        answers.append((nonpolar_mask(mu, nu), find_coupling(mu, nu)))
        assert check_convex_order(mu, nu) is True
    assert columns == []
    for (mu, nu), (mask, c) in zip(pairs, answers):
        assert np.array_equal(mask, _lp_mask(mu, nu))
        s = measures._scaled(mu, nu)
        coupling._certify(s, c.matrix / s.mass)
        assert np.array_equal(c.matrix > 0, mask)
        assert np.abs(c.matrix - _full_lp_coupling(mu, nu)).max() <= 1e-12


def test_forced_coupling_that_is_not_tight_falls_back_to_the_lp(monkeypatch):
    """With the forced coupling made to fail the tight bound, so that
    the filter reads every axis and returns no coupling, the mask is the
    full LP's.  In d >= 2 the mask and the coupling come from one LP
    each, and the coupling, from the LP over the pairs the lines keep,
    is the full LP's within 1e-12.  In 1-D the mask is
    certified by the superhedge of the axis's zeros, and with the
    left-curtain coupling's certificate made to fail too, find_coupling
    raises SolverError; neither solves an LP."""
    for mu, nu in _forced_pairs():
        one_dim = mu.ambient_dim == 1
        expected = _lp_mask(mu, nu), None if one_dim else _full_lp_coupling(mu, nu)
        with monkeypatch.context() as m:
            columns, _ = _count_lps(m)
            m.setattr(coupling, "_tight", lambda s, theta: False)
            fail_the_curtain(m)
            mask = nonpolar_mask(mu, nu)
            if one_dim:
                with pytest.raises(SolverError, match="certificate"):
                    find_coupling(mu, nu)
            else:
                assert np.abs(find_coupling(mu, nu).matrix - expected[1]).max() <= 1e-12
        assert np.array_equal(mask, expected[0])
        assert len(columns) == (0 if one_dim else 2)


def _count_lines(monkeypatch):
    """A list that ``coupling._axis_mask`` appends to at each line read."""
    real, lines = coupling._axis_mask, []

    def counted(*args):
        lines.append(1)
        return real(*args)

    monkeypatch.setattr(coupling, "_axis_mask", counted)
    return lines


@pytest.mark.parametrize(
    "pair, per_call",
    [
        (continuous_grid(10), 1),
        (discrete_k(12), 1),
        (mixed_k(6), 2),
        (gaussian_grid(5), 2),
    ],
    ids=["continuous_grid(10)", "discrete_k(12)", "mixed_k(6)", "gaussian_grid(5)"],
)
def test_filter_stops_at_the_first_settled_axis(monkeypatch, pair, per_call):
    """The filter stops after the first axis whose kept pairs force a
    tight coupling.  The pairs continuous_grid(10) and discrete_k(12)
    keep on axis 0 force it, so each mask and coupling reads one line;
    mixed_k(6) and gaussian_grid(5) never settle, so they read both."""
    mu, nu = pair
    lines = _count_lines(monkeypatch)
    for f in (nonpolar_mask, find_coupling):
        lines.clear()
        f(mu, nu)
        assert len(lines) == per_call, f.__name__


def _every_axis(mu, nu, s):
    """The pairs kept by every coordinate axis whose bound holds, read
    one by one with ``_axis_mask``."""
    keep = np.ones((mu.n_atoms, nu.n_atoms), dtype=bool)
    for k in range(mu.ambient_dim):
        mask, _, cost, least = coupling._axis_mask(
            mu.points[:, k], mu.weights, nu.points[:, k], nu.weights, s
        )
        if cost <= POLAR * s.mass * least:
            keep &= mask
    return keep


def test_early_stop_keeps_the_pairs_of_every_axis():
    """On the forced pairs, rotated and translated copies of them, the
    pairs the filter keeps where it stops early are those every axis
    keeps, and the coupling it stops on passes its certificate."""
    rng = np.random.default_rng(25)
    pairs, stopped = [], 0
    for mu, nu in _forced_pairs():
        d = mu.ambient_dim
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        pairs += [(mu, nu)] + [
            (_moved(mu, f), _moved(nu, f))
            for f in (lambda p: p @ rotation.T, lambda p: p + 1e6, lambda p: p - 3e5)
        ]
    for mu, nu in pairs:
        s = measures._scaled(mu, nu)
        keep, zeros, theta = coupling._projection_filter(mu, nu, s)
        assert np.array_equal(keep, _every_axis(mu, nu, s))
        if theta is not None:
            coupling._certify(s, theta)
            stopped += len(zeros) < mu.ambient_dim
    assert stopped >= 100


def _margin_pair(eta):
    """mu = (delta_(0, 1) + delta_(10, -1))/2 against nu with a quarter
    of the mass at each of (-1, 1 - eta), (1, 1 - eta), (9, -1 + eta) and
    (11, -1 + eta): on axis 0 each nu-atom keeps one mu-atom, and on
    axis 1 nu is mu pulled in by eta, so not in convex order."""
    mu = DiscreteMeasure([[0.0, 1.0], [10.0, -1.0]], [0.5, 0.5])
    nu = DiscreteMeasure(
        [[-1.0, 1.0 - eta], [1.0, 1.0 - eta], [9.0, -1.0 + eta], [11.0, -1.0 + eta]], [0.25] * 4
    )
    return mu, nu


def _shifted_pair():
    """mu = 0.9 delta_(0, -1.32e-9) + 0.1 delta_(10, 2.4e-10) against nu
    with masses 0.45, 0.45, 0.05 and 0.05 at (-1, 0), (1, 0), (9, 0) and
    (11, 0): axis 0 forces the coupling as in ``_margin_pair``.  Its
    barycentre defects in the centred arrays of ``_scaled`` sum to 2.3e-11
    of the extent, but the barycentres differ by 9.7e-11 of it, within
    FEAS, and on axis 1 u_nu - u_mu reaches -1.01 FEAS."""
    mu = DiscreteMeasure([[0.0, -1.32e-9], [10.0, 2.4e-10]], [0.9, 0.1])
    nu = DiscreteMeasure([[-1.0, 0.0], [1.0, 0.0], [9.0, 0.0], [11.0, 0.0]], [0.45, 0.45, 0.05, 0.05])
    return mu, nu


@pytest.mark.parametrize("pair", [_margin_pair(1e-8), _shifted_pair()], ids=["margin", "shifted"])
def test_the_stop_never_skips_a_refutation(pair):
    """The pairs axis 0 keeps force a coupling that passes ``_certify``
    but is not tight, and axis 1 refutes the order.  In the margin pair
    at eta = 1e-8 the coupling's barycentre defects are about 4e-10 and
    sum to 8e-10 of the extent, above FEAS, and u_nu - u_mu reaches -eta
    on axis 1.  In the shifted pair the defects are tight only where the
    distance between the barycentres is left out.  So the filter reads
    axis 1, and every question answers that the pair is not in convex
    order."""
    mu, nu = pair
    s = measures._scaled(mu, nu)
    mask, _, _, _ = coupling._axis_mask(mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights, s)
    theta = coupling._pattern(s, mask)
    assert theta is not None and not coupling._tight(s, theta)
    coupling._certify(s, theta)
    assert check_convex_order(mu, nu) is False
    for f in (find_coupling, nonpolar_mask, compute_paving):
        with pytest.raises(NotInConvexOrder):
            f(mu, nu)


@pytest.mark.parametrize(
    "eta, in_order",
    [(1e-7, False), (1e-8, False), (3e-9, False), (1e-9, True), (1e-10, True)],
)
def test_order_at_the_margin_does_not_depend_on_the_frame(eta, in_order):
    """The margin pair turned by 0, 0.3, pi/2, 1.0 and 2.5 rad about the
    origin: the order has one answer at every angle, and find_coupling,
    nonpolar_mask and compute_paving raise NotInConvexOrder exactly
    where it is False.  At 0.3 rad and eta = 3e-9 no axis refutes the
    order, and the pairs both axes keep force a coupling that passes
    ``_certify`` but is not tight; only a tight one answers without an
    LP, so the LP over every pair decides, as a line does at the other
    angles.  There the max-support LP, at HiGHS's coarser tolerance,
    finds a coupling whose residual exceeds the system's feasibility
    tolerance, so the LP over every pair decides the mask too."""
    for angle in (0.0, 0.3, np.pi / 2, 1.0, 2.5):
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.array([[c, -s], [s, c]])
        mu, nu = (_moved(m, lambda p: p @ rotation.T) for m in _margin_pair(eta))
        assert check_convex_order(mu, nu) is in_order, angle
        for f in (find_coupling, nonpolar_mask, compute_paving):
            if in_order:
                f(mu, nu)
            else:
                with pytest.raises(NotInConvexOrder):
                    f(mu, nu)


@pytest.mark.parametrize("e", [1e-9, 1e-10, 1e-12])
def test_light_atom_paves_apart_in_two_dimensions(e):
    """mu = (1-e) delta_0 + e delta_5 against nu with atoms (-1, 1),
    (1, -1) and (5, 0): the first axis separates the light atom 5 from
    the rest, as in one dimension.  The LPs over every pair agree: the
    per-pair masses on the first row, and the max-support LP, whose rows
    are posed per unit of mass so that HiGHS keeps the light atom's
    entries."""
    mu = DiscreteMeasure([[0.0, 0.0], [5.0, 0.0]], [1.0 - e, e])
    nu = DiscreteMeasure([[-1.0, 1.0], [1.0, -1.0], [5.0, 0.0]], [(1.0 - e) / 2, (1.0 - e) / 2, e])
    mask = nonpolar_mask(mu, nu)
    assert mask.tolist() == [[True, True, False], [False, False, True]]
    assert np.array_equal(polar_matrix(mu, nu)[0] > POLAR, mask[0])
    p = compute_paving(mu, nu)
    assert [c.members for c in p.cells] == [[0]] and p.singletons == [1]


@pytest.mark.parametrize("dim", [1, 2])
def test_an_axis_whose_bound_fails_drops_nothing(monkeypatch, dim):
    """The narrow light component of ``test_one_dimension`` on the first
    axis: mu = (delta_0 + delta_10)/2 against nu = (1/2 - e) delta_0 +
    e/2 (delta_-w + delta_w) + delta_10/2, e = 5e-4, w = 1e-3, on the
    line and in the plane.  With the zero threshold raised to INTERIOR,
    0 is a zero of the projection, but 5e-4 of mass can cross it; the
    axis's bound fails, so the filter drops nothing, and the LP over
    every pair gives the mask, in one dimension as in two."""
    e, w = 5e-4, 1e-3
    pad = [0.0] * (dim - 1)
    mu = DiscreteMeasure([[0.0, *pad], [10.0, *pad]], [0.5, 0.5])
    nu = DiscreteMeasure(
        [[-w, *pad], [0.0, *pad], [w, *pad], [10.0, *pad]], [e / 2, 0.5 - e, e / 2, 0.5]
    )
    x, y = mu.points[:, 0], nu.points[:, 0]
    inst = measures._scaled(mu, nu)
    real = measures._axis_zeros
    for feas, is_zero in ((FEAS, False), (INTERIOR, True)):
        bps, _, zero, _, _ = real(x, mu.weights, y, nu.weights, inst._replace(feas=feas))
        assert zero[bps == 0.0].tolist() == [is_zero]

    def raised(x, mu_w, y, nu_w, inst):
        return real(x, mu_w, y, nu_w, inst._replace(feas=INTERIOR))

    monkeypatch.setattr(coupling, "_axis_zeros", raised)
    real_highs = lp.highs
    columns = []

    def counted(c, A, *args, **kwargs):
        columns.append(A.shape[1])
        return real_highs(c, A, *args, **kwargs)

    monkeypatch.setattr(lp, "highs", counted)
    mask = nonpolar_mask(mu, nu)
    assert mask.tolist() == [[True, True, True, False], [False, False, False, True]]
    # columns [s | t | tau] over all 8 pairs
    assert columns == [2 * 8 + 1]
    assert np.array_equal(mask, _lp_mask(mu, nu))

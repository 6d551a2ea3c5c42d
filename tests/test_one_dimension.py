"""The one-dimensional mask and order, read off the potentials, against
the LPs as their oracle.

In dimension one ``nonpolar_mask`` and ``check_convex_order`` solve no LP
(Beiglböck & Juillet 2016; Beiglböck, Nutz & Touzi 2017): a pair is
non-polar exactly when x lies in a component of {u_nu - u_mu > 0} and y
in its closure, or when y = x.  ``max_support_coupling`` and
``find_coupling`` keep the LP in every dimension and decide the same
questions here.
"""

import numpy as np
import pytest

from conftest import fail_the_curtain, random_dilation_pair
from mot import DiscreteMeasure, check_convex_order, compute_paving, lp
from mot import coupling, measures
from mot.coupling import (
    find_coupling,
    max_mass_on_pair,
    max_support_coupling,
    nonpolar_mask,
    polar_matrix,
)
from mot.errors import InvalidInput, NotInConvexOrder, SolverError
from mot.measures import barycenter, potential_domain
from mot.tolerance import FEAS, GEO, POLAR, extent


def m1d(pts, w):
    return DiscreteMeasure([[p] for p in pts], w)


def _lp_mask(mu, nu):
    return max_support_coupling(mu, nu)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mask_matches_the_lp_on_seeded_pairs(seed):
    """700 dilation pairs of up to 8 mu-atoms per seed."""
    rng = np.random.default_rng(seed)
    for _ in range(700):
        mu, nu = random_dilation_pair(rng, dim=1, max_atoms=8)
        assert np.array_equal(nonpolar_mask(mu, nu), _lp_mask(mu, nu))


def test_components_sharing_an_endpoint_atom():
    """mu = (delta_-1 + delta_1)/2, nu = (delta_-2 + 2 delta_0 + delta_2)/4:
    two components (-2, 0) and (0, 2) share the nu-atom 0, which each
    mu-atom reaches."""
    mu = m1d([-1.0, 1.0], [0.5, 0.5])
    nu = m1d([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    mask = nonpolar_mask(mu, nu)
    assert mask.tolist() == [[True, True, False], [False, True, True]]
    assert np.array_equal(mask, _lp_mask(mu, nu))
    p = compute_paving(mu, nu)
    assert [c.members for c in p.cells] == [[0], [1]] and p.singletons == []
    assert [sorted(c.hull.vertices[:, 0].tolist()) for c in p.cells] == [[-2.0, 0.0], [0.0, 2.0]]


def test_one_dimension_solves_no_lp(monkeypatch, random_instances):
    """On the 1-D random instances the mask equals the max-support LP's,
    and with the LP backend raising, 1-D masks, pavings and order checks
    still give the same answers, for pairs in convex order and pairs
    that are not, and find_coupling still answers with a certified
    coupling or NotInConvexOrder."""

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    expected = {}
    for k, (mu, nu, p, _) in enumerate(random_instances):
        if mu.ambient_dim == 1:
            expected[k] = (_lp_mask(mu, nu), p.to_json())
    assert len(expected) >= 30
    monkeypatch.setattr(lp, "highs", no_lp)
    for k, (mask, paving) in expected.items():
        mu, nu = random_instances[k][:2]
        assert np.array_equal(nonpolar_mask(mu, nu), mask)
        assert compute_paving(mu, nu).to_json() == paving
        assert check_convex_order(mu, nu)
        assert not check_convex_order(nu, mu) or mu.equals(nu)
        s = coupling._scaled(mu, nu)
        coupling._certify(s, find_coupling(mu, nu).matrix / s.mass)
    mu, nu = m1d([-1.0, 1.0], [0.5, 0.5]), m1d([0.0], [1.0])
    assert not check_convex_order(mu, nu)
    for call in (nonpolar_mask, compute_paving, find_coupling):
        with pytest.raises(NotInConvexOrder):
            call(mu, nu)


def test_certificate_rejects_a_flipped_entry(monkeypatch):
    """The superhedge certificate passes every mask the potentials give
    and rejects each of them with any one entry flipped."""
    rng = np.random.default_rng(5)
    pairs = [random_dilation_pair(rng, dim=1, max_atoms=5) for _ in range(6)]
    pairs.append((m1d([-1.0, 1.0], [0.5, 0.5]), m1d([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])))
    real = coupling._certify_polar
    flip = []

    def flipped(mu, nu, mask, *args):
        bad = mask.copy()
        bad[flip[0]] = not bad[flip[0]]
        real(mu, nu, bad, *args)

    monkeypatch.setattr(coupling, "_certify_polar", flipped)
    for mu, nu in pairs:
        for entry in np.ndindex(mu.n_atoms, nu.n_atoms):
            flip[:] = [entry]
            with pytest.raises(SolverError, match="superhedge"):
                nonpolar_mask(mu, nu)


@pytest.mark.parametrize("e", [1e-9, 1e-10, 1e-12])
def test_light_atom_paves_apart(e):
    """mu = (1-e) delta_0 + e delta_5 against nu = (1-e)/2 (delta_-1 +
    delta_1) + e delta_5: the atom 0 reaches only -1 and 1, as its own
    LPs say, and the light atom 5 only itself, however light it is."""
    mu = m1d([0.0, 5.0], [1.0 - e, e])
    nu = m1d([-1.0, 1.0, 5.0], [(1.0 - e) / 2, (1.0 - e) / 2, e])
    mask = nonpolar_mask(mu, nu)
    assert mask.tolist() == [[True, True, False], [False, False, True]]
    assert np.array_equal(polar_matrix(mu, nu)[0] > POLAR, mask[0])
    p = compute_paving(mu, nu)
    assert [c.members for c in p.cells] == [[0]] and p.singletons == [1]
    assert sorted(p.cells[0].hull.vertices[:, 0].tolist()) == [-1.0, 1.0]


@pytest.mark.parametrize("e", [1e-6, 1e-9])
def test_light_component_paves_apart(e):
    """mu's atom 5, of mass e, spreads to 4.999 and 5.001; at e = 1e-9
    the gap u_nu - u_mu at 5 is below the zero threshold.  A breakpoint
    with no nu-atom is never a zero, so the atom keeps its component,
    as the max-support LP says where its masses are not too light, and
    ``potential_domain`` returns that component too."""
    mu = m1d([0.0, 5.0], [1.0 - e, e])
    nu = m1d([-1.0, 1.0, 4.999, 5.001], [(1.0 - e) / 2, (1.0 - e) / 2, e / 2, e / 2])
    mask = nonpolar_mask(mu, nu)
    assert mask.tolist() == [[True, True, False, False], [False, False, True, True]]
    if e >= 1e-8:
        assert np.array_equal(mask, _lp_mask(mu, nu))
    assert [c.members for c in compute_paving(mu, nu).cells] == [[0], [1]]
    assert potential_domain(mu, nu) == [(-1.0, 1.0), (4.999, 5.001)]


def _narrow(c, e, w):
    """mu = (delta_c + delta_10)/2 against nu = (1/2 - e) delta_c +
    e/2 (delta_{c-w} + delta_{c+w}) + delta_10/2: a component (c-w, c+w)
    that moves mass e, whose gap u_nu - u_mu at the nu-atom c is e w."""
    return (
        m1d([c, 10.0], [0.5, 0.5]),
        m1d([c - w, c, c + w, 10.0], [e / 2, 0.5 - e, e / 2, 0.5]),
    )


def test_narrow_light_component():
    """The gap at 0 is 5e-7, below INTERIOR times mass times extent
    (about 1e-6) but far above round-off: every martingale coupling
    moves 5e-4 of mass from 0 to +-0.001, so 0 is not a zero of
    u_nu - u_mu."""
    mu, nu = _narrow(0.0, 5e-4, 1e-3)
    mask = nonpolar_mask(mu, nu)
    assert mask.tolist() == [[True, True, True, False], [False, False, False, True]]
    assert np.array_equal(mask, _lp_mask(mu, nu))
    p = compute_paving(mu, nu)
    assert [c.members for c in p.cells] == [[0]] and p.singletons == [1]
    assert sorted(p.cells[0].hull.vertices[:, 0].tolist()) == [-1e-3, 1e-3]
    assert potential_domain(mu, nu) == [(-1e-3, 1e-3)]


def test_narrow_light_components_against_the_lp(monkeypatch):
    """Over masses e from 1e-1 to 1e-7 and widths w from 1e-1 to 1e-7,
    the mask equals the max-support LP's, and the paving's cell is
    ``potential_domain``'s interval wherever the gap e w is above the
    zero threshold (FEAS times mass times extent here).  At or below it
    the nu-atom c is a zero, and where more than POLAR of the mass could
    cross it the superhedge cannot bound the mass off the potentials'
    mask, so the LP decides the mask instead."""
    real = lp.highs
    solved = []

    def counted(*args, **kwargs):
        solved.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "highs", counted)
    fallbacks = 0
    for c in (0.0, 3.0):
        for e in 10.0 ** -np.arange(1, 8):
            for w in 10.0 ** -np.arange(1, 8):
                mu, nu = _narrow(c, e, w)
                solved.clear()
                mask = nonpolar_mask(mu, nu)
                if solved:
                    assert e * w <= FEAS * (10.0 - c + w) and e > POLAR
                    fallbacks += 1
                assert np.array_equal(mask, _lp_mask(mu, nu)), (c, e, w)
                if e * w > FEAS * (10.0 - c + w):
                    assert mask[0].tolist() == [True, True, True, False]
                    (cell,) = compute_paving(mu, nu).cells
                    hull = sorted(cell.hull.vertices[:, 0].tolist())
                    assert potential_domain(mu, nu) == [tuple(hull)]
    assert 0 < fallbacks < 49


def test_narrow_components_in_the_plane_are_not_refuted(monkeypatch):
    """``_narrow`` with masses e down to 1e-10, embedded in the plane:
    every instance is in convex order, with a certified coupling.  Where
    e is at most POLAR the first axis drops the pairs that carry it, and
    the pairs left carry no coupling.  That does not refute the order:
    the coupling LP over the pairs left is infeasible, the pairs that
    break its Farkas ray join it, and the LP is solved again, so some
    orders take more than one LP.  The mask and the paving answer or
    raise SolverError, never NotInConvexOrder."""
    real, solved = lp.highs, []

    def counted(*args, **kwargs):
        solved.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "highs", counted)
    unsettled = repriced = 0
    for c in (0.0, 3.0):
        for e in 10.0 ** -np.arange(1, 11):
            for w in 10.0 ** -np.arange(1, 8):
                mu, nu = (
                    DiscreteMeasure(np.hstack([m.points, np.zeros_like(m.points)]), m.weights)
                    for m in _narrow(c, e, w)
                )
                solved.clear()
                assert check_convex_order(mu, nu), (c, e, w)
                repriced += len(solved) > 1
                for f in (nonpolar_mask, compute_paving):
                    try:
                        f(mu, nu)
                    except SolverError as err:
                        assert e <= POLAR, (c, e, w)
                        unsettled += "carry no coupling" in str(err)
    assert unsettled > 0 and repriced > 0


@pytest.mark.parametrize("plane", [False, True])
def test_merged_atoms_keep_the_barycentre(plane):
    """``_narrow(0, e, 1e-8)``, on the line and embedded in the plane:
    the extent is 10, so nu's atoms -1e-8 and 0 lie within GEO times it
    and merge.  The merged atom sits at their weighted mean, so the
    barycentres still agree: every pair is in convex order, and
    ``find_coupling``'s coupling passes its certificate."""
    for e in 10.0 ** -np.arange(1, 10):
        mu, nu = _narrow(0.0, e, 1e-8)
        if plane:
            mu, nu = (
                DiscreteMeasure(np.hstack([m.points, np.zeros_like(m.points)]), m.weights)
                for m in (mu, nu)
            )
        assert nu.n_atoms == 3, e
        assert check_convex_order(mu, nu), e
        s = coupling._scaled(mu, nu)
        coupling._certify(s, find_coupling(mu, nu).matrix / s.mass)


class _Posed(Exception):
    """An LP was posed."""


def _pose(*args, **kwargs):
    raise _Posed


def test_bound_inside_a_component_is_twice_the_distance(monkeypatch):
    """mu = (delta_-1 + delta_1)/2 and nu on -2, 0, p = 0.02 and 2, where
    the atom -1 sends q = 7.5e-9 of mass to p and the atom 1 sends 0.1.
    The gap 2 q p at 0 is below the zero threshold, so 0 is a zero and
    -1 reaches only -2 and 0.  -1 lies strictly inside its component, so
    the superhedge is at least 2 p on the pair (-1, p), and it bounds
    the mass off the mask by 2 q p / (2 p) = q, within POLAR: the
    potentials decide the mask with no LP, where a bound of one times
    the distance would not.  That pair carries at most q under any
    coupling, as its own LP says."""
    p, q, r = 0.02, 7.5e-9, 0.1
    a, d = (0.5 + p * q) / 2, (0.5 - p * r) / 2
    mu = m1d([-1.0, 1.0], [0.5, 0.5])
    nu = m1d([-2.0, 0.0, p, 2.0], [a, (0.5 - a - q) + (0.5 - d - r), q + r, d])
    inst = coupling._scaled(mu, nu)
    x, y = mu.points[:, 0], nu.points[:, 0]
    _, _, cost, least = coupling._axis_mask(x, mu.weights, y, nu.weights, inst)
    assert least == 2 * p and POLAR * p < cost <= POLAR * least
    assert max_mass_on_pair(mu, nu, 0, 2) <= POLAR
    monkeypatch.setattr(lp, "highs", _pose)
    assert nonpolar_mask(mu, nu).tolist() == [[True, True, False, False], [False, True, True, True]]


def test_bound_at_a_zero_is_the_distance(monkeypatch):
    """``_narrow`` with e = 1.5e-8 and w = 0.05: the gap e w at 0 is
    below the zero threshold, and mu's atom 0 is that zero, so the
    superhedge is only w on the pairs (0, +-w), and the mass off the
    potentials' mask, e, is bounded by e w / w, not within POLAR.  The
    mask is left to the LP, not refused by its certificate."""
    mu, nu = _narrow(0.0, 1.5e-8, 0.05)
    inst = coupling._scaled(mu, nu)
    x, y = mu.points[:, 0], nu.points[:, 0]
    _, _, cost, least = coupling._axis_mask(x, mu.weights, y, nu.weights, inst)
    assert least == 0.05 and POLAR * least < cost <= 2 * POLAR * least
    monkeypatch.setattr(lp, "highs", _pose)
    with pytest.raises(_Posed):
        nonpolar_mask(mu, nu)


def test_bound_never_exceeds_the_superhedge():
    """On seeded 1-D pairs, the filter's bound on each mask, 2 or 1
    times the least distance past a zero, is the least value the
    superhedge of ``_certify_polar`` takes off the mask, up to the
    round-off of that superhedge's sums, whose terms are as large as
    the extent: never above it, so the bound is sound, and not below
    it, so it sends no pair to the LP that the certificate passes."""
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(600):
        mu, nu = random_dilation_pair(rng, dim=1, max_atoms=8)
        inst = coupling._scaled(mu, nu)
        x, y = mu.points[:, 0], nu.points[:, 0]
        mask, zeros, _, least = coupling._axis_mask(x, mu.weights, y, nu.weights, inst)
        if mask.all():
            continue
        dx = x[:, None] - zeros
        H = (
            np.abs(y[:, None] - zeros).sum(axis=1)
            - np.abs(dx).sum(axis=1)[:, None]
            - np.sign(dx).sum(axis=1)[:, None] * (y - x[:, None])
        )
        assert abs(least - H[~mask].min()) <= 1e-12 * inst.scale
        checked += 1
    assert checked >= 100


def _moved(m, f):
    return DiscreteMeasure(f(m.points), m.weights)


def _curtain_pairs():
    """200 seeded dilation pairs of up to 8 mu-atoms and the ``_narrow``
    set of ``test_narrow_light_components_against_the_lp``, each as it
    is and scaled by 1e-3 and by 50, and translated by 1e6 and by -1e6
    where its extent is at least 1 (below about 0.36, coordinates of
    1e6 are too coarse for the extent and raise InvalidInput)."""
    rng = np.random.default_rng(24)
    pairs = [random_dilation_pair(rng, dim=1, max_atoms=8) for _ in range(200)]
    pairs += [
        _narrow(c, e, w)
        for c in (0.0, 3.0)
        for e in 10.0 ** -np.arange(1, 8)
        for w in 10.0 ** -np.arange(1, 8)
    ]
    out = []
    for mu, nu in pairs:
        maps = [lambda p: p, lambda p: 1e-3 * p, lambda p: 50 * p]
        if extent(mu.points, nu.points) >= 1.0:
            maps += [lambda p: p + 1e6, lambda p: p - 1e6]
        out += [(_moved(mu, f), _moved(nu, f)) for f in maps]
    return out


def test_left_curtain_solves_no_lp(monkeypatch):
    """On the curtain pairs find_coupling solves no LP: its coupling
    passes its certificate, and every pair that carries more than POLAR
    of the mass is on the non-polar mask."""
    pairs = _curtain_pairs()
    masks = [nonpolar_mask(mu, nu) for mu, nu in pairs]

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "highs", no_lp)
    for (mu, nu), mask in zip(pairs, masks):
        c = find_coupling(mu, nu)
        s = coupling._scaled(mu, nu)
        coupling._certify(s, c.matrix / s.mass)
        assert (c.matrix >= 0).all()
        assert not (c.matrix > POLAR * s.mass)[~mask].any()


def _forced_or_none(mu, nu):
    """The normalised instance and the coupling that the pairs the
    filter keeps force (``_pattern``), or None where they force none."""
    s = coupling._scaled(mu, nu)
    return s, coupling._pattern(s, coupling._projection_filter(mu, nu, s)[0])


def test_curtain_that_fails_its_certificate_raises(monkeypatch):
    """With the left-curtain coupling's certificate made to fail,
    find_coupling raises SolverError exactly where the filter returns no
    coupling, answers with the filter's coupling elsewhere, and solves
    no LP either way: no LP stands behind the curtain."""
    real = lp.highs
    solved = []

    def counted(*args, **kwargs):
        solved.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "highs", counted)
    fail_the_curtain(monkeypatch)
    rng = np.random.default_rng(25)
    unsettled = 0
    for _ in range(40):
        mu, nu = random_dilation_pair(rng, dim=1, max_atoms=6)
        s = coupling._scaled(mu, nu)
        settled = coupling._projection_filter(mu, nu, s)[2]
        if settled is None:
            with pytest.raises(SolverError, match="certificate"):
                find_coupling(mu, nu)
            unsettled += 1
        else:
            coupling._certify(s, find_coupling(mu, nu).matrix / s.mass)
    assert solved == []
    assert unsettled >= 15


def test_curtain_is_the_forced_coupling():
    """Where every nu-atom keeps one mu-atom, the coupling is the only
    one (``_pattern``), and the left-curtain coupling is it to round-off."""
    rng = np.random.default_rng(20)
    forced_pairs = 0
    for _ in range(200):
        s, forced = _forced_or_none(*random_dilation_pair(rng, dim=1, max_atoms=6))
        if forced is not None:
            forced_pairs += 1
            assert np.abs(coupling._left_curtain(s) - forced).max() <= 1e-14
    assert forced_pairs >= 60


def test_curtain_is_left_monotone():
    """The left-curtain coupling is the one martingale coupling whose
    transports are left-monotone (Beiglböck & Juillet 2016): where x
    sends mass to y1 < y2, no x' > x sends mass strictly between them."""
    rng = np.random.default_rng(26)
    unforced = 0
    for _ in range(100):
        mu, nu = random_dilation_pair(rng, dim=1, max_atoms=8)
        unforced += _forced_or_none(mu, nu)[1] is None
        moved = find_coupling(mu, nu).matrix > POLAR
        x, y = mu.points[:, 0], nu.points[:, 0]
        for i, k in np.ndindex(mu.n_atoms, mu.n_atoms):
            if x[i] < x[k]:
                lo, hi = y[moved[i]].min(), y[moved[i]].max()
                assert not ((lo < y[moved[k]]) & (y[moved[k]] < hi)).any()
    assert unforced >= 40


def _zeros_reference(x, mu_w, y, nu_w, inst):
    """The zero rule of ``measures._axis_zeros`` in its plain numpy
    form: ``np.unique``, ``.any(axis=1)`` and ``.min()``."""
    bps = np.unique(np.concatenate([x, y]))
    to_nu = np.abs(bps[:, None] - y)
    vals = to_nu @ nu_w - np.abs(bps[:, None] - x) @ mu_w
    if vals.min() < -inst.feas * inst.mass * inst.scale:
        raise NotInConvexOrder("measures are not in convex order")
    zero = (vals <= inst.feas * inst.mass * inst.scale) & (to_nu <= GEO * inst.scale).any(axis=1)
    idx = np.arange(bps.size)
    left = np.maximum.accumulate(np.where(zero, idx, 0))
    right = np.minimum.accumulate(np.where(zero, idx, bps.size - 1)[::-1])[::-1]
    return bps, vals, zero, left, right


def _mask_reference(x, mu_w, y, nu_w, inst):
    """``coupling._axis_mask`` in its plain numpy form: the least value
    off the mask is the minimum of a boolean-indexed array."""
    bps, vals, _, left, right = _zeros_reference(x, mu_w, y, nu_w, inst)
    at = np.searchsorted(bps, x)
    lo, hi = bps[left[at]], bps[right[at]]
    past = np.maximum(lo[:, None] - y, y - hi[:, None])
    mask = past <= GEO * inst.scale
    used = np.zeros(bps.size, dtype=bool)
    used[left[at]] = used[right[at]] = True
    least = (np.where(lo == hi, 1.0, 2.0)[:, None] * past)[~mask].min(initial=np.inf)
    return mask, bps[used], vals[used].sum(), least


def _pattern_reference(s, keep):
    if not (np.count_nonzero(keep, axis=0) == 1).all():
        return None
    return np.where(keep, s.nu_w, 0.0)


def _tight_reference(s, theta):
    rows = theta.sum(axis=1)
    defect = theta @ s.y - rows[:, None] * s.x
    gap = np.abs(rows - s.mu_w).sum() + np.sqrt((defect * defect).sum(axis=1)).sum()
    return float(gap) + float(rows.sum()) * s.shift <= s.feas


def _outcome(f, *args):
    try:
        return f(*args)
    except NotInConvexOrder:
        return NotInConvexOrder


def _same_bits(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and (a.dtype, a.shape) == (b.dtype, b.shape)
            and a.tobytes() == b.tobytes()
        )
    if a is None or a is NotInConvexOrder:
        return a is b
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


def _lattice_pair(rng, dim):
    """A dilation pair on the half-integer lattice with some signs of
    zero flipped: on each axis mu's and nu's atoms share coordinates,
    and the atoms of one measure repeat coordinates, some as 0.0 and
    some as -0.0.  One pair in five is reversed, so not in order."""
    n = int(rng.integers(1, 7))
    pts = rng.integers(-2, 3, (n, dim)).astype(float)
    w = rng.integers(1, 4, n).astype(float)
    ys, ws = [], []
    for p, wi in zip(pts, w):
        if rng.random() < 0.3:
            ys.append(p)
            ws.append(wi)
            continue
        v = rng.integers(1, 3, dim) * rng.choice([-1.0, 1.0], dim)
        a = rng.choice([0.25, 0.5, 0.75])
        ys += [p + (1.0 - a) * v, p - a * v]
        ws += [wi * a, wi * (1.0 - a)]
    ys = np.array(ys)
    for arr in (pts, ys):
        arr[(arr == 0.0) & (rng.random(arr.shape) < 0.5)] = -0.0
    pair = [(pts, w), (ys, np.array(ws))]
    return pair[::-1] if rng.random() < 0.2 else pair


def test_line_rule_matches_its_plain_numpy_form():
    """The zero rule, the mask of a line, the forced pattern, the settle
    test and ``_scaled``'s shift give the same bits as their plain numpy
    forms above, on seeded lattice lines and on dilation lines, each as
    it is, translated by 1e6 and scaled by 1e-3, and on a single
    breakpoint and a mask that keeps every pair."""
    rng = np.random.default_rng(28)
    bases = [_lattice_pair(rng, int(rng.integers(1, 4))) for _ in range(150)]
    for _ in range(50):
        mu, nu = random_dilation_pair(rng, dim=int(rng.integers(1, 4)), max_atoms=6)
        bases.append([(mu.points, mu.weights), (nu.points, nu.weights)])
    bases.append([(np.array([[-0.0]]), [1.0]), (np.array([[0.0]]), [1.0])])
    bases.append([(np.zeros((1, 1)), [1.0]), (np.array([[-1.0], [1.0], [3.0], [-3.0]]), [0.25] * 4)])
    seen = dict(lines=0, refuted=0, single=0, full=0, signed_zeros=0, shared=0, repeated=0, tight=0)
    for (x_pts, x_w), (y_pts, y_w) in bases:
        for move in (lambda p: p, lambda p: p + 1e6, lambda p: p * 1e-3):
            mu, nu = DiscreteMeasure(move(x_pts), x_w), DiscreteMeasure(move(y_pts), y_w)
            try:
                s = coupling._scaled(mu, nu)
            except (InvalidInput, NotInConvexOrder):
                continue  # a reversed pair's barycentres, or too coarse for its extent
            gap = barycenter(nu) - barycenter(mu)
            assert _same_bits(s.shift, float(np.linalg.norm(gap)) / s.scale)
            keep = np.ones((mu.n_atoms, nu.n_atoms), dtype=bool)
            for k in range(mu.ambient_dim):
                x, y = mu.points[:, k], nu.points[:, k]
                line = (x, mu.weights, y, nu.weights, s)
                # also with the zero level raised, as a coarser instance's is
                for raised in (s, s._replace(feas=1e-7)):
                    assert _same_bits(
                        _outcome(measures._axis_zeros, *line[:4], raised),
                        _outcome(_zeros_reference, *line[:4], raised),
                    )
                got = _outcome(coupling._axis_mask, *line)
                assert _same_bits(got, _outcome(_mask_reference, *line))
                seen["lines"] += 1
                if got is NotInConvexOrder:
                    seen["refuted"] += 1
                    break
                both = np.concatenate([x, y])
                seen["single"] += np.unique(both).size == 1
                seen["full"] += bool(got[3] == np.inf)
                seen["signed_zeros"] += bool((both == 0).any() and np.signbit(both[both == 0]).any())
                seen["shared"] += bool(np.isin(x, y).any())
                seen["repeated"] += np.unique(x).size < x.size or np.unique(y).size < y.size
                keep &= got[0]
                one = np.zeros_like(keep)
                one[rng.integers(0, mu.n_atoms, nu.n_atoms), np.arange(nu.n_atoms)] = True
                for kept in (keep, one, rng.random(keep.shape) < 0.5):
                    theta = coupling._pattern(s, kept)
                    assert _same_bits(theta, _pattern_reference(s, kept))
                    if theta is not None:
                        tight = coupling._tight(s, theta)
                        assert tight is _tight_reference(s, theta)
                        seen["tight"] += tight
    assert min(seen.values()) >= 5, seen

"""Convex paving construction, location queries and confinement."""

import time
from itertools import combinations

import numpy as np
import pytest

from conftest import random_dilation_pair
from mot import DiscreteMeasure, compute_paving, find_coupling, fixtures, geometry
from mot.coupling import Coupling, nonpolar_mask
from mot.errors import DimensionMismatch, InvalidInput, NotInConvexOrder
from mot.fixtures import discrete_k, mixed_k
from mot.geometry import (
    Polytope,
    _distinct_hull,
    _facet_equations,
    _hull_frame,
    convex_hull,
    in_relative_interior,
    relative_interiors_intersect,
)
from mot.measures import potential_domain
from mot.paving import ConvexPaving, PavingCell, locate, verify_against_coupling
from mot.tolerance import GEO, POLAR, extent

TOL = 1e-7


def m1d(pts, w):
    return DiscreteMeasure([[p] for p in pts], w)


def _hull_by_column(paving, t):
    for cell in paving.cells:
        if np.all(np.abs(cell.hull.vertices[:, 0] - t) <= TOL):
            return cell
    return None


def test_paving_discrete_k2():
    mu, nu = discrete_k(2)
    p = compute_paving(mu, nu)
    assert len(p.cells) == 2 and not p.singletons
    for t in (0.0, 1.0):
        cell = _hull_by_column(p, t)
        assert cell is not None
        assert cell.hull.same_vertices(Polytope([[t, -1.0], [t, 1.0]]), tol=TOL)
        assert cell.affine_dim == 1


def test_paving_mixed_k3():
    mu, nu = mixed_k(3)
    p = compute_paving(mu, nu)
    assert len(p.cells) == 3 and not p.singletons
    square = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    hulls = [c.hull for c in p.cells]
    assert sum(h.same_vertices(square, tol=TOL) for h in hulls) == 1
    for t in (0.0, 1.0):
        edge = Polytope([[t, -1.0], [t, 1.0]])
        assert sum(h.same_vertices(edge, tol=TOL) for h in hulls) == 1


def test_paving_identical_measures_all_singletons():
    m = m1d([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    p = compute_paving(m, m)
    assert not p.cells
    assert sorted(p.singletons) == [0, 1, 2]
    assert p.cells == []


def test_paving_rejects_unordered_pair():
    with pytest.raises(NotInConvexOrder):
        compute_paving(m1d([-1.0, 1.0], [0.5, 0.5]), m1d([0.0], [1.0]))
    # each axis alone is in order, but together the axes drop every pair
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    for f in (compute_paving, nonpolar_mask):
        with pytest.raises(NotInConvexOrder):
            f(mu, nu)


def test_domain_counts():
    for k in (2, 3):
        mu, nu = discrete_k(k)
        assert len(compute_paving(mu, nu).cells) == k


def test_locate_on_discrete_k2():
    mu, nu = discrete_k(2)
    p = compute_paving(mu, nu)
    cell = locate(p, [0.0, 0.3])
    assert cell.hull.same_vertices(Polytope([[0.0, -1.0], [0.0, 1.0]]), tol=TOL)
    single = locate(p, [0.5, 0.0])
    assert single.hull.is_singleton()
    assert np.allclose(single.hull.vertices[0], [0.5, 0.0])


def test_locate_on_mixed_k3():
    mu, nu = mixed_k(3)
    p = compute_paving(mu, nu)
    cell = locate(p, [0.2, 0.9])
    square = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    assert cell.hull.same_vertices(square, tol=TOL)


def test_verify_against_coupling_clean():
    for make in (lambda: discrete_k(2), lambda: mixed_k(3)):
        mu, nu = make()
        p = compute_paving(mu, nu)
        report = verify_against_coupling(p, find_coupling(mu, nu))
        assert report.ok


def test_verify_against_coupling_detects_violation():
    mu, nu = discrete_k(2)
    p = compute_paving(mu, nu)
    c = find_coupling(mu, nu)
    bad = c.matrix.copy()
    i = int(np.flatnonzero(np.abs(mu.points[:, 0]) <= 1e-9)[0])
    j = int(np.flatnonzero(np.max(np.abs(nu.points - [1.0, 1.0]), axis=1) <= 1e-9)[0])
    bad[i, j] += 0.1  # mass from column 0 escaping to column 1
    report = verify_against_coupling(p, Coupling(c.mu_support, c.nu_support, bad))
    assert len(report.violations) == 1
    assert report.violations[0][:2] == (i, j)


def _violations_loop(p, c):
    """``verify_against_coupling``'s violations by a double loop over
    every entry of the coupling, light ones skipped."""
    tol = GEO * extent(c.mu_support, c.nu_support)
    hull_of = {i: cell.hull for cell in p.cells for i in cell.members}
    out = []
    for i in range(c.matrix.shape[0]):
        for j in range(c.matrix.shape[1]):
            mass = c.matrix[i, j]
            if mass <= POLAR * c.matrix.sum():
                continue
            hull = hull_of.get(i)
            if hull is None:
                inside = np.max(np.abs(c.nu_support[j] - c.mu_support[i])) <= tol
            else:
                inside = hull.contains(c.nu_support[j])
            if not inside:
                out.append((i, j, float(mass)))
    return out


def test_violations_match_a_loop_over_every_entry(random_instances):
    """On damaged couplings the transports alone give the loop's
    violations, in its order: a row's largest entry moved to each
    nu-atom in turn, in its cell or outside it, or one entry set to NaN,
    which is checked (and makes the total, and so the transport
    threshold, NaN)."""
    instances = [(mu, nu, compute_paving(mu, nu), find_coupling(mu, nu))
                 for mu, nu in (discrete_k(2), mixed_k(3), fixtures.gaussian_grid(3))]
    seen = 0
    for mu, nu, p, c in instances + random_instances[:30]:
        assert verify_against_coupling(p, c).violations == _violations_loop(p, c) == []
        i, j = np.unravel_index(np.argmax(c.matrix), c.matrix.shape)
        for k in range(c.matrix.shape[1]):
            moved, nan = c.matrix.copy(), c.matrix.copy()
            moved[i, k] += moved[i, j]
            moved[i, j] = 0.0
            nan[i, k] = np.nan
            for bad in (moved, nan):
                damaged = Coupling(c.mu_support, c.nu_support, bad)
                expected = _violations_loop(p, damaged)
                # NaN masses compare equal here
                np.testing.assert_equal(verify_against_coupling(p, damaged).violations, expected)
                seen += bool(expected)
    assert seen > 50


def test_verify_against_coupling_rejects_supports_of_another_dimension():
    """Either support of the coupling in another dimension than the
    paving's raises DimensionMismatch."""
    mu, nu = discrete_k(2)
    p = compute_paving(mu, nu)
    c = find_coupling(mu, nu)
    for mu_s, nu_s in ((c.mu_support[:, :1], c.nu_support), (c.mu_support, c.nu_support[:, :1])):
        with pytest.raises(DimensionMismatch):
            verify_against_coupling(p, Coupling(mu_s, nu_s, c.matrix))


def test_verify_against_coupling_rejects_rows_of_other_atoms():
    """A coupling whose rows are not the paving's atoms, in its order,
    raises InvalidInput: discrete_k(3)'s first two rows, discrete_k(5)'s
    coupling (which reported violations on atoms the paving does not
    have) and discrete_k(3)'s rows reversed."""
    mu, nu = discrete_k(3)
    p = compute_paving(mu, nu)
    c = find_coupling(mu, nu)
    assert verify_against_coupling(p, c).ok
    for other in (
        Coupling(mu.points[:2], nu.points, c.matrix[:2]),
        find_coupling(*discrete_k(5)),
        Coupling(c.mu_support[::-1], c.nu_support, c.matrix[::-1]),
    ):
        with pytest.raises(InvalidInput, match="not the paving's atoms"):
            verify_against_coupling(p, other)


def test_verify_against_coupling_reports_overlapping_cells():
    """A hand-built paving whose second cell, a segment through the
    middle of the first, meets its relative interior."""
    mu = DiscreteMeasure([[0.5, 0.0], [0.5, 0.5]], [0.5, 0.5])
    square = Polytope([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    segment = Polytope([[0.5, -1.0], [0.5, 1.0]])
    p = ConvexPaving([PavingCell([0], square, 2), PavingCell([1], segment, 1)], [], mu.points)
    c = Coupling(mu.points, mu.points, np.diag([0.5, 0.5]))
    report = verify_against_coupling(p, c)
    assert report.violations == []
    assert report.overlaps == [(0, 1)]
    assert not report.ok
    disjoint = ConvexPaving([PavingCell([0], square, 2)], [1], mu.points)
    assert verify_against_coupling(disjoint, c).ok


def test_overlap_shortcut_agrees_with_lp(random_instances, monkeypatch):
    """Cells whose vertex bounding boxes are more than GEO times the
    extent of the instance apart in some coordinate have disjoint relative interiors by the LP too, and
    verify_against_coupling reports the overlaps of one LP per pair while
    solving an LP only for the pairs the boxes leave open."""
    import mot.paving

    cases = [(p, c) for _, _, p, c in random_instances]
    for mu, nu in (mixed_k(9), fixtures.continuous_grid(40)):
        cases.append((compute_paving(mu, nu), find_coupling(mu, nu)))
    lp_pairs = []

    def counted(P, Q):
        lp_pairs.append((P, Q))
        return relative_interiors_intersect(P, Q)

    monkeypatch.setattr(mot.paving, "relative_interiors_intersect", counted)
    for p, c in cases:
        lp_pairs.clear()
        expected, open_pairs = [], 0
        tol = GEO * extent(c.mu_support, c.nu_support)
        for a, b in combinations(range(len(p.cells)), 2):
            P, Q = p.cells[a].hull, p.cells[b].hull
            apart = np.any(P.vertices.min(axis=0) > Q.vertices.max(axis=0) + tol) or np.any(
                Q.vertices.min(axis=0) > P.vertices.max(axis=0) + tol
            )
            meet = relative_interiors_intersect(P, Q)
            assert not (apart and meet)
            open_pairs += not apart
            if meet:
                expected.append((a, b))
        assert verify_against_coupling(p, c).overlaps == expected
        assert len(lp_pairs) == open_pairs
    # the 40 columns of continuous_grid(40) are decided without an LP
    assert len(p.cells) == 40 and lp_pairs == []


def test_partition_property(random_instances):
    for mu, _, p, _ in random_instances[:25]:
        for a in range(len(p.cells)):
            for b in range(a + 1, len(p.cells)):
                assert not relative_interiors_intersect(p.cells[a].hull, p.cells[b].hull)
        for cell in p.cells:
            for i in cell.members:
                assert cell.hull.contains(mu.points[i])
        # every atom in exactly one cell or singleton
        seen = sorted(p.singletons + [i for c in p.cells for i in c.members])
        assert seen == list(range(mu.n_atoms))


def test_confinement(random_instances):
    for _, _, p, c in random_instances:
        assert verify_against_coupling(p, c).ok


def test_one_dimensional_oracle(random_instances):
    """Non-singleton cell hulls coincide with the positivity intervals
    of the potential difference clipped to conv(supp nu)."""
    checked = 0
    for mu, nu, p, _ in random_instances:
        if mu.ambient_dim != 1:
            continue
        intervals = potential_domain(mu, nu)
        lo, hi = nu.points[:, 0].min(), nu.points[:, 0].max()
        clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
        hulls = sorted(
            (c.hull.vertices[:, 0].min(), c.hull.vertices[:, 0].max()) for c in p.cells
        )
        assert len(hulls) == len(clipped)
        for got, exp in zip(hulls, clipped):
            assert abs(got[0] - exp[0]) <= TOL
            assert abs(got[1] - exp[1]) <= TOL
        checked += 1
    assert checked >= 20


def test_outside_domain_identity(random_instances):
    for mu, nu, p, _ in random_instances[:30]:
        hulls = [c.hull for c in p.cells]

        def outside(m):
            out = []
            for point, w in zip(m.points, m.weights):
                if not any(h.contains(point) for h in hulls):
                    out.append((tuple(np.round(point, 9)), w))
            return sorted(out)

        mu_out = outside(mu)
        nu_out = outside(nu)
        assert len(mu_out) == len(nu_out)
        for (pm, wm), (pn, wn) in zip(mu_out, nu_out):
            assert pm == pn
            assert abs(wm - wn) <= 1e-9


def test_merge_order_independence():
    """Permuting the atoms does not change the partition."""
    rng = np.random.default_rng(77)
    mu, nu = random_dilation_pair(rng, dim=2, max_atoms=4)
    base = compute_paving(mu, nu)
    base_sets = sorted(
        sorted(map(tuple, np.round(mu.points[c.members], 9).tolist()))
        for c in base.cells
    )
    for _ in range(10):
        perm = rng.permutation(mu.n_atoms)
        mu_p = DiscreteMeasure(mu.points[perm], mu.weights[perm])
        other = compute_paving(mu_p, nu)
        other_sets = sorted(
            sorted(map(tuple, np.round(mu_p.points[c.members], 9).tolist()))
            for c in other.cells
        )
        assert other_sets == base_sets
        for cell in other.cells:
            key = sorted(map(tuple, np.round(mu_p.points[cell.members], 9).tolist()))
            match = next(
                c
                for c in base.cells
                if sorted(map(tuple, np.round(mu.points[c.members], 9).tolist())) == key
            )
            assert cell.hull.same_vertices(match.hull, tol=1e-7)


def test_member_atoms_in_relative_interior(random_instances):
    """Each member x lies in C_x, the relative interior of its cell hull."""
    for mu, _, p, _ in random_instances[:20]:
        for cell in p.cells:
            for i in cell.members:
                assert in_relative_interior(mu.points[i], cell.hull)


@pytest.mark.parametrize(
    "family, size",
    [("continuous_grid", n) for n in (14, 15, 19, 20, *range(22, 31), 40)]
    + [("discrete_k", 18), ("discrete_k", 20)],
)
def test_column_families_pave_quickly(family, size):
    """Sizes on which an earlier solver cycled: each paves within a
    generous bound into one vertical segment per column."""
    mu, nu = getattr(fixtures, family)(size)
    start = time.perf_counter()
    p = compute_paving(mu, nu)
    assert time.perf_counter() - start <= 10.0
    assert len(p.cells) == size and not p.singletons
    for i, cell in enumerate(p.cells):
        assert cell.members == [i]
        t = mu.points[i, 0]
        assert cell.hull.same_vertices(Polytope([[t, -1.0], [t, 1.0]]), tol=TOL)


def test_paving_json_schema():
    mu, nu = discrete_k(2)
    data = compute_paving(mu, nu).to_json()
    assert set(data) == {"cells", "singletons"}
    for cell in data["cells"]:
        assert set(cell) == {"members", "hull_vertices", "affine_dim"}


def test_gaussian_grid_11_paves_into_one_cell():
    """121 x 169 atoms, masses down to 5.5e-13 of the total: one 2-D
    cell of every atom, spanned by nu's corners."""
    mu, nu = fixtures.gaussian_grid(11)
    p = compute_paving(mu, nu)
    assert p.singletons == [] and len(p.cells) == 1
    cell = p.cells[0]
    assert cell.members == list(range(mu.n_atoms)) and cell.affine_dim == 2
    assert cell.hull.same_vertices(convex_hull(nu.points))


def test_row_hulls_match_the_generic_hull(random_instances, monkeypatch):
    """Each mask row's hull, built from distinct atoms with nothing to
    dedupe (and from the least and greatest atom on the line), has the
    generic ``convex_hull``'s vertices in the same order, its affine
    dimension, its facets and its answers on the measure's atoms.
    Neither builds facets (``_merge_facets``, qhull's facets merged)
    until they are read, also where qhull found the vertices of d + 2
    or more points in 2-D and 3-D; once read, they are the facets of
    the vertices' frame coordinates, bit for bit."""
    merges = []
    merge = geometry._merge_facets
    monkeypatch.setattr(
        geometry, "_merge_facets", lambda *args: merges.append(1) or merge(*args)
    )
    rng = np.random.default_rng(14)
    qhull_dims = set()
    for mu, nu, _, _ in random_instances:
        atoms = np.vstack([mu.points, nu.points])
        for _ in range(3):
            pts = nu.points[rng.random(nu.n_atoms) < 0.6] if nu.n_atoms > 1 else nu.points
            if pts.shape[0] == 0:
                continue
            fast, slow = _distinct_hull(pts), convex_hull(pts)
            assert merges == []
            assert fast.vertices.tolist() == slow.vertices.tolist()
            assert fast.affine_dim == slow.affine_dim
            if fast.affine_dim >= 2 and pts.shape[0] >= fast.affine_dim + 2:
                qhull_dims.add(fast.affine_dim)
            for P in (fast, slow):
                for mine, theirs in zip(P.facets, _facet_equations(P.coords, P.scale)):
                    assert np.array_equal(mine, theirs)
            merges.clear()
            for mine, theirs in zip(fast.facets, slow.facets):
                assert np.array_equal(mine, theirs)
            for p in atoms:
                assert fast.contains(p) == slow.contains(p)
                assert in_relative_interior(p, fast) == in_relative_interior(p, slow)
    assert qhull_dims == {2, 3}


def _fixture_and_random_pairs():
    for k in range(2, 17):
        yield fixtures.discrete_k(k)
    for k in range(2, 13):
        yield fixtures.mixed_k(k)
    for n in range(1, 22):
        yield fixtures.continuous_grid(n)
    for n in (3, 5):
        yield fixtures.gaussian_grid(n)
    rng = np.random.default_rng(1919)
    for trial in range(300):
        yield random_dilation_pair(rng, dim=1 + trial % 3, max_atoms=5)


def test_cell_dimensions_match_the_rank_rule():
    """Every cell's ``affine_dim``, read off its vertex count where a
    segment builds no frame, is the rank rule's dimension of its
    vertices at their own extent, and the paving confines a coupling,
    on the fixture families and 300 seeded dilation pairs in 1-3 D."""
    segments = 0
    for mu, nu in _fixture_and_random_pairs():
        p = compute_paving(mu, nu)
        for cell in p.cells:
            V = cell.hull.vertices
            assert cell.affine_dim == _hull_frame(V, extent(V))[0].dim
            segments += V.shape[0] == 2
        assert verify_against_coupling(p, find_coupling(mu, nu)).ok
    assert segments > 0

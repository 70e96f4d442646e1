import itertools

import pytest

from affgrass.errors import (InconsistentFamily, NormalPositionRequired,
                             ShapeMismatch)
from affgrass.grass import (canonicalize_point, ec, enumerate_points, mat,
                            mat_diag_eps, mat_identity, mat_inv, mat_mul, member,
                            translate_point)
from affgrass.laurent import LaurentSeries, PrimeField
from affgrass.moment import compare, min_formal_poincare, skeleton
from affgrass.mvcomb import LusztigDatum, MVPolytope
from affgrass.paving import (_cell_points, contracting_cell, greedy_paving,
                             iwahori_cell, is_gmv, max_gmv_inside,
                             mv_as_intersection, paving_121,
                             schubert_anchored_family)
from affgrass.rootdata import (BORELS, CHAMBERS, contains, family_from_support,
                               pairing, scale_cw, weyl_family)

F2 = PrimeField(2, 64)
F3 = PrimeField(3, 64)


def test_iwahori_cells_of_p2():
    for lam in ((1, 0, 0), (1, 1, 0)):
        fam = weyl_family(lam)
        cells = [iwahori_cell((0, 0, 0), lam, lp) for lp in fam.lattice_points()]
        assert sorted(c.dim for c in cells) == [0, 1, 2]
        total = sum(2 ** c.dim for c in cells)
        assert total == len(enumerate_points(fam, F2)) == 7


def test_iwahori_threshold_convention():
    # below-diagonal congruences are strict: the 1/3 offsets round up
    c = iwahori_cell((1, 1, 0), (1, 0, 0), (1, 0, 0))
    lows = {(r, col): lo for (r, col, lo, _hi) in c.windows}
    assert lows[(2, 1)] == 1  # a2 - a1 + 1
    assert lows[(1, 2)] == 0  # a1 - a2
    with pytest.raises(ShapeMismatch):
        iwahori_cell((0, 0, 0), (2, 1, 0), (2, 1, 0))


def test_iwahori_closure_order_dimension_consequence():
    # along each one-dimensional orbit, the fixed endpoints lie in the
    # closure of the curve's cell, so their cells cannot have bigger dimension
    for lam in ((1, 0, 0), (1, 1, 0)):
        fam = weyl_family(lam)
        cells = {lp: iwahori_cell((0, 0, 0), lam, lp) for lp in fam.lattice_points()}
        sets = {lp: cells[lp].enumerate(F2) for lp in cells}

        def cell_of(x):
            return next(lp for lp, pts in sets.items() if x in pts)

        from affgrass.grass import curve_point
        for (u, v, a, k) in skeleton(fam).edges:
            mid = cell_of(curve_point(F2, a, k, u))
            assert cells[cell_of(translate_point(
                canonical_fixed(u), (0, 0, 0)))].dim <= cells[mid].dim
            assert cells[cell_of(canonical_fixed(v))].dim <= cells[mid].dim


def canonical_fixed(v):
    from affgrass.grass import canonicalize_point, mat_diag_eps
    return canonicalize_point(mat_diag_eps(F2, v))


def test_mv_as_intersection_data():
    assert mv_as_intersection(LusztigDatum("121", (1, 0, 0))) == \
        ((1, 0, 0), (1, 1, 0), (0, 0, -1))
    assert mv_as_intersection(LusztigDatum("121", (2, 1, 1))) == \
        ((3, -1, -1), (1, 1, 0), (1, 1, -3))
    with pytest.raises(NormalPositionRequired):
        mv_as_intersection(LusztigDatum("121", (0, 1, 0)))


def test_mv_as_intersection_pointwise():
    d = LusztigDatum("121", (1, 0, 1))
    lam1, shift, lam2 = mv_as_intersection(d)
    fam = schubert_anchored_family(d)
    sch1 = weyl_family(lam1)
    sch2 = weyl_family(lam2)
    left = set(enumerate_points(fam, F2))
    right = set()
    for x in enumerate_points(sch1, F2):
        if member(translate_point(x, scale_cw(-1, shift)), sch2):
            right.add(x)
    assert left == right


def test_paving_121_example_dims():
    plan = paving_121(LusztigDatum("121", (1, 0, 0)))
    assert [s.dim for s in plan.steps] == [1, 0]
    assert plan.poincare().coeffs == (1, 1)
    plan0 = paving_121(LusztigDatum("121", (0, 0, 0)))
    assert [s.dim for s in plan0.steps] == [0]
    plan2 = paving_121(LusztigDatum("121", (1, 0, 1)), verify_qs=(2, 3))
    assert [r["total"] for r in plan2.verified["per_q"]] == [7, 13]
    with pytest.raises(NormalPositionRequired):
        paving_121(LusztigDatum("121", (0, 1, 0)))


def test_contracting_cell_windows():
    P = MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1)))
    cell = contracting_cell(P, 0)
    assert cell.dim == 5 and len(cell.enumerate(F2)) == 32
    # the (3,1) entry window of the chamber-2 cell opens at exponent n3-n1 < 0
    fig = MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1)),
                                base=(-1, 1, 1))
    c2 = contracting_cell(fig, 2)
    lows = {(r, c): lo for (r, c, lo, _hi) in c2.windows}
    assert lows[(3, 1)] == -1
    degenerate = MVPolytope.from_datum(LusztigDatum("121", (0, 0, 0)))
    for b in range(6):
        assert contracting_cell(degenerate, b).dim == 0
    with pytest.raises(NormalPositionRequired):
        contracting_cell(MVPolytope.from_datum(LusztigDatum("121", (0, 1, 0))), 0)


def _cell_points_by_matrices(field, diag, windows, inverted=False):
    """Reference construction: canonical forms of u . eps^diag by matrix products."""
    q = field.p
    ranges = [max(0, hi - lo) for (_r, _c, lo, hi) in windows]
    pts = set()
    for coeff_sets in itertools.product(
            *[itertools.product(range(q), repeat=k) for k in ranges]):
        u = [list(r) for r in mat_identity(field)]
        for (r, c, lo, _hi), cs in zip(windows, coeff_sets):
            u[r - 1][c - 1] = LaurentSeries(field, lo, cs)
        m = mat_inv(mat(u)) if inverted else mat(u)
        pts.add(canonicalize_point(mat_mul(m, mat_diag_eps(field, diag))))
    return pts


def test_cell_points_match_matrix_products():
    d = LusztigDatum("121", (2, 1, 1))
    P = MVPolytope.from_datum(d)
    cells = [contracting_cell(P, b) for b in range(6)]
    assert {c.inverted for c in cells} == {True, False}
    for c in cells:
        want = _cell_points_by_matrices(F2, c.diag, c.windows, c.inverted)
        assert len(want) == 2 ** c.dim
        assert _cell_points(F2, c.diag, c.windows, c.inverted) == want
        assert c.enumerate(F2) == want
    lam1, shift, _lam2 = mv_as_intersection(d)
    for lamp in schubert_anchored_family(d).lattice_points():
        c = iwahori_cell(shift, lam1, lamp)
        want = _cell_points_by_matrices(F2, c.vertex, c.windows)
        assert len(want) == 2 ** c.dim and c.enumerate(F2) == want


def test_cell_enumeration_ignores_precision():
    # the contracting cells of the normal data with n_i <= 2, and Iwahori
    # cells: the enumerator picks its own working precision, so the field's
    # precision (1 or 64) changes nothing
    cells = [contracting_cell(MVPolytope.from_datum(LusztigDatum("121", n)), b)
             for n in itertools.product(range(3), repeat=3) if n[0] >= n[2] >= n[1]
             for b in range(6)]
    for n in ((2, 1, 1), (3, 1, 2)):
        d = LusztigDatum("121", n)
        lam1, shift, _lam2 = mv_as_intersection(d)
        cells += [iwahori_cell(shift, lam1, v)
                  for v in schubert_anchored_family(d).lattice_points()]
    for c in cells:
        pts = c.enumerate(PrimeField(2, 64))
        assert len(pts) == 2 ** c.dim and c.enumerate(PrimeField(2, 1)) == pts


def test_first_step_cells_all_borels():
    P = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 1)))
    pts = enumerate_points(P.family, F2)
    for b in range(6):
        cnt = sum(1 for x in pts if ec(x).vertices[b] == P.family.vertex(b))
        assert cnt == 2 ** 2


def test_greedy_examples():
    plan = greedy_paving(weyl_family((1, 0, 0)))
    assert sorted(s.dim for s in plan.steps) == [0, 1, 2]
    plan = greedy_paving(MVPolytope.from_datum(LusztigDatum("121", (1, 0, 0))).family)
    assert sorted(s.dim for s in plan.steps) == [0, 1]
    fam = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 1))).family
    plan = greedy_paving(fam)
    assert plan.verified["per_q"][0]["total"] == sum(
        2 ** s.dim for s in plan.steps)
    mpoly, _ = min_formal_poincare(skeleton(fam))
    assert compare(plan.poincare(), mpoly) == 0


def test_greedy_plan_fields():
    fam = weyl_family((1, 1, 0))
    plan = greedy_paving(fam)
    assert {s.vertex for s in plan.steps} == set(fam.lattice_points())
    assert all(s.borel in range(6) for s in plan.steps)
    js = plan.to_json()
    assert js["method"] == "greedy" and js["verified"]["per_q"]


def test_max_gmv_inside():
    fam = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 1))).family
    assert max_gmv_inside(fam, None) == [fam]
    corner = fam.vertex(0)
    subs = max_gmv_inside(fam, corner)
    assert subs
    for s in subs:
        assert contains(fam, s) and not s.contains_point(corner) and is_gmv(s)
    # an antichain: no returned piece contains another one
    assert len({s.support for s in subs}) == len(subs)
    assert not any(s.support != t.support and contains(s, t) for s in subs for t in subs)


def _max_gmv_inside_by_unit_steps(f, avoid):
    """Reference walk: lower one support number by 1 at a time, down to the
    least pairing of a lattice point of f, over all support vectors, families
    or not."""
    pts = f.lattice_points()
    floors = [min(pairing(v, S) for v in pts) for S in CHAMBERS]
    seen = {f.support}
    queue = [f.support]
    found = {}
    while queue:
        m = queue.pop()
        if any(all(m[i] <= r[i] for i in range(6)) for r in found):
            continue
        try:
            fam = family_from_support(list(m), f.nu)
        except InconsistentFamily:
            fam = None
        if fam is not None and (avoid is None or any(
                pairing(avoid, S) > m[ci] for ci, S in enumerate(CHAMBERS))) and is_gmv(fam):
            found[m] = fam
            continue
        for ci in range(6):
            if m[ci] - 1 < floors[ci]:
                continue
            m2 = m[:ci] + (m[ci] - 1,) + m[ci + 1:]
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
    cands = list(found.values())
    out = [P for P in cands if not any(Q is not P and contains(Q, P) for Q in cands)]
    return sorted(out, key=lambda P: P.support)


def test_max_gmv_inside_matches_unit_walk():
    # MV polytopes with n_i <= 2, n1 + n2 + n3 <= 3 under all Weyl twists, and
    # every family whose support lies within 1 below that of a Weyl polytope
    fams = [MVPolytope.from_datum(LusztigDatum("121", n)).family.weyl(w)
            for n in itertools.product(range(3), repeat=3) if sum(n) <= 3
            for w in BORELS]
    for lam in ((2, 1, 0), (3, 1, 0)):
        top = weyl_family(lam).support
        for drop in itertools.product((0, 1), repeat=6):
            try:
                fams.append(family_from_support(
                    [m - k for m, k in zip(top, drop)], sum(lam)))
            except InconsistentFamily:
                pass
    assert (len(fams), sum(not is_gmv(f) for f in fams)) == (176, 24)
    for f in fams:
        for avoid in (None, f.vertex(0), f.vertex(3)):
            assert max_gmv_inside(f, avoid) == _max_gmv_inside_by_unit_steps(f, avoid), \
                (f.vertices, avoid)

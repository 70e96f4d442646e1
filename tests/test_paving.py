import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from affgrass.errors import (BudgetExceeded, InconsistentFamily, NormalPositionRequired, NotMV,
                             PavingVerificationFailed, PreconditionViolated, ShapeMismatch)
from affgrass import paving
from affgrass.acceptance import (PURITY_DATA, PURITY_WEYL, SPRINGER_FAMILIES, _alternating_words,
                                 _normal_data)
from affgrass.grass import ec, enumerate_points, member
from affgrass.laurent import PrimeField
from affgrass.moment import compare, min_formal_poincare, skeleton
from affgrass.mvcomb import LusztigDatum, MVPolytope, canonicalize, mv_edges, mv_twist
from affgrass.paving import (ContractingCell, _cell_points, _mv_cell_fn, _pave,
                             contracting_cell, gmv_dimension, greedy_paving,
                             iwahori_cell, is_gmv, max_gmv_inside,
                             mv_as_intersection, paving_121,
                             schubert_anchored_family)
from affgrass.rootdata import (BORELS, CHAMBERS, GTFamily, contains, family_from_support,
                               pairing, perm_inv, scale_cw, sub_cw, tighten_support, weyl_family)
from affgrass.springer import synthesize_gamma, truncated_paving

from reference import (_iter_entries, _maximal, canonicalize_by_scores, cell_points_by_matrices,
                       contracting_cell_by_filter, curve_point, gmv_dimension_canonical,
                       is_gmv_canonical, is_mv_family, max_gmv_inside_by_lattice_points,
                       max_gmv_inside_walk, paving_121_by_listing, skeleton_union,
                       translate_point, union_degree_by_skeleton, wt)

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
    # a 212 datum is refused by its 121 datum, which the message names
    with pytest.raises(NormalPositionRequired, match=r"^121 datum \(0, 0, 1\) needs"):
        mv_as_intersection(LusztigDatum("212", (1, 0, 0)))


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
    with pytest.raises(NormalPositionRequired, match=r"^121 datum \(0, 0, 1\) needs"):
        paving_121(LusztigDatum("212", (1, 0, 0)))


def test_paving_121_counts_match_listing_and_the_rule_names_each_points_cell():
    # normal data in {0..3}^3 over F_2 and in {0..2}^3 over F_3: the counted record
    # equals the listing oracle's, and each point of each Iwahori cell goes, by the
    # rule of _verify_steps (the lowest-index step whose vertex the point's Ec has at
    # that step's chamber), to its own cell; the step at v has the chamber w that
    # sorts v - a decreasingly, ties to the smaller index
    def chamber(shift, v):
        x = sub_cw(v, shift)
        return next(b for b, w in enumerate(BORELS) if all(
            (x[i - 1], -i) > (x[j - 1], -j) for i, j in zip(w, w[1:])))
    points = 0
    for q, top in ((2, 3), (3, 2)):
        for n in itertools.product(range(top + 1), repeat=3):
            if not n[0] >= n[2] >= n[1]:
                continue
            d = LusztigDatum("121", n)
            plan = paving_121(d, verify_qs=(q,))
            record, (cells,) = paving_121_by_listing(d, (q,))
            assert plan.verified == record
            assert {s.borel for s in plan.steps} == {None}
            shift = mv_as_intersection(d)[1]
            chambers = [chamber(shift, s.vertex) for s in plan.steps]
            for k, cell in enumerate(cells):
                for x in cell:
                    E = ec(x)
                    assert min(i for i, (t, b) in enumerate(zip(plan.steps, chambers))
                               if E.vertex(b) == t.vertex) == k
                    points += 1
    assert points == 43928
    # every other chamber for the top cell of P(2,1,1) fails the count
    d = LusztigDatum("121", (2, 1, 1))
    plan = paving_121(d, verify_qs=(2,))
    shift = mv_as_intersection(d)[1]
    steps = [replace(s, borel=chamber(shift, s.vertex)) for s in plan.steps]
    paving._verify_steps(steps, plan.polytope, [(F2, None)])
    for b in set(range(6)) - {steps[0].borel}:
        with pytest.raises(PavingVerificationFailed):
            paving._verify_steps([replace(steps[0], borel=b)] + steps[1:], plan.polytope,
                                 [(F2, None)])


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


def _kernel_test_cells():
    """(cell, q) pairs of the kernel tests: the contracting cells of the
    criterion-7 data (n_i <= 2) over F_2 and, up to dimension 4, over F_3, and
    the Iwahori cells of P(2,1,1) and P(3,1,2) over F_2 and F_3."""
    out = []
    for n in _normal_data():
        P = MVPolytope.from_datum(LusztigDatum("121", n))
        for b in range(6):
            c = contracting_cell(P, b)
            out += [(c, q) for q in (2, 3) if q == 2 or c.dim <= 4]
    for n in ((2, 1, 1), (3, 1, 2)):
        d = LusztigDatum("121", n)
        lam1, shift, _lam2 = mv_as_intersection(d)
        out += [(iwahori_cell(shift, lam1, v), q)
                for v in schubert_anchored_family(d).lattice_points() for q in (2, 3)]
    return out


def test_cell_points_match_matrix_products():
    # the integer Hermite kernel against LaurentSeries products and the
    # series Hermite form; each cell has exactly q^dim points, so its
    # parametrization is injective
    cases = _kernel_test_cells()
    assert sum(isinstance(c, ContractingCell) and q == 2 for c, q in cases) == 60
    assert {c.inverted for c, _q in cases if isinstance(c, ContractingCell)} == {True, False}
    for c, q in cases:
        field = PrimeField(q)
        if isinstance(c, ContractingCell):
            want = cell_points_by_matrices(field, c.diag, c.windows, c.inverted)
            assert _cell_points(field, c.diag, c.windows, c.inverted) == want
        else:
            want = cell_points_by_matrices(field, c.vertex, c.windows)
        assert len(want) == q ** c.dim
        assert c.enumerate(field) == want


def test_cell_enumeration_matches_coordinates_over_f5():
    # F_5, a prime no other cell test uses: on the normal-data cells of
    # dimension at most 3, the cell by its definition is the set its explicit
    # coordinates carve, with 5^dim points
    F5 = PrimeField(5)
    cells = [contracting_cell(MVPolytope.from_datum(LusztigDatum("121", n)), b)
             for n in _normal_data() if n[0] + 2 * n[1] + n[2] <= 3 for b in range(6)]
    assert len(cells) == 30
    for c in cells:
        pts = c.enumerate(F5)
        assert len(pts) == 5 ** c.dim
        assert pts == _cell_points(F5, c.diag, c.windows, c.inverted)


def test_cell_facet_cut_matches_filter():
    # the facet cut of every cell of the normal data in {0..3}^3 over F_2,
    # over F_3 with n1 + n2 + n3 <= 6, and of a translated anchoring equals
    # the filter of the whole truncation; in chambers 0, 1 and 5 (facets 0
    # and 3) some pair keeps only part of its tails, which the cut of the
    # first free coefficient decides
    cases = [(MVPolytope.from_datum(LusztigDatum("121", n)), q) for q in (2, 3)
             for n in itertools.product(range(4), repeat=3)
             if n[0] >= n[2] >= n[1] and (q == 2 or sum(n) <= 6)]
    cases.append((MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1)), base=(-1, 1, 1)), 3))
    assert len(cases) == 37
    split = set()
    for P, q in cases:
        field = PrimeField(q)
        pairs = Counter((d, e21, e32) for d, e21, _e31, e32, _prof
                        in _iter_entries(P.family, q))
        for b in range(6):
            cell = contracting_cell(P, b)
            pts = cell.enumerate(field)
            assert pts == contracting_cell_by_filter(cell, field), (P.datum121.n, b, q)
            kept = Counter((x.d, x.entries[0], x.entries[2]) for x in pts)
            if any(k < pairs[pr] for pr, k in kept.items()):
                split.add(b)
    assert split == {0, 1, 5}


def test_cell_enumeration_counts_whole_windows():
    # P(5,5,5) over F_2 has about 1.3e7 window candidates; the cut would build
    # far fewer, but the budget counts the whole windows, for every chamber
    P = MVPolytope.from_datum(LusztigDatum("121", (5, 5, 5)))
    for b in range(6):
        with pytest.raises(BudgetExceeded):
            contracting_cell(P, b).enumerate(F2)


def test_inverted_cell_needs_determinant_one():
    # an inverted cell inverts its unipotent by the adjugate
    with pytest.raises(PreconditionViolated):
        _cell_points(F2, (0, 0, 0), ((1, 2, 0, 1), (2, 1, 0, 1)), inverted=True)


def test_cell_enumeration_ignores_precision():
    # the contracting cells of the normal data with n_i <= 2, and Iwahori
    # cells: neither the enumerator nor the integer Hermite kernel of the
    # explicit coordinates has a series, so the field's precision (1 or 64)
    # changes nothing
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
        if isinstance(c, ContractingCell):
            assert _cell_points(PrimeField(2, 1), c.diag, c.windows, c.inverted) == pts


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


def test_verify_steps_failure_messages():
    # a plan with one step removed leaves points that no step takes: the first
    # such Ec family is named by its vertices, with the field and the steps at
    # its corners (without step 3, the step at (0, 0, 0) in chamber 0 sits at a
    # corner of the lost support but does not contain it); a step whose dim is
    # off by one is named with its count
    fam = MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1))).family
    steps = _pave(fam, _mv_cell_fn)
    for k, n, ec_vertices, corners in (
            (0, 2, ((-1, 1, 0), (-1, 1, 0), (-3, 1, 2), (-3, 1, 2), (-3, 1, 2), (-1, 1, 0)),
             "none"),
            (3, 2, ((0, 0, 0), (0, 0, 0), (-2, 0, 2), (-2, 0, 2), (-2, 0, 2), (0, 0, 0)),
             "(0, 0, 0) (chamber 0)"),
            (9, 1, ((0, 0, 0),) * 6, "none")):
        with pytest.raises(PavingVerificationFailed) as err:
            paving._verify_steps(steps[:k] + steps[k + 1:], fam, [(F2, None)])
        assert str(err.value) == (f"{n} points over F_2 with Ec {ec_vertices} match no paving "
                                  f"step; steps at its corners: {corners}")
    bad = list(steps)
    bad[2] = paving.PavingStep(bad[2].vertex, bad[2].borel, bad[2].dim + 1, bad[2].polytope)
    with pytest.raises(PavingVerificationFailed) as err:
        paving._verify_steps(bad, fam, [(F3, None)])
    assert str(err.value) == "cell at (-2, 2, 0) (chamber 4) counts 81 over F_3, wants 3^5"


def test_greedy_takes_best_feasible_candidate():
    # on these data the best-ranked vertex lies in a second active piece at
    # some step (step 5 on P(3,3,3)); a lower-ranked candidate paves instead
    for fam in (MVPolytope.from_datum(LusztigDatum("121", (3, 3, 3))).family,
                weyl_family((6, 3, 0))):
        plan = greedy_paving(fam, verify_qs=(2,))
        assert len(plan.steps) == 37
        assert plan.verified["per_q"] == [
            {"q": 2, "total": 17067, "by_step": [2 ** s.dim for s in plan.steps]}]


# (vertex, borel, dim, support) of each step of the greedy plans of the data
# where some step takes a lower-ranked candidate: on these the ranking, and so
# the order the engine keeps its pieces in, decides the plan; P(5,5,5) to
# P(10,10,10) are the largest plans tier-1 builds
PINNED_PLANS = json.loads((Path(__file__).parent / "data" / "greedy_plans.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_greedy_plan_matches_pinned_plan(name):
    kind, args = name.rstrip(")").split("(")
    n = tuple(int(k) for k in args.split(","))
    fam = (weyl_family(n) if kind == "Weyl"
           else MVPolytope.from_datum(LusztigDatum("121", n)).family)
    got = [[list(s.vertex), s.borel, s.dim, list(s.polytope.support)]
           for s in _pave(fam, _mv_cell_fn)]
    assert got == PINNED_PLANS[name]


def test_forced_vertex_in_another_piece_names_both_pieces():
    # a forced vertex whose only candidate lies in another active piece
    fam = MVPolytope.from_datum(LusztigDatum("121", (0, 1, 1))).family
    with pytest.raises(PavingVerificationFailed) as e:
        _pave(fam, _mv_cell_fn, forced=[(-1, -1, 2), (0, -1, 1)])
    msg = str(e.value)
    assert "step 1" in msg and "vertex (0, -1, 1), chamber 1" in msg
    assert "support (0, 0, 1, 0, 1, 1)" in msg and "support (0, 0, 2, 0, 2, 0)" in msg


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


def _walk_cases():
    """(family, avoid) pairs: MV polytopes with n_i <= 2, n1 + n2 + n3 <= 3
    under all Weyl twists, and every family whose support lies within 1 below
    that of a Weyl polytope, each with avoid None, vertex 0 and vertex 3."""
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
    return [(f, avoid) for f in fams for avoid in (None, f.vertex(0), f.vertex(3))]


def test_max_gmv_inside_matches_unit_walk():
    for f, avoid in _walk_cases():
        assert max_gmv_inside(f, avoid) == _max_gmv_inside_by_unit_steps(f, avoid), \
            (f.vertices, avoid)


def test_max_gmv_inside_matches_lattice_point_walk():
    for f, avoid in _walk_cases():
        assert max_gmv_inside(f, avoid) == max_gmv_inside_by_lattice_points(f, avoid), \
            (f.vertices, avoid)


def test_max_gmv_inside_lists_no_lattice_points(monkeypatch):
    cases = _walk_cases()

    def refuse(self):
        raise AssertionError("max_gmv_inside listed lattice points")

    monkeypatch.setattr(GTFamily, "lattice_points", refuse)
    for f, avoid in cases:
        max_gmv_inside(f, avoid)


def _grid_families():
    """Every family with nu in {-1..2} and support in {-1..3}^6."""
    fams = []
    for nu in range(-1, 3):
        for M in itertools.product(range(-1, 4), repeat=6):
            try:
                fams.append(GTFamily(nu, M))
            except InconsistentFamily:
                pass
    return fams


def test_is_gmv_matches_canonicalize():
    fams = _grid_families()
    assert len(fams) == 6928
    assert [is_gmv(f) for f in fams] == [is_gmv_canonical(f) for f in fams]
    assert all(is_gmv(f) == (mv_twist(f) is not None) for f in fams)


def test_canonicalize_matches_vertex_scores():
    # the twist search on the support gives the same (w, MVPolytope) as the
    # vertex-score loop, and raises NotMV exactly where is_gmv is false
    for f in _grid_families():
        try:
            want = canonicalize_by_scores(f)
        except NotMV:
            assert not is_gmv(f)
            with pytest.raises(NotMV):
                canonicalize(f)
            continue
        assert is_gmv(f) and canonicalize(f) == want


def test_mv_test_matches_lusztig_data():
    # the braid test on twisted edge lengths is the braid move between the two
    # Lusztig data of the twisted family, and mv_twist is the twist that the
    # vertex scores pick
    n_mv = 0
    for f in _grid_families():
        for w in BORELS:
            h = f.weyl(perm_inv(w))
            k = mv_edges(f, w)
            assert (k is not None) == is_mv_family(h)
            if k is not None:
                assert k == h.edge_lengths()
                n_mv += 1
        try:
            want = canonicalize_by_scores(f)[0]
        except NotMV:
            want = None
        assert mv_twist(f) == want
    assert n_mv == 13878


def test_gmv_dimension_matches_canonicalize():
    fams = [f for f in _grid_families() if is_gmv(f)]
    assert len(fams) == 3196
    assert [gmv_dimension(f) for f in fams] == [gmv_dimension_canonical(f) for f in fams]


# the families of the mv_pave benchmark workload
MV_PAVE_FAMILIES = (
    [MVPolytope.from_datum(LusztigDatum("121", n)).family
     for n in ((1, 0, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2), (1, 1, 1), (2, 0, 1), (2, 1, 2),
               (1, 1, 0))]
    + [weyl_family(lam)
       for lam in ((2, 1, 0), (3, 1, 0), (4, 2, 0), (2, 0, 0), (2, 2, 0), (3, 0, 0))])


def test_max_gmv_inside_matches_walk_on_pave_calls(monkeypatch):
    calls = []
    real = paving.max_gmv_inside

    def record(f, avoid):
        calls.append((f, avoid))
        return real(f, avoid)

    monkeypatch.setattr(paving, "max_gmv_inside", record)
    # the mv_pave families, then those of criterion 6, then the Springer
    # chains of criterion 8: plans built but not counted
    for fam in MV_PAVE_FAMILIES:
        _pave(fam, _mv_cell_fn)
    n_mv = len(calls)
    for fam in ([MVPolytope.from_datum(LusztigDatum("121", n)).family for n in PURITY_DATA]
                + [weyl_family(lam) for lam in PURITY_WEYL]):
        _pave(fam, _mv_cell_fn)
    n_purity = len(calls) - n_mv
    for n1, n2 in SPRINGER_FAMILIES:
        gam = synthesize_gamma((n1, n2, n2), PrimeField(3), random.Random(8))
        for j in _alternating_words(2 * n2):
            truncated_paving(gam, j, verify_qs=())
    assert (n_mv, n_purity, len(calls) - n_mv - n_purity) == (151, 41, 181)
    # two data where some step takes a lower-ranked candidate
    for n in ((3, 3, 3), (4, 4, 4)):
        _pave(MVPolytope.from_datum(LusztigDatum("121", n)).family, _mv_cell_fn)
    for f, avoid in calls:
        assert [P.support for P in real(f, avoid)] == \
            [P.support for P in max_gmv_inside_walk(f, avoid)], (f.support, avoid)


def test_union_degree_matches_skeleton_union(monkeypatch):
    # every weight _pave reads is the degree in the union of the actives'
    # skeletons: on the 153-datum sweep, then on the Springer plans of three
    # patterns (built, not counted)
    real = paving.union_degree
    calls = []
    unions = {}  # one union per round: its calls share the actives

    def checked(v, pieces, springer_c=None):
        calls.append(springer_c)
        key = (tuple(P.support for P in pieces), pieces[0].nu, springer_c)
        if key not in unions:
            unions[key] = skeleton_union(pieces, springer_c)
        got = real(v, pieces, springer_c)
        assert got == wt(unions[key], v), (v, key)
        return got

    monkeypatch.setattr(paving, "union_degree", checked)
    for fam in ([MVPolytope.from_datum(LusztigDatum("121", n)).family
                 for n in itertools.product(range(5), repeat=3)]
                + [weyl_family((a, b, 0)) for a in range(7) for b in range(a + 1)]):
        _pave(fam, _mv_cell_fn)
    n_sweep = len(calls)
    for pattern in ((1, 1, 1), (2, 1, 1), (2, 2, 2)):
        gam = synthesize_gamma(pattern, PrimeField(3), random.Random(8))
        for j in _alternating_words(2 * pattern[1]):
            truncated_paving(gam, j, verify_qs=())
    assert (n_sweep, len(calls) - n_sweep) == (23452, 317)
    assert all(c is not None for c in calls[n_sweep:])
    # seeded sets of 1 to 5 GMV pieces of one family, at a lattice point of
    # the family, each with springer_c None and with a triple in {0..3}^3
    rng = random.Random(28)
    shared = Counter()  # cases by the number of pieces that contain v
    for _ in range(1500):
        n = tuple(rng.randrange(4) for _ in range(3))
        f = MVPolytope.from_datum(LusztigDatum("121", n)).family
        pts = f.lattice_points()
        pool = max_gmv_inside(f, None) + [P for u in rng.sample(pts, min(3, len(pts)))
                                          for P in max_gmv_inside(f, u)]
        pieces = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
        v = rng.choice(pts)
        for c in (None, tuple(rng.randrange(4) for _ in range(3))):
            assert real(v, pieces, c) == union_degree_by_skeleton(v, pieces, c), \
                (v, [P.support for P in pieces], c)
        shared[min(2, sum(P.contains_point(v) for P in pieces))] += 1
    assert sorted(shared.items()) == [(0, 202), (1, 528), (2, 770)]


def test_max_gmv_inside_matches_walk_on_grid():
    # the closed form against the support walk: every family of the grid with
    # avoid None, and every lattice point of each family with nu = 0 and
    # support in {-1..2}^6
    fams = _grid_families()
    assert [[P.support for P in max_gmv_inside(f, None)] for f in fams] == \
        [[P.support for P in max_gmv_inside_walk(f, None)] for f in fams]
    cases = [(f, v) for f in fams if f.nu == 0 and min(f.support) >= -1 and max(f.support) <= 2
             for v in f.lattice_points()]
    assert len(cases) == 2627
    for f, v in cases:
        assert max_gmv_inside(f, v) == max_gmv_inside_walk(f, v), (f.support, f.nu, v)


def test_max_gmv_inside_avoid_outside_is_plain_walk():
    for f in [f for f, avoid in _walk_cases() if avoid is None]:
        v = f.vertex(0)
        # beyond facet {1}; off the nu fiber, beyond it and below every facet
        for out in ((v[0] + 1, v[1] - 1, v[2]), (v[0] + 1, v[1], v[2]), (v[0] - 1, v[1], v[2])):
            assert not f.contains_point(out)
            assert max_gmv_inside(f, out) == max_gmv_inside(f, None) == \
                max_gmv_inside_walk(f, out)


def test_empty_facet_cut_never_tightened(monkeypatch):
    def tighten_with_points(M, nu):
        assert all(M[ci] + M[5 - ci] >= nu for ci in range(6)), (M, nu)
        return tighten_support(M, nu)

    monkeypatch.setattr(paving, "tighten_support", tighten_with_points)
    skipped = 0
    for f in [f for f, avoid in _walk_cases() if avoid is None]:
        M = f.support
        for v in f.vertices:
            skipped += sum(pairing(v, S) - 1 + M[5 - ci] < f.nu for ci, S in enumerate(CHAMBERS))
            assert max_gmv_inside(f, v) == max_gmv_inside_walk(f, v)
    assert skipped > 0


def test_gmv_facet_cut_ends_walk_at_first_state():
    for n in ((1, 0, 1), (1, 1, 1)):
        f = MVPolytope.from_datum(LusztigDatum("121", n)).family
        for v in f.vertices:
            cuts = [tighten_support(f.support[:ci] + (pairing(v, S) - 1,) + f.support[ci + 1:],
                                    f.nu) for ci, S in enumerate(CHAMBERS)
                    if pairing(v, S) - 1 + f.support[5 - ci] >= f.nu]
            assert all(is_gmv(family_from_support(m, f.nu)) for m in cuts)
            got = max_gmv_inside(f, v)
            assert got == _maximal(family_from_support(m, f.nu) for m in cuts)

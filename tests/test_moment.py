import itertools

import pytest

from affgrass.acceptance import PURITY_DATA, PURITY_WEYL
from affgrass.errors import BudgetExceeded
from affgrass.grass import member
from affgrass.laurent import PrimeField
from affgrass.moment import (MomentGraph, PoincarePoly, compare, graph_to_json,
                             min_formal_poincare, skeleton, to_dot)
from affgrass.mvcomb import LusztigDatum, MVPolytope
from affgrass.paving import max_gmv_inside
from affgrass.rootdata import (BORELS, POSROOTS, coroot, family_from_support,
                               scale_cw, sub_cw, weyl_family)

from reference import curve_point, formal_betti, min_formal_poincare_full_scan, span, wt


def P(n):
    return MVPolytope.from_datum(LusztigDatum("121", n)).family


def test_skeleton_examples():
    g = skeleton(P((1, 0, 0)))
    assert len(g.vertices) == 2 and len(g.edges) == 1
    tri = skeleton(weyl_family((1, 0, 0)))
    assert len(tri.vertices) == 3 and len(tri.edges) == 3
    assert all(wt(tri, v) == 2 for v in tri.vertices)
    point = skeleton(family_from_support([0] * 6, 0))
    assert len(point.edges) == 0


def _skeleton_families():
    fams = [P(n).weyl(w) for n in itertools.product(range(3), repeat=3)
            for w in BORELS]
    fams += [weyl_family((2, 1, 0)), weyl_family((3, 1, 0))]
    big = P((2, 1, 1))
    fams += [Q for v in big.lattice_points() for Q in max_gmv_inside(big, v)]
    assert len(fams) == 200
    return fams


def test_skeleton_matches_curve_membership():
    # reference: the orbit (a, k) at v is an edge when a nonfixed point of it,
    # canonicalized over F_2, is a member of the truncation
    F2 = PrimeField(2, 64)
    n_edges = 0
    for f in _skeleton_families():
        vset = set(f.lattice_points())
        want = sorted(
            (v, u, a, k) for v in vset for a in POSROOTS
            for k in range(1, span(f) + 1)
            if (u := sub_cw(v, scale_cw(k, coroot(a)))) in vset
            and member(curve_point(F2, a, k, v), f))
        assert list(skeleton(f).edges) == want
        n_edges += len(want)
    assert n_edges == 3920


def test_springer_filter_reads_each_root_valuation():
    # springer_c is (c12, c23, c13): each edge stays when k is at most the
    # valuation of its own root, which asymmetric patterns tell apart
    fams = _skeleton_families()
    kept = dropped = 0
    for c in ((1, 1, 1), (2, 1, 1), (1, 2, 0), (0, 1, 3), (3, 0, 1)):
        c_of = dict(zip(((1, 2), (2, 3), (1, 3)), c))
        for f in fams:
            full = skeleton(f).edges
            want = tuple(e for e in full if e[3] <= c_of[e[2]])
            assert skeleton(f, springer_c=c).edges == want
            kept += len(want)
            dropped += len(full) - len(want)
    assert (kept, dropped) == (11688, 7912)


def test_wt_is_cell_dimension_at_corners():
    fam = P((2, 1, 1))
    g = skeleton(fam)
    for b in range(6):
        assert wt(g, fam.vertex(b)) == 5
    # interior vertices carry strictly more edges
    interior = set(fam.lattice_points()) - set(fam.vertices)
    assert interior and all(wt(g, v) > 5 for v in interior)


def test_springer_filter_prunes_edges():
    fam = P((2, 1, 1))
    full = skeleton(fam)
    filt = skeleton(fam, springer_c=(1, 1, 1))
    assert set(filt.edges) < set(full.edges)
    assert all(k <= 1 for (_u, _v, _a, k) in filt.edges)


def test_formal_betti_examples():
    g = skeleton(P((1, 0, 0)))
    vs = list(g.vertices)
    assert formal_betti(g, vs).coeffs == (1, 1)
    assert formal_betti(g, vs[::-1]).coeffs == (1, 1)
    tri = skeleton(weyl_family((1, 0, 0)))
    for order in itertools.permutations(tri.vertices):
        assert formal_betti(tri, list(order)).coeffs == (1, 1, 1)


def test_formal_betti_path_graph_order_matters():
    # 3-vertex path: center removed last vs first
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    g = MomentGraph((a, b, c), ((a, b, (1, 2), 1), (b, c, (2, 3), 1)))
    # order lists vertices largest first; edges point large -> small
    early = formal_betti(g, [b, a, c])   # center largest: out-degree 2
    late = formal_betti(g, [a, c, b])    # center smallest: leaves shoot at it
    assert early.coeffs == (2, 0, 1)
    assert late.coeffs == (1, 2)
    assert compare(late, early) < 0


def test_compare():
    assert compare(PoincarePoly((1, 1)), PoincarePoly((1, 0, 1))) < 0
    assert compare(PoincarePoly((2, 1)), PoincarePoly((1, 2))) < 0
    assert compare(PoincarePoly((1, 1)), PoincarePoly((1, 1))) == 0


def test_min_formal_small():
    assert min_formal_poincare(skeleton(P((1, 0, 0))))[0].coeffs == (1, 1)
    assert min_formal_poincare(skeleton(weyl_family((1, 0, 0))))[0].coeffs == (1, 1, 1)


def test_min_formal_matches_brute_force():
    for fam in (weyl_family((1, 0, 0)), P((1, 0, 1)), P((1, 1, 0))):
        g = skeleton(fam)
        best = None
        for order in itertools.permutations(g.vertices):
            p = formal_betti(g, list(order))
            if best is None or compare(p, best) < 0:
                best = p
        dp, order = min_formal_poincare(g)
        assert compare(dp, best) == 0
        assert compare(formal_betti(g, order), dp) == 0


def _min_formal_poincare_by_lists(g):
    """The order scan on adjacency-count lists that the bitmask scan replaced."""
    verts = list(g.vertices)
    n = len(verts)
    if n == 0:
        return PoincarePoly(()), []
    idx = {v: i for i, v in enumerate(verts)}
    mult = [[0] * n for _ in range(n)]
    deg = [0] * n
    for (u, v, _a, _k) in g.edges:
        iu, iv = idx[u], idx[v]
        mult[iu][iv] += 1
        mult[iv][iu] += 1
        deg[iu] += 1
        deg[iv] += 1
    maxdeg = max(deg, default=0)

    def better(a, b):
        if b is None:
            return True
        for i in reversed(range(maxdeg + 1)):
            if a[i] != b[i]:
                return a[i] < b[i]
        return False

    size = 1 << n
    best = [None] * size
    parent = [-1] * size
    best[0] = tuple([0] * (maxdeg + 1))
    for mask in range(size):
        cur = best[mask]
        if cur is None:
            continue
        for v in range(n):
            if mask & (1 << v):
                continue
            above = sum(mult[v][u] for u in range(n) if mask & (1 << u))
            cand = list(cur)
            cand[deg[v] - above] += 1
            cand = tuple(cand)
            m2 = mask | (1 << v)
            if better(cand, best[m2]):
                best[m2] = cand
                parent[m2] = v
    order_idx = []
    mask = size - 1
    while mask:
        v = parent[mask]
        order_idx.append(v)
        mask ^= (1 << v)
    order_idx.reverse()
    return PoincarePoly(best[size - 1]), [verts[i] for i in order_idx]


def test_min_formal_matches_list_scan():
    # the benchmark's mv_pave families with at most 16 lattice points, and the
    # purity-bridge (criterion 6) families
    data = [(1, 0, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2), (1, 1, 1), (2, 0, 1), (2, 1, 2),
            (1, 1, 0)] + PURITY_DATA
    fams = [P(n) for n in data]
    fams += [weyl_family(lam) for lam in [(2, 1, 0), (3, 1, 0), (4, 2, 0), (2, 0, 0),
                                          (2, 2, 0), (3, 0, 0)] + PURITY_WEYL]
    graphs = {skeleton(f) for f in fams if len(f.lattice_points()) <= 16}
    assert len(graphs) == 16
    for g in graphs:
        poly, order = min_formal_poincare(g)
        want_poly, want_order = _min_formal_poincare_by_lists(g)
        assert poly.coeffs == want_poly.coeffs and order == want_order


def test_min_formal_matches_full_scan():
    # every skeleton with at most 16 lattice points among the MV data in
    # {0..3}^3 and the Weyl polytopes (a, b, 0), 0 <= b <= a <= 4
    fams = [P(n) for n in itertools.product(range(4), repeat=3)]
    fams += [weyl_family((a, b, 0)) for a in range(5) for b in range(a + 1)]
    graphs = dict.fromkeys(skeleton(f) for f in fams if len(f.lattice_points()) <= 16)
    assert len(graphs) == 55
    assert max(len(g.vertices) for g in graphs) == 16
    for g in graphs:
        poly, order = min_formal_poincare(g)
        want_poly, want_order = min_formal_poincare_full_scan(g)
        assert poly.coeffs == want_poly.coeffs and order == want_order


def test_min_formal_matches_full_scan_on_random_graphs():
    # simple graphs on up to 10 vertices, where ties between pruned and kept
    # predecessors are common: the witness must still be the full scan's
    import random
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(2, 10)
        verts = tuple((i, 0, -i) for i in range(n))
        p = rng.choice((0.2, 0.4, 0.6))
        g = MomentGraph(verts, tuple((verts[i], verts[j], (1, 3), 1) for i in range(n)
                                     for j in range(i + 1, n) if rng.random() < p))
        poly, order = min_formal_poincare(g)
        want_poly, want_order = min_formal_poincare_full_scan(g)
        assert poly.coeffs == want_poly.coeffs and order == want_order


def test_betti_sum_is_vertex_count():
    import random
    rng = random.Random(5)
    g = skeleton(P((2, 1, 1)))
    for _ in range(10):
        order = list(g.vertices)
        rng.shuffle(order)
        assert sum(formal_betti(g, order).coeffs) == len(g.vertices)


def test_budget():
    g = skeleton(P((2, 1, 1)))
    with pytest.raises(BudgetExceeded):
        min_formal_poincare(g, budget=4)


@pytest.mark.parametrize("scan", [min_formal_poincare, min_formal_poincare_full_scan])
def test_budget_boundary(scan):
    g = skeleton(P((2, 1, 1)))
    n = len(g.vertices)
    assert scan(g, budget=1 << n)[0].coeffs
    with pytest.raises(BudgetExceeded):
        scan(g, budget=(1 << n) - 1)


def test_exports():
    g = skeleton(P((1, 0, 0)))
    dot = to_dot(g)
    assert "--" in dot and "a1" in dot
    js = graph_to_json(g)
    assert len(js["vertices"]) == 2 and js["edges"][0]["k"] == 1

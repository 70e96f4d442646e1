import itertools
import math
import random
from collections import Counter

import pytest

from affgrass.acceptance import (SPRINGER_FAMILIES, _alternating_words, _normal_data,
                                 _ultrametric_box)
from affgrass.errors import (BudgetExceeded, InconsistentFamily, NormalPositionRequired,
                             PatternMismatch, PavingVerificationFailed)
from affgrass.grass import (GrassPoint, _ec_supports, _entry_windows, _iter_pairs,
                            _window_entries, canonicalize_point, ec, enumerate_points,
                            iter_points, mat, mat_diag_eps, sample_point)
from affgrass.laurent import (ZERO_ENTRY, LaurentSeries, PrimeField, _mul, eps, one,
                              series_from_json, val, zero)
from affgrass.mvcomb import LusztigDatum, MVPolytope, apply_crystal_word, braid
from affgrass.paving import _cell_points, contracting_cell, greedy_paving, max_gmv_inside
from affgrass.rootdata import GTFamily, contains, edge_lengths, family_from_support
from affgrass.springer import (RegularDiagonal, criterion, criterion_l_values,
                               criterion_oracle, criterion_raw_case1,
                               criterion_bound, fundamental_domain,
                               _normalize_gmv, member_springer,
                               pattern_realizable, springer_cell_data, springer_dim,
                               synthesize_gamma, truncated_paving, ultrametric,
                               verification_primes)

from reference import (_iter_entries, admits_by_completions, admits_by_products,
                       criterion_bound_by_cases, criterion_l_values_by_table,
                       criterion_oracle_by_families, criterion_oracle_on_cells,
                       ec_counts_by_points, exact, iter_entries_windows,
                       iter_pairs_by_normal_forms, mat_identity, mat_inv, mat_mul,
                       member_springer_by_completions, member_springer_matrix,
                       normalize_gmv_by_families, t31_ball_by_completions, translate_point)

F2 = PrimeField(2, 64)
F3 = PrimeField(3, 64)
F5 = PrimeField(5, 64)


def test_ultrametric_and_realizability():
    assert ultrametric((2, 1, 1)) and ultrametric((1, 1, 5)) and ultrametric((0, 0, 0))
    assert not ultrametric((1, 2, 3))
    assert pattern_realizable((2, 1, 1), 2)
    assert not pattern_realizable((1, 1, 1), 2)
    assert pattern_realizable((1, 1, 1), 3)
    assert verification_primes((2, 1, 1)) == (2, 3) and verification_primes((1, 1, 1)) == (3, 5)
    with pytest.raises(PatternMismatch):
        synthesize_gamma((1, 1, 1), F2, random.Random(0))


def test_synthesize_patterns():
    rng = random.Random(1)
    for c in ((0, 0, 0), (1, 1, 1), (2, 1, 1), (1, 1, 5), (0, 2, 0), (3, 1, 1)):
        for p in (2, 3, 5):
            if not pattern_realizable(c, p):
                continue
            gam = synthesize_gamma(c, PrimeField(p, 64), rng)
            assert gam.c == c
            assert all(exact(g) for g in gam.gamma)


def test_springer_dim():
    rng = random.Random(2)
    assert springer_dim(synthesize_gamma((1, 1, 1), F3, rng)) == 3
    assert springer_dim(synthesize_gamma((2, 1, 1), F3, rng)) == 4
    assert springer_dim(synthesize_gamma((0, 0, 0), F3, rng)) == 0


def test_member_fixed_points_always():
    rng = random.Random(3)
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    for nu in ((0, 0, 0), (2, -1, 3), (-1, 0, 1)):
        x = canonicalize_point(mat_diag_eps(F3, nu))
        assert member_springer(x, gam)


def test_member_matches_case1_congruences():
    # chamber-0 coordinates (a, b, c): membership iff
    # a(g1-g2) in p^n1, b(g2-g3) in p^n2, c(g3-g1)+ab(g1-g2) in p^(n1+n2)
    rng = random.Random(4)
    n1, n2, n3 = 2, 1, 1
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    g1, g2, g3 = gam.gamma
    P = MVPolytope.from_datum(LusztigDatum("121", (n1, n2, n3)),
                              base=(-n2, n1 - n3, n3))
    lam0 = P.family.vertex(0)
    assert lam0 == (n1, 0, -n2)
    for _ in range(40):
        a = LaurentSeries(F3, 0, [rng.randrange(3) for _ in range(4)])
        b = LaurentSeries(F3, 0, [rng.randrange(3) for _ in range(4)])
        c = LaurentSeries(F3, n1 - n3, [rng.randrange(3) for _ in range(4)])
        u = [list(r) for r in mat_identity(F3)]
        u[0][1], u[0][2], u[1][2] = a, c, b
        g = mat_mul(mat_inv(mat(u)), mat_diag_eps(F3, lam0))
        x = canonicalize_point(g)
        want = ((a * (g1 - g2)).effval() >= n1
                and (b * (g2 - g3)).effval() >= n2
                and (c * (g3 - g1) + (a * b) * (g1 - g2)).effval() >= n1 + n2)
        assert member_springer(x, gam) == want
        assert member_springer_matrix(g, gam) == want


def test_member_violation_case():
    rng = random.Random(5)
    gam = synthesize_gamma((1, 1, 1), F3, rng)
    # a unit in the (1,2) slot with n1 = 2 > c12 = 1 violates the congruence
    u = [list(r) for r in mat_identity(F3)]
    u[0][1] = one(F3)
    g = mat_mul(mat_inv(mat(u)), mat_diag_eps(F3, (2, 0, -1)))
    assert not member_springer(canonicalize_point(g), gam)


def test_translation_equivariance():
    rng = random.Random(6)
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    fam = fundamental_domain(gam)
    pts = enumerate_points(fam, F3)[:40]
    for x in pts:
        for chi in ((1, 0, 0), (0, -1, 2)):
            assert member_springer(x, gam) == \
                member_springer(translate_point(x, chi), gam)


def test_fundamental_domain():
    rng = random.Random(7)
    gam0 = synthesize_gamma((0, 0, 0), F3, rng)
    fam0 = fundamental_domain(gam0)
    assert len(fam0.lattice_points()) == 1
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    want = MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1))).family
    assert fundamental_domain(gam) == want
    bad = synthesize_gamma((1, 2, 1), F3, rng)
    with pytest.raises(PatternMismatch):
        fundamental_domain(bad)


def test_fixed_points_survive():
    rng = random.Random(8)
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    fam = fundamental_domain(gam)
    for v in fam.lattice_points():
        x = canonicalize_point(mat_diag_eps(F3, v))
        assert member_springer(x, gam)


def test_adjacent_gaps_of_regular_points():
    # a point of the fiber whose polytope is the whole fundamental domain has
    # adjacent-vertex gaps equal to the root valuations of gamma
    rng = random.Random(9)
    gam = synthesize_gamma((2, 1, 1), F5, rng)
    fam = fundamental_domain(gam)
    for _ in range(400):
        x = sample_point(fam, F5, rng)
        if member_springer(x, gam) and ec(x) == fam:
            gaps = fam.edge_lengths()
            # gaps around the hexagon are (n2, n2, n1, n2, n2, n1)
            assert gaps == (gam.c[1], gam.c[2], gam.c[0],
                            gam.c[1], gam.c[2], gam.c[0])
            break
    else:
        pytest.fail("no regular point found by sampling")


def test_criterion_examples():
    rng = random.Random(10)
    P = MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1)))
    g1 = synthesize_gamma((2, 1, 1), F3, rng)
    g2 = synthesize_gamma((1, 1, 5), F3, rng)
    assert criterion(P, 0, g1) is True
    assert criterion_l_values((2, 1, 1), 0, (2, 1, 1)) == (2, 1, 1)
    assert criterion(P, 0, g2) is False
    assert criterion_l_values((2, 1, 1), 0, (1, 1, 5)) == (1, 1, 2)
    P0 = MVPolytope.from_datum(LusztigDatum("121", (0, 0, 0)))
    g0 = synthesize_gamma((0, 0, 0), F3, rng)
    assert criterion(P0, 0, g0) is True
    assert criterion_oracle(P, g1)[0] is True
    assert criterion_oracle(P, g2)[0] is False


def test_criterion_reads_the_datum():
    # a normal-position P is its own normal form, so reading the datum gives
    # the verdict of the transported cell data: every normal datum in
    # {0..4}^3 (one by its 212 word, one translated), every chamber and every
    # realizable pattern in {0..3}^3 over F_2 and F_3
    rng = random.Random(22)
    gams = [synthesize_gamma(c, F, rng) for F in (F2, F3)
            for c in itertools.product(range(4), repeat=3) if pattern_realizable(c, F.p)]
    data = [n for n in itertools.product(range(5), repeat=3) if n[0] >= n[2] >= n[1]]
    polys = [MVPolytope.from_datum(LusztigDatum("121", n)) for n in data]
    polys += [MVPolytope.from_datum(braid(LusztigDatum("121", (3, 1, 2)))),
              MVPolytope.from_datum(LusztigDatum("121", (4, 0, 2)), base=(2, -1, 5))]
    assert len(polys) == 37 and polys[-2].datum121.n == (3, 1, 2)
    for P in polys:
        for b in range(6):
            for gam in gams:
                assert criterion(P, b, gam) == springer_cell_data(P.family, b, gam)[1]
    # off normal position the l-values do not apply: both refuse, in one message
    for n in itertools.product(range(3), repeat=3):
        if not n[0] >= n[2] >= n[1]:
            P = MVPolytope.from_datum(LusztigDatum("121", n))
            with pytest.raises(NormalPositionRequired) as by_datum:
                criterion(P, 0, gams[0])
            with pytest.raises(NormalPositionRequired) as by_oracle:
                criterion_oracle(P, gams[0])
            assert str(by_oracle.value) == str(by_datum.value), n


def test_slice_rows_match_table_and_cases():
    # the one row of chamber b gives the orbit counts of the table of all six
    # chambers and the bound by cases: every n and c in {0..5}^3, every b
    box = list(itertools.product(range(6), repeat=3))
    for n in box:
        for c in box:
            for b in range(6):
                assert criterion_l_values(n, b, c) == criterion_l_values_by_table(n, b, c), \
                    (n, b, c)
                assert criterion_bound(n, b, c) == criterion_bound_by_cases(n, b, c), (n, b, c)


def test_criterion_oracle_matches_family_scan():
    # two support numbers per corner give a support to the chambers whose
    # vertex it shares with P, as its family's six vertices do: every normal
    # datum in {0..3}^3 over F_2, and over F_3 those with n1 + 2 n2 + n3 <= 6
    # (668 cases), with one gamma per realizable pattern in {0..3}^3; and the
    # braid-presented P(3, 1, 2) and the translated P(4, 0, 2) by the same rule
    cases = 0
    for q in (2, 3):
        field, rng = PrimeField(q), random.Random(90 + q)
        gams = [synthesize_gamma(c, field, rng) for c in itertools.product(range(4), repeat=3)
                if pattern_realizable(c, q)]
        polys = [MVPolytope.from_datum(LusztigDatum("121", n))
                 for n in itertools.product(range(4), repeat=3) if n[0] >= n[2] >= n[1]]
        polys += [MVPolytope.from_datum(braid(LusztigDatum("121", (3, 1, 2)))),
                  MVPolytope.from_datum(LusztigDatum("121", (4, 0, 2)), base=(2, -1, 5))]
        for P in polys:
            n = P.datum121.n
            if q == 3 and n[0] + 2 * n[1] + n[2] > 6:
                continue
            for gam in gams:
                cases += 1
                assert criterion_oracle(P, gam) == criterion_oracle_by_families(P, gam), \
                    (n, q, gam.c)
    assert cases == 668 + 2 * 18 + 22


def test_normalize_gmv_matches_families():
    # the braid test on twisted edge lengths picks the same (delta, w, datum)
    # as the search over twisted families and their two Lusztig data, on every
    # maximal GMV piece avoiding a vertex of P(n), n in {0..4}^3
    pieces = set()
    for n in itertools.product(range(5), repeat=3):
        f = MVPolytope.from_datum(LusztigDatum("121", n)).family
        for v in set(f.vertices):
            pieces.update(max_gmv_inside(f, v))
    assert len(pieces) == 402
    for Q in pieces:
        assert _normalize_gmv(Q) == normalize_gmv_by_families(Q)
    # a positive hexagon whose two path data are not braid-related
    hexagon = GTFamily.from_vertices(0, ((0, 0, 0), (0, -2, 2), (0, -2, 2), (-2, 0, 2),
                                         (-2, 1, 1), (-1, 1, 0)))
    for normalize in (_normalize_gmv, normalize_gmv_by_families):
        with pytest.raises(NormalPositionRequired):
            normalize(hexagon)


def test_criterion_c_zero_forces_tiny_cells():
    rng = random.Random(11)
    gam = synthesize_gamma((0, 0, 0), F3, rng)
    P = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 1)))
    for b in range(6):
        assert criterion_l_values((1, 0, 1), b, (0, 0, 0)) == (0, 0, 0)
    assert criterion_oracle(P, gam) == (True,) * 6


def test_raw_form_equivalence_spot():
    for n in ((2, 1, 1), (1, 0, 1), (2, 0, 2)):
        for c in ((2, 1, 1), (1, 1, 5), (0, 0, 0), (3, 1, 1)):
            ls = criterion_l_values(n, 0, c)
            assert (sum(ls) <= criterion_bound(n, 0, c)) == criterion_raw_case1(n, c)


def test_truncated_paving_lengths():
    rng = random.Random(12)
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    empty = truncated_paving(gam, (1, 2, 1), rng=rng)
    assert empty.steps == ()
    base = truncated_paving(gam, (1, 2), rng=rng)
    ref = greedy_paving(MVPolytope.from_datum(LusztigDatum("121", (1, 1, 0))).family,
                        rng=rng)
    assert base.poincare().coeffs == ref.poincare().coeffs
    assert [r["total"] for r in base.verified["per_q"]] == \
        [r["total"] for r in ref.verified["per_q"]]


def test_truncated_paving_full_domain():
    rng = random.Random(13)
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    plan = truncated_paving(gam, (), rng=rng)
    assert max(s.dim for s in plan.steps) == springer_dim(gam) == 4
    for rec in plan.verified["per_q"]:
        assert rec["total"] == sum(rec["q"] ** s.dim for s in plan.steps)


def test_w0_vertex_is_the_least_lattice_point():
    # _cap_order walks a lone receding facet from its least lattice point, the
    # w0 vertex (nu - M23, M23 - M3, M3) whenever that vertex lies on the facet:
    # on every consistent family with support in {-2..3}^6 and nu in {-2..2}
    fams = 0
    for nu in range(-2, 3):
        for M in itertools.product(range(-2, 4), repeat=6):
            try:
                f = GTFamily(nu, M)
            except InconsistentFamily:
                continue
            fams += 1
            assert f.lattice_points()[0] == f.vertex(3) == (nu - M[5], M[5] - M[2], M[2]), M
    assert fams == 14890


def test_truncated_rejects_non_alternating():
    rng = random.Random(14)
    gam = synthesize_gamma((2, 1, 1), F3, rng)
    with pytest.raises(ValueError):
        truncated_paving(gam, (1, 1), rng=rng)


def test_regular_diagonal_from_series():
    g = (eps(F3, 1), zero(F3), LaurentSeries(F3, 1, (2,)))
    gam = RegularDiagonal.from_series(g)
    assert gam.c == (1, 1, 1)
    with pytest.raises(PatternMismatch):
        RegularDiagonal.from_series((one(F3), one(F3) + eps(F3), one(F3)))


# ---------------------------------------------------------------------------
# the integer point kernel against the LaurentSeries forms it replaced
# ---------------------------------------------------------------------------

def _truncated_gamma(q):
    """A gamma read from JSON, its series truncated at eps^3 and eps^4."""
    zero_ = {"lead": 0, "coeffs": [], "prec": "exact"}
    data = {2: [{"lead": 2, "coeffs": [1], "prec": 4}, zero_,
                {"lead": 1, "coeffs": [1], "prec": 3}],
            3: [{"lead": 1, "coeffs": [1, 2], "prec": 3}, zero_,
                {"lead": 1, "coeffs": [2], "prec": 3}]}[q]
    return RegularDiagonal.from_series([series_from_json(PrimeField(q), s) for s in data])


@pytest.mark.parametrize("n, q", [((2, 1, 1), 2), ((2, 1, 1), 3),
                                  ((2, 2, 2), 2), ((2, 2, 2), 3)])
def test_member_kernel_matches_matrix(n, q):
    field = PrimeField(q)
    rng = random.Random(30 + q)
    gams = [synthesize_gamma(c, field, rng) for c in itertools.product(range(3), repeat=3)
            if pattern_realizable(c, q)] + [_truncated_gamma(q)]
    pts = list(iter_points(MVPolytope.from_datum(LusztigDatum("121", n)).family, field))
    # each point takes the gammas in turn, so every gamma meets many points; a
    # point is the truncated gamma's exactly when it is every completion's
    for k, x in enumerate(pts):
        gam = gams[k % len(gams)]
        assert member_springer(x, gam) == member_springer_by_completions(x, gam)


def _dprofile_series(x):
    """The LaurentSeries closed form of the D-profile."""
    d1, d2, d3 = x.d
    a = x.h[1][0] * eps(x.field, -d1)
    c = x.h[2][0] * eps(x.field, -d1)
    b = x.h[2][1] * eps(x.field, -d2)
    va, vb, vc = val(a), val(b), val(c)
    vab_c = val(a * b - c)
    return (min(-d1, va - d2, vab_c - d3), min(-d2, vb - d3), -d3,
            min(-d1 - d2, vb - d1 - d3, vc - d2 - d3), min(-d1 - d3, va - d2 - d3),
            -d2 - d3)


def _member_springer_series(x, gamma):
    """The LaurentSeries closed form of the Springer condition."""
    d1, d2, d3 = x.d
    a = x.h[1][0] * eps(x.field, -d1)
    c = x.h[2][0] * eps(x.field, -d1)
    b = x.h[2][1] * eps(x.field, -d2)
    g1, g2, g3 = gamma.gamma
    t21 = a * (g2 - g1)
    t32 = b * (g3 - g2)
    t31 = (a * b) * (g1 - g2) - c * (g1 - g3)
    return (t21.effval() >= d2 - d1 and t32.effval() >= d3 - d2
            and t31.effval() >= d3 - d1)


def _verify_steps_series(steps, family, qs, springer_pattern=None, rng=None):
    """The point-count loop on LaurentSeries points that paving._verify_steps replaced."""
    record = {"per_q": [], "ok": True}
    for q in qs:
        field = PrimeField(q)
        if springer_pattern is not None:
            gam = synthesize_gamma(springer_pattern, field, rng or random.Random(0))
        counts = [0] * len(steps)
        total = 0
        for d in family.lattice_points():
            windows = _entry_windows(family, d)
            for cs in itertools.product(*[itertools.product(range(q), repeat=max(0, hi - lo))
                                          for lo, hi in windows]):
                es = [LaurentSeries(field, lo, c) for (lo, _hi), c in zip(windows, cs)]
                x = GrassPoint(field, d, tuple((e.lead, e.coeffs) for e in es))
                prof = _dprofile_series(x)
                if not all(v >= -m for v, m in zip(prof, family.support)):
                    continue
                if springer_pattern is not None and not _member_springer_series(x, gam):
                    continue
                total += 1
                fx = family_from_support([-v for v in prof], x.nu)
                for i, st in enumerate(steps):
                    if contains(st.polytope, fx) and fx.vertices[st.borel] == st.vertex:
                        counts[i] += 1
                        break
                else:
                    raise PavingVerificationFailed(f"point {x} matched no paving step")
        record["per_q"].append({"q": q, "total": total, "by_step": counts})
    return record


@pytest.mark.parametrize("j", [(), (1,), (2, 1)])
def test_verify_steps_match_series_loop(j):
    gam = synthesize_gamma((2, 2, 2), F3, random.Random(40))
    plan = truncated_paving(gam, j, verify_qs=(3,), rng=random.Random(41))
    want = _verify_steps_series(plan.steps, plan.polytope, (3,), gam.c, random.Random(41))
    assert plan.verified == want


def test_greedy_verification_matches_series_loop():
    fam = MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1))).family
    plan = greedy_paving(fam, verify_qs=(2, 3))
    assert plan.verified == _verify_steps_series(plan.steps, fam, (2, 3))


def _admitted_by_windows(fam, q, gam):
    """The Springer points by the window loop, each candidate tested by the
    product form of ``admits`` on every completion of gam."""
    return Counter(x for x in iter_entries_windows(fam, q) if admits_by_completions(gam, *x[:4]))


def _supports(points, nu):
    """The Ec supports of (d, e21, e31, e32, profile) points, counted; each
    has non-negative edge lengths on the nu fiber, as an Ec family must."""
    got = Counter(tuple(-v for v in prof) for *_pt, prof in points.elements())
    assert all(min(edge_lengths(nu, M)) >= 0 for M in got)
    return got


@pytest.mark.parametrize("n1, n2", SPRINGER_FAMILIES)
def test_springer_balls_match_window_loop(n1, n2):
    # every crystal truncation of the fundamental domain, as criterion 8 runs them
    for seed in (40, 41):
        gam = synthesize_gamma((n1, n2, n2), F3, random.Random(seed))
        P0 = MVPolytope.from_family(fundamental_domain(gam))
        for j in _alternating_words(2 * n2):
            fam = apply_crystal_word(j, P0).family
            want = _admitted_by_windows(fam, 3, gam)
            assert Counter(_iter_entries(fam, 3, gamma=gam)) == want, (seed, j)
            assert _ec_supports(fam, 3, gam) == _supports(want, fam.nu), (seed, j)


# (rel12, rel13, Springer points of the fundamental domain over F_3)
TRUNCATED = [(1, None, 2101), (None, 1, 2101), (1, 1, 2101), (2, 2, 2425), (None, None, 2425)]


def _gamma_222(rel12, rel13):
    """A gamma of pattern (2, 2, 2) over F_3 whose roots r12 and r13 are known
    to relative precision rel12 and rel13 (None: exact)."""
    r12 = LaurentSeries(F3, 2, [1, 2, 1, 1], None if rel12 is None else 2 + rel12)
    r13 = LaurentSeries(F3, 2, [2, 1, 0, 1], None if rel13 is None else 2 + rel13)
    return RegularDiagonal.from_series((zero(F3), -r12, -r13))


@pytest.mark.parametrize("rel12, rel13, total", TRUNCATED)
def test_truncated_gamma_must_reach_top(rel12, rel13, total):
    # pattern (2, 2, 2) with g1 = 0 exact: the completions' r12 / r13 agree
    # below slack = min(rel12, rel13), and when the leads of t31 meet below top,
    # top - x is at most c23 = 2, so relative precision 2 always reaches top
    # and precision 1 falls short on some (e21, e32), which no e31 then passes
    # for every completion
    gam = _gamma_222(rel12, rel13)
    assert gam._roots[2] == min((r for r in (rel12, rel13) if r is not None), default=math.inf)
    assert gam.c == (2, 2, 2)
    fam = fundamental_domain(gam)
    got, want = Counter(_iter_entries(fam, 3, gamma=gam)), _admitted_by_windows(fam, 3, gam)
    assert got == want
    assert sum(got.values()) == total
    assert _ec_supports(fam, 3, gam) == _supports(want, fam.nu)
    for x in iter_entries_windows(fam, 3):
        assert gam.admits(*x[:4]) == admits_by_completions(gam, *x[:4]), x


def test_springer_budget_counts_whole_windows():
    gam = synthesize_gamma((1, 1, 1), F3, random.Random(3))
    fam = fundamental_domain(gam)
    count = sum(3 ** sum(max(0, hi - lo) for lo, hi in _entry_windows(fam, d))
                for d in fam.lattice_points())
    assert list(_iter_entries(fam, 3, budget=count, gamma=gam))
    with pytest.raises(BudgetExceeded):
        next(_iter_entries(fam, 3, budget=count - 1, gamma=gam))


# ---------------------------------------------------------------------------
# the t31 ball and the Springer counts by Ec against the product forms
# ---------------------------------------------------------------------------

def _cell_oracle_cells():
    """The polytopes of the normal data in {0..2}^3 with F_2, and with F_3
    those whose cells have dimension at most 4."""
    for n in _normal_data():
        P = MVPolytope.from_datum(LusztigDatum("121", n))
        for q in (2, 3):
            if q == 2 or n[0] + 2 * n[1] + n[2] <= 4:
                yield P, PrimeField(q)


def test_t31_ball_matches_three_products():
    # every (d, e21, e32) of the e21 and e32 windows of the polytopes of
    # _cell_oracle_cells and of P(2, 2, 2) over F_3, the fundamental domain of
    # the truncated gammas of pattern (2, 2, 2), which give None on some pairs;
    # one gamma per realizable pattern in {0..3}^3 and the truncated gammas,
    # each against the three products met over its completions (one for an
    # exact gamma)
    pairs = nones = 0
    cases = [*_cell_oracle_cells(), (MVPolytope.from_datum(LusztigDatum("121", (2, 2, 2))), F3)]
    for P, field in cases:
        p, rng = field.p, random.Random(70 + field.p)
        gams = [synthesize_gamma(c, field, rng) for c in itertools.product(range(4), repeat=3)
                if pattern_realizable(c, p)] + [_truncated_gamma(p)]
        if p == 3:
            gams += [_gamma_222(rel12, rel13) for rel12, rel13, _total in TRUNCATED]
        for d in P.family.lattice_points():
            windows = _window_entries(p, _entry_windows(P.family, d)[::2])
            for e21, e32 in itertools.product(*windows):
                prod = _mul(e21, e32, p) if e21[1] and e32[1] else ZERO_ENTRY
                for gam in gams:
                    want = t31_ball_by_completions(gam, d, e21, e32)
                    assert gam.t31_ball(d, prod) == want, (d, e21, e32, gam.c)
                    pairs += 1
                    nones += want is None
    assert (pairs, nones) == (35050, 1008)


def _counter_grid():
    """(n, q, family, gamma): n in {0..3}^3 over F_2, and n1 + n2 + n3 <= 6
    over F_3, each with no gamma, one gamma per realizable pattern in
    {0..3}^3 and the truncated gammas."""
    for q in (2, 3):
        field, rng = PrimeField(q), random.Random(80 + q)
        gams = [None] + [synthesize_gamma(c, field, rng)
                         for c in itertools.product(range(4), repeat=3) if pattern_realizable(c, q)]
        gams.append(_truncated_gamma(q))
        if q == 3:
            gams += [_gamma_222(rel12, rel13) for rel12, rel13, _total in TRUNCATED]
        for n in itertools.product(range(4), repeat=3):
            if q == 3 and sum(n) > 6:
                continue
            fam = MVPolytope.from_datum(LusztigDatum("121", n)).family
            for gam in gams:
                yield n, q, fam, gam


def test_counter_matches_point_oracle_on_grid():
    cases = 0
    for n, q, fam, gam in _counter_grid():
        cases += 1
        want = ec_counts_by_points(fam, q, gam)
        assert dict(_ec_supports(fam, q, gam)) == dict(want), (n, q, gam and gam.c)
        assert all(min(edge_lengths(fam.nu, M)) >= 0 for M in want), (n, q, gam and gam.c)
    assert cases == 64 * 20 + 54 * 29


def test_pair_walker_matches_normal_form_meet_on_grid():
    # ec_counts_by_points walks _iter_pairs itself, so it cannot catch a wrong
    # ball rule: the valuation meet must yield what comparing centres does
    cases = pairs = 0
    for n, q, fam, gam in _counter_grid():
        got = list(_iter_pairs(fam, q, gamma=gam))
        assert got == list(iter_pairs_by_normal_forms(fam, q, gam)), (n, q, gam and gam.c)
        cases, pairs = cases + 1, pairs + len(got)
    assert (cases, pairs) == (64 * 20 + 54 * 29, 220681)


def _gamma_131():
    """Pattern (1, 3, 1) over F_2 with g1 = eps + O(eps^2), g2 = 0, g3 = eps^3."""
    return RegularDiagonal.from_series((LaurentSeries(F2, 1, [1], 2), zero(F2),
                                        LaurentSeries(F2, 3, [1])))


def test_truncated_gamma_drops_pairs_under_the_d0_ball():
    # pattern (1, 3, 1) with g1 = eps + O(eps^2): where the D0 ball lies
    # inside the t31 ball (r0 >= r2) and the balls meet, top - x can be 2,
    # beyond what g1 is known to, yet every completion's t31 ball holds the D0
    # ball: val(P) + slack > val(P) + c23 - c13 >= r2, so t31_ball is never
    # None there and the walker, which does not ask it, drops no such pair;
    # n in {0..3}^3 over F_2
    gam = _gamma_131()
    c12, c23, c13 = gam.c
    assert gam.c == (1, 3, 1)
    dropped = 0
    for n in itertools.product(range(4), repeat=3):
        fam = MVPolytope.from_datum(LusztigDatum("121", n)).family
        got = list(_iter_pairs(fam, 2, gamma=gam))
        assert got == list(iter_pairs_by_normal_forms(fam, 2, gam)), n
        for d in fam.lattice_points():
            w21, _w31, w32 = _entry_windows(fam, d)
            r0, r2 = d[0] + d[2] - fam.support[0], d[2] - c13
            for e21, e32 in itertools.product(*_window_entries(2, (
                    (max(w21[0], d[1] - c12), d[1]), (max(w32[0], d[2] - c23), d[2])))):
                prod = _mul(e21, e32, 2) if e21[1] and e32[1] else ZERO_ENTRY
                meet = not prod[1] or prod[0] - d[1] + c23 - c13 >= r2
                dropped += r0 >= r2 and meet and gam.t31_ball(d, prod) is None
    assert dropped == 0


def _truncation(c, field, rng):
    """A synthesized gamma of pattern c with each g_i cut 1 to 3 terms past
    the root valuations it enters, so that every one stays known, or kept
    exact."""
    c12, c23, c13 = c
    need = (max(c12, c13), max(c12, c23), max(c23, c13))
    return RegularDiagonal.from_series([
        g if k is None else LaurentSeries(field, g.lead, g.coeffs, n + k)
        for g, n, k in zip(synthesize_gamma(c, field, rng).gamma, need,
                           (rng.choice((None, 1, 2, 3)) for _ in range(3)))])


def _completion_grid():
    """(n, q, gamma): the gamma of (1, 3, 1) on n in {0..3}^3 over F_2;
    ``_truncated_gamma(q)`` on P(2, 1, 1) and P(2, 2, 2) over F_q, as in
    ``test_member_kernel_matches_matrix``; the ``_gamma_222`` on their
    fundamental domain P(2, 2, 2) over F_3; seeded truncations of one gamma
    per realizable pattern in {0..2}^3, on n in {0..2}^3 over F_2 and
    n in {0, 1}^3 over F_3."""
    for n in itertools.product(range(4), repeat=3):
        yield n, 2, _gamma_131()
    for n, q in itertools.product(((2, 1, 1), (2, 2, 2)), (2, 3)):
        yield n, q, _truncated_gamma(q)
    for rel12, rel13, _total in TRUNCATED:
        yield (2, 2, 2), 3, _gamma_222(rel12, rel13)
    for q, top in ((2, 3), (3, 2)):
        field, rng = PrimeField(q), random.Random(90 + q)
        gams = [_truncation(c, field, rng) for c in itertools.product(range(3), repeat=3)
                if pattern_realizable(c, q)]
        for n in itertools.product(range(top), repeat=3):
            yield from ((n, q, gam) for gam in gams)


def test_truncated_gammas_mean_every_completion():
    # a point counts for a truncated gamma exactly when it is a Springer point
    # of every completion: admits, point by point on the whole windows, and
    # the counter, by Ec support, against the product forms on each completion
    cases = verdicts = admitted = truncated = 0
    for n, q, gam in _completion_grid():
        fam = MVPolytope.from_datum(LusztigDatum("121", n)).family
        want = Counter()
        for x in iter_entries_windows(fam, q):
            ok = admits_by_completions(gam, *x[:4])
            assert gam.admits(*x[:4]) == ok, (n, q, gam.gamma, x)
            want[tuple(-v for v in x[4])] += ok
            verdicts += 1
        assert _ec_supports(fam, q, gam) == +want, (n, q, gam.gamma)
        cases, admitted = cases + 1, admitted + sum(want.values())
        truncated += not all(map(exact, gam.gamma))
    assert (cases, verdicts, admitted, truncated) == (412, 203591, 27095, 411)


def test_admits_matches_products_on_cells():
    pairs = 0
    for P, field in _cell_oracle_cells():
        rng = random.Random(60 + field.p)
        gams = [synthesize_gamma(c, field, rng) for c in itertools.product(range(4), repeat=3)
                if pattern_realizable(c, field.p)]
        for b in range(6):
            for x in contracting_cell(P, b).enumerate(field):
                for gam in gams:
                    pairs += 1
                    assert gam.admits(x.d, *x.entries) == \
                        admits_by_products(gam, x.d, *x.entries), (x, gam.c)
    assert pairs == 71376


def test_springer_counts_match_cell_oracle():
    # every (cell, gamma) pair of criterion 7 over F_2, and over F_3 for cells
    # of dimension at most 4, with criterion 7's gammas; the cells are listed
    # on their explicit coordinates, not by Ec as the counts are
    rng = random.Random(7 * 1000 + 7)
    pairs = 0
    for n in _normal_data():
        P = MVPolytope.from_datum(LusztigDatum("121", n))
        cells = {}
        for c in _ultrametric_box():
            for q in (2, 3):
                if q == 3 and c[0] != n[0] or not pattern_realizable(c, q):
                    continue
                gam = synthesize_gamma(c, PrimeField(q), rng)
                if q == 3 and n[0] + 2 * n[1] + n[2] > 4:
                    continue
                counts = _ec_supports(P.family, q, gam)
                oracle = criterion_oracle(P, gam)
                for b in range(6):
                    pairs += 1
                    if (b, q) not in cells:
                        cell = contracting_cell(P, b)
                        cells[b, q] = _cell_points(PrimeField(q), cell.diag, cell.windows,
                                                   cell.inverted)
                    v = P.family.vertex(b)
                    got = sum(k for M, k in counts.items()
                              if family_from_support(M, P.family.nu).vertex(b) == v)
                    want = sum(1 for x in cells[b, q] if admits_by_products(gam, x.d, *x.entries))
                    assert got == want, (n, c, b, q)
                    assert oracle[b] == criterion_oracle_on_cells(P, b, gam, cells[b, q])
    assert pairs == 1320

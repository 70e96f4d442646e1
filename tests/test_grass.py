import itertools
import random
from collections import Counter

import pytest

from affgrass.errors import (AffgrassError, BudgetExceeded, GaussFailure,
                             PreconditionViolated, PrecisionLoss, SingularMatrix)
from affgrass import grass
from affgrass.grass import (GrassPoint, _candidates, _ec_supports, _entry_windows, _window_entries,
                            canonicalize_point, dprofile, ec, enumerate_points, iter_points,
                            mat, mat_diag_eps, member, point_from_y, sample_point, transition,
                            y_inverse)
from affgrass.hermite import hermite_entries
from affgrass.laurent import (LaurentSeries, PrimeField, _entry, eps, one, random_with_val, val,
                              zero)
from affgrass.mvcomb import LusztigDatum, MVPolytope
from affgrass.paving import (_cell_points, contracting_cell, iwahori_cell, mv_as_intersection,
                             schubert_anchored_family)
from affgrass.rootdata import (BORELS, contains, edge_lengths, family_from_support, pairing,
                               weyl_family)

from reference import (D, Delta, _iter_entries, agrees, canonicalize_point_series, decompose_u0,
                       dprofile_matrix, eta_w0, eta_w0_inv, exact, gauss_plus,
                       iter_entries_windows, mat_det, mat_identity, mat_inv, mat_mul, minor,
                       point_from_y_by_gauss, point_from_y_series, root_elem, translate_point,
                       x_mat, y_map)

F2 = PrimeField(2, 32)
F3 = PrimeField(3, 32)
FBIG = PrimeField(10007, 64)


def rand_matrix_in_K(field, rng):
    while True:
        m = tuple(tuple(LaurentSeries(field, 0,
                                      [rng.randrange(field.p) for _ in range(6)])
                        for _ in range(3)) for _ in range(3))
        det = mat_det(m)
        if det.nonzero and det.lead == 0:
            return m


def rand_invertible(field, rng, span=2):
    while True:
        m = tuple(tuple(LaurentSeries(field, rng.randrange(-span, span + 1),
                                      [rng.randrange(field.p) for _ in range(6)])
                        for _ in range(3)) for _ in range(3))
        try:
            det = mat_det(m)
        except Exception:
            continue
        if det.nonzero:
            return m


def test_canonical_diagonal_and_identity():
    x = canonicalize_point(mat_identity(F2))
    assert x.d == (0, 0, 0) and x.nu == 0
    y = canonicalize_point(mat_diag_eps(F2, (2, 0, -1)))
    assert y.d == (2, 0, -1) and y.nu == 1


def test_canonical_right_coset_invariance():
    rng = random.Random(11)
    for p in (2, 3):
        field = PrimeField(p, 32)
        for _ in range(8):
            g = rand_invertible(field, rng)
            x = canonicalize_point(g)
            for _ in range(4):
                k = rand_matrix_in_K(field, rng)
                assert canonicalize_point(mat_mul(g, k)) == x


def test_canonical_form_shape():
    rng = random.Random(12)
    g = rand_invertible(F3, rng)
    x = canonicalize_point(g)
    for r in range(3):
        for c in range(3):
            e = x.h[r][c]
            assert exact(e)
            if r < c:
                assert e.is_exact_zero
            elif r == c:
                assert e == eps(F3, x.d[r])
            elif e.nonzero:
                assert e.lead + len(e.coeffs) - 1 < x.d[r]


def test_canonical_form_tracks_precision_of_reduced_entries():
    # the coset of ((1, eps^-1, eps^-3), (0, 1, c), (0, 0, 1)) depends on c
    # modulo eps, through the reduction of h31 by the second column, so a c
    # known only modulo O determines no point
    o, z = one(F2), zero(F2)

    def g(c):
        return ((o, eps(F2, -1), eps(F2, -3)), (z, o, c), (z, z, o))
    assert canonicalize_point(g(z)) != canonicalize_point(g(o))
    with pytest.raises(PrecisionLoss):
        canonicalize_point(g(LaurentSeries(F2, 0, (), 0)))


def test_entry_normal_form():
    # against a direct list of the nonzero indices, zeros at either end or not
    for n in range(5):
        for cs in itertools.product(range(3), repeat=n):
            nz = [i for i, c in enumerate(cs) if c]
            want = (5 + nz[0], cs[nz[0]:nz[-1] + 1]) if nz else (0, ())
            assert _entry(5, cs) == _entry(5, list(cs)) == want


def test_singular_matrix_rejected():
    z = zero(F2)
    o = one(F2)
    g = ((o, o, z), (o, o, z), (z, z, o))
    with pytest.raises(SingularMatrix):
        canonicalize_point(g)


def test_minor_and_delta():
    I = mat_identity(F3)
    assert Delta(I, {1}) == one(F3)
    assert Delta(I, {1, 2}) == one(F3)
    assert Delta(I, {2}).is_exact_zero
    g = mat_diag_eps(F3, (1, 2, 3))
    assert minor(g, (1, 2), (1, 2)) == eps(F3, 3)
    rng = random.Random(13)
    h = rand_invertible(F3, rng)
    assert Delta(h, {1}) == h[0][0]


def test_D_diagonal():
    x = canonicalize_point(mat_diag_eps(F3, (2, 0, -1)))
    for S in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
        assert D(x, S) == -pairing((2, 0, -1), S)


def test_D_constant_on_semiinfinite_orbits():
    # D_{w.varpi_i}(u eps^nu K) = -<nu, w.varpi_i> for u in U_w(F)
    rng = random.Random(14)
    for b, w in enumerate(BORELS):
        for _ in range(3):
            nu = tuple(rng.randrange(-2, 3) for _ in range(3))
            # random element of U_w: conjugate a random upper unipotent by w
            uu = [list(r) for r in mat_identity(FBIG)]
            for (r, c) in ((0, 1), (0, 2), (1, 2)):
                uu[r][c] = random_with_val(FBIG, rng.randrange(-2, 3), rng)
            pm = tuple(tuple(one(FBIG) if r + 1 == w[c] else zero(FBIG)
                             for c in range(3)) for r in range(3))
            um = mat_mul(mat_mul(pm, mat(uu)), mat_inv(pm))
            g = mat_mul(um, mat_diag_eps(FBIG, nu))
            x = canonicalize_point(g)
            for level in (1, 2):
                S = frozenset(w[:level])
                assert D(x, S) == -pairing(nu, S)


def test_dprofile_closed_form_matches_minors():
    rng = random.Random(15)
    for _ in range(10):
        g = rand_invertible(F3, rng)
        x = canonicalize_point(g)
        assert dprofile(x) == dprofile_matrix(x.h)


@pytest.mark.parametrize("n, q, every", [((2, 1, 1), 2, True), ((2, 1, 1), 3, True),
                                         ((2, 2, 2), 2, True), ((2, 2, 2), 3, False)])
def test_profile_kernel_matches_minors(n, q, every):
    # the tuple D-profile decides which window candidates are points; it is
    # checked against the minors of g^-1 on every point, and on every
    # candidate but the 14,796 rejected ones of P(2,2,2) over F_3
    fam = MVPolytope.from_datum(LusztigDatum("121", n)).family
    field = PrimeField(q)
    floor = [-m for m in fam.support]
    kept = []
    for d in fam.lattice_points():
        for es in itertools.product(*_window_entries(q, _entry_windows(fam, d))):
            x = GrassPoint(field, d, es)
            prof = dprofile(x)
            passes = all(v >= m for v, m in zip(prof, floor))
            if passes or every:
                assert dprofile_matrix(x.h) == prof
            if passes:
                kept.append((d, *es, prof))
    assert Counter(_iter_entries(fam, q)) == Counter(kept)


@pytest.mark.parametrize("q", [2, 3])
def test_d0_ball_matches_window_loop(q):
    # the walker's reference expansion, and the library's own two loops over
    # its tails: the points listed and the Ec families counted
    field = PrimeField(q)
    for n in itertools.product(range(3), repeat=3):
        fam = MVPolytope.from_datum(LusztigDatum("121", n)).family
        want = Counter(iter_entries_windows(fam, q))
        assert Counter(_iter_entries(fam, q)) == want, n
        assert Counter(iter_points(fam, field)) == \
            Counter(GrassPoint(field, d, (e21, e31, e32))
                    for d, e21, e31, e32, _prof in want.elements()), n
        supports = Counter(tuple(-v for v in prof) for *_pt, prof in want.elements())
        assert _ec_supports(fam, q) == supports, n
        assert all(min(edge_lengths(fam.nu, M)) >= 0 for M in supports), n


def test_ec_examples():
    x = canonicalize_point(mat_diag_eps(F3, (1, 0, -1)))
    fam = ec(x)
    assert set(fam.vertices) == {(1, 0, -1)}
    # an absorbed root-group factor leaves a fixed point
    g = mat_mul(root_elem(F3, (1, 2), eps(F3, 5)), mat_diag_eps(F3, (1, 0, -1)))
    assert ec(canonicalize_point(g)) == fam


def test_member_and_ec_containment():
    fam = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 1))).family
    for v in fam.lattice_points():
        x = canonicalize_point(mat_diag_eps(F2, v))
        assert member(x, fam)
    big = weyl_family((2, 0, 0))
    small = fam.translate((1, 1, 0))
    assert small.nu == big.nu
    outside = [x for x in enumerate_points(big, F2) if not member(x, small)]
    assert outside
    for x in enumerate_points(big, F2):
        assert member(x, small) == contains(small, ec(x))


def test_gauss_plus():
    u = [list(r) for r in mat_identity(F3)]
    u[0][1] = eps(F3, 1)
    u[1][2] = one(F3)
    v, t, uu = gauss_plus(mat(u))
    assert v == mat_identity(F3) and t == mat_identity(F3) and uu == mat(u)
    dm = mat_diag_eps(F3, (1, 2, 3))
    v, t, uu = gauss_plus(dm)
    assert v == mat_identity(F3) and t == dm and uu == mat_identity(F3)
    bad = [list(r) for r in mat_identity(F3)]
    bad[0][0] = zero(F3)
    with pytest.raises(GaussFailure):
        gauss_plus(mat(bad))


def test_gauss_reconstructs():
    rng = random.Random(16)
    for _ in range(10):
        g = rand_invertible(FBIG, rng, span=1)
        try:
            v, t, u = gauss_plus(g)
        except GaussFailure:
            continue
        w = mat_mul(mat_mul(v, t), u)
        assert all(agrees(w[i][j], g[i][j]) for i in range(3) for j in range(3))


def test_eta_round_trip_and_unipotence():
    rng = random.Random(17)
    count = 0
    while count < 10:
        uu = [list(r) for r in mat_identity(FBIG)]
        for (r, c) in ((0, 1), (0, 2), (1, 2)):
            uu[r][c] = random_with_val(FBIG, rng.randrange(-2, 3), rng)
        y = mat(uu)
        try:
            x = eta_w0(y)
            back = eta_w0_inv(x)
        except GaussFailure:
            continue
        count += 1
        for i in range(3):
            assert x[i][i].coeffs[:1] == (1,) and val(x[i][i]) == 0
            for j in range(i):
                assert not x[i][j].nonzero
        assert all(agrees(back[i][j], y[i][j]) for i in range(3) for j in range(3))


def test_eta_domain_violation():
    with pytest.raises(GaussFailure):
        eta_w0_inv(mat_identity(F3))  # identity . wbar0 has vanishing corner minor


def test_y_map_transition_law():
    rng = random.Random(18)
    done = 0
    while done < 5:
        ts = [random_with_val(FBIG, rng.randrange(3), rng) for _ in range(3)]
        try:
            tp = transition("121", ts)
            y1 = y_map("121", ts)
            y2 = y_map("212", tp)
        except GaussFailure:
            continue
        done += 1
        assert all(agrees(y1[i][j], y2[i][j]) for i in range(3) for j in range(3))


def test_y_map_all_units_round_trip():
    ts = [one(FBIG)] * 3
    y = y_map("121", ts)
    assert val(y[0][1]) == 0
    x = eta_w0(y)
    assert all(agrees(x[i][j], x_mat("121", ts)[i][j]) for i in range(3) for j in range(3))


def test_decompose_u0_round_trip():
    rng = random.Random(19)
    for word in ("121", "212"):
        ts = [random_with_val(FBIG, n, rng) for n in (1, 0, 2)]
        x = point_from_y(word, ts)
        got = decompose_u0(x, word, rng)
        assert tuple(val(t) for t in got) == (1, 0, 2)
        assert point_from_y(word, got) == x


def test_decompose_u0_identity_coset():
    rng = random.Random(20)
    x = canonicalize_point(mat_identity(FBIG))
    ts = decompose_u0(x, "121", rng)
    assert point_from_y("121", ts) == x


def test_decompose_u0_precondition():
    rng = random.Random(21)
    x = canonicalize_point(mat_diag_eps(FBIG, (1, 0, -1)))
    with pytest.raises(PreconditionViolated):
        decompose_u0(x, "121", rng)


@pytest.mark.parametrize("p", [3, 5, 10007])
def test_decompose_u0_inverts_point_from_y(p):
    rng = random.Random(p)
    field = PrimeField(p, 32)
    for word in ("121", "212"):
        for n in itertools.product(range(3), repeat=3):
            x = point_from_y(word, [random_with_val(field, k, rng) for k in n])
            assert point_from_y(word, decompose_u0(x, word, rng)) == x


def test_y_inverse_transition_law():
    # y_word(t)^-1 in closed form: the 3-move relates the two words, and
    # both agree with the inverse of the Gauss-decomposition map
    rng = random.Random(26)
    for _ in range(20):
        ts = [random_with_val(FBIG, rng.randrange(3), rng) for _ in range(3)]
        tp = transition("121", ts)
        for a, b in ((y_inverse("121", ts), y_inverse("212", tp)),
                     (y_inverse("121", ts), mat_inv(y_map("121", ts))),
                     (y_inverse("212", tp), mat_inv(y_map("212", tp)))):
            assert all(agrees(a[i][j], b[i][j]) for i in range(3) for j in range(3))


def _bfz_outcome(word, ts, fn):
    try:
        return fn(word, ts)
    except AffgrassError as e:
        return type(e)


def _random_t(field, rng):
    """A BFZ parameter: exact or truncated, nonzero or zero."""
    kind = rng.randrange(6)
    if kind == 0:
        return zero(field)
    if kind == 1:
        return LaurentSeries(field, 0, (), rng.randrange(1, field.prec))
    return random_with_val(field, rng.randrange(4), rng, exact=kind == 2, tail=rng.randrange(4))


def test_point_from_y_matches_gauss_reference():
    # the closed form against the Gauss decomposition and a series inverse:
    # the same point, or the same error
    rng = random.Random(27)
    for k in range(150):
        word = ("121", "212")[k % 2]
        ts = [random_with_val(FBIG, rng.randrange(5), rng) for _ in range(3)]
        assert point_from_y(word, ts) == point_from_y_by_gauss(word, ts)
    seen = set()
    for p in (2, 3, 5):
        field = PrimeField(p, 12)
        for k in range(300):
            word = ("121", "212")[k % 2]
            ts = [_random_t(field, rng) for _ in range(3)]
            if k % 3 == 0:
                # t1 + t3 vanishes to a high order, exactly or up to precision
                rest = (random_with_val(field, rng.randrange(2, 14), rng, exact=True, tail=1)
                        if rng.randrange(2) else
                        LaurentSeries(field, 0, (), rng.randrange(1, field.prec)))
                ts[2] = rest - ts[0]
            got = _bfz_outcome(word, ts, point_from_y)
            assert got == _bfz_outcome(word, ts, point_from_y_by_gauss)
            seen.add(got if isinstance(got, type) else GrassPoint)
    assert seen == {GrassPoint, GaussFailure, PrecisionLoss}


@pytest.mark.parametrize("p, prec", [(2, 16), (3, 32), (5, 32), (10007, 8), (10007, 64)])
def test_point_from_y_matches_series_hermite_form(p, prec):
    # the cut parameters and the integer kernel against the series Hermite
    # form of y_word(t)^-1 at full precision: the same point or the same error
    field = PrimeField(p, prec)
    rng = random.Random(f"bfz:{p}:{prec}")
    for word in ("121", "212"):
        for n in itertools.product(range(4), repeat=3):
            for _ in range(10):
                ts = [random_with_val(field, k, rng) for k in n]
                assert (_bfz_outcome(word, ts, point_from_y)
                        == _bfz_outcome(word, ts, point_from_y_series))


def _known(e):
    """The known terms of a series, as an exact Laurent polynomial."""
    return e if e.prec is None else e.as_exact_below(e.prec)


@pytest.mark.parametrize("start", [0, -1])
def test_point_from_y_precision_rule_is_sharp(start):
    # point_from_y reads row k of g = y_word(t)^-1 below B_k, B_0 = 0 and
    # B_1 = max(0, -val g01): a polynomial added to a truncated entry from
    # exponent B_k on leaves the coset alone, and one from B_k - 1 moves it
    field = PrimeField(5, 16)
    rng = random.Random(32)
    tried = Counter()
    for k in range(120):
        word = ("121", "212")[k % 2]
        ts = [random_with_val(field, rng.randrange(4), rng, exact=True, tail=rng.randrange(3))
              for _ in range(3)]
        x = point_from_y(word, ts)
        g0 = y_inverse(word, ts)
        g = [[_known(e) for e in row] for row in g0]
        tops = (0, max(0, -val(g[0][1])))
        for r, c in ((0, 1), (0, 2), (1, 2)):
            if g0[r][c].prec is None:
                continue
            noise = LaurentSeries(field, tops[r] + start,
                                  [rng.randrange(1, 5)] + [rng.randrange(5) for _ in range(3)])
            m = [list(row) for row in g]
            m[r][c] = m[r][c] + noise
            assert (canonicalize_point(mat(m)) == x) == (start == 0)
            tried[word, r] += 1
    assert min(tried.values()) > 20 and len(tried) == 4


def _complete(t, field, rng):
    """An exact Laurent polynomial over field that agrees with t to its precision."""
    tail = [] if t.prec is None else (
        [0] * (t.prec - t.lead - len(t.coeffs)) + [rng.randrange(field.p) for _ in range(4)])
    return LaurentSeries(field, t.lead, list(t.coeffs) + tail)


def test_point_from_y_is_the_point_of_random_completions():
    # parameters of any valuation, exact or truncated: where point_from_y
    # answers, a completion of the parameters has that point, and where the
    # series form answers, point_from_y gives its point
    rng = random.Random(33)
    checked = 0
    for k in range(400):
        field = PrimeField(rng.choice((2, 3, 5)), rng.randrange(2, 16))
        ts = []
        for _ in range(3):
            v = rng.randrange(-4, 5)
            cs = [rng.randrange(1, field.p)] + [rng.randrange(field.p) for _ in range(8)]
            ts.append(LaurentSeries(field, v, cs, None if k % 3 == 0 else v + rng.randrange(1, 10)))
        word = ("121", "212")[k % 2]
        got = _bfz_outcome(word, ts, point_from_y)
        ref = _bfz_outcome(word, ts, point_from_y_series)
        assert got == ref or (ref is PrecisionLoss and isinstance(got, GrassPoint))
        if isinstance(got, GrassPoint):
            high = PrimeField(field.p, 48)
            assert point_from_y_series(word, [_complete(t, high, rng) for t in ts]) == got
            checked += 1
    assert checked > 200


def _cut(t, prec):
    return LaurentSeries(t.field, t.lead, t.coeffs, prec)


@pytest.mark.parametrize("word, ts, i, prec", [
    # 121: g01 = -1/t1 is read below B_0 = 0, so t1 = eps^2 needs precision 4
    ("121", ((2, (1, 1, 3)), (0, (1,)), (0, (1,))), 0, 4),
    # 121: g12 = -(t1+t3)/(t2 t3) is read below B_1 = val t1 = 2
    ("121", ((2, (1,)), (0, (1,)), (0, (1, 4, 2))), 2, 2),
    # 212: g12 = -1/t1 is read below B_1 = val t2 + val t3 - val(t1+t3) = 2
    ("212", ((0, (1, 1, 3)), (2, (1,)), (0, (1,))), 0, 2),
])
def test_point_from_y_precision_short_of_the_rule_raises(word, ts, i, prec):
    # t_i known to the rule's precision gives the point of the exact
    # parameters (where the series form may still give up); one term less
    # raises PrecisionLoss, as the series form does
    field = PrimeField(5, 16)
    ts = [LaurentSeries(field, lead, cs) for lead, cs in ts]
    x = point_from_y(word, ts)
    ts[i] = _cut(ts[i], prec)
    assert point_from_y(word, ts) == x
    ts[i] = _cut(ts[i], prec - 1)
    for fn in (point_from_y, point_from_y_series):
        with pytest.raises(PrecisionLoss):
            fn(word, ts)


def test_point_from_y_word_checked():
    with pytest.raises(PreconditionViolated):
        point_from_y("123", [one(FBIG)] * 3)


def test_enumerate_counts():
    P1 = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 0))).family
    assert len(enumerate_points(P1, F2)) == 3
    W = weyl_family((1, 0, 0))
    assert len(enumerate_points(W, F2)) == 7
    assert len(enumerate_points(W, F3)) == 13
    single = MVPolytope.from_datum(LusztigDatum("121", (0, 0, 0))).family
    assert len(enumerate_points(single, F2)) == 1


def test_enumerate_monotone_and_stable():
    small = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 0))).family
    big = MVPolytope.from_datum(LusztigDatum("121", (2, 0, 0)),
                                base=small.vertex(3)).family
    assert contains(big, small)
    assert len(enumerate_points(small, F2)) <= len(enumerate_points(big, F2))
    assert [x for x in enumerate_points(big, F2) if member(x, small)] == \
        enumerate_points(small, F2)


def test_enumerate_budget():
    W = weyl_family((3, -1, -1))
    with pytest.raises(BudgetExceeded):
        enumerate_points(W, F3, budget=10)


def test_enumerate_budget_boundary():
    # the guard counts every candidate of the whole entry windows
    W = weyl_family((2, 0, -1))
    count = sum(3 ** sum(max(0, hi - lo) for lo, hi in _entry_windows(W, d))
                for d in W.lattice_points())
    assert count > len(enumerate_points(W, F3, budget=count))
    with pytest.raises(BudgetExceeded):
        enumerate_points(W, F3, budget=count - 1)


def test_counter_budget_counts_pair_candidates(monkeypatch):
    # the counter never meets whole-window candidates: its guard counts the
    # (e21, e32) candidates of the windows, the pairs it walks
    P444, P555, P888 = (MVPolytope.from_datum(LusztigDatum("121", (n, n, n))).family
                        for n in (4, 5, 8))
    for fam, q, pairs in ((P444, 3, 188_629), (P555, 2, 46_081), (P888, 2, 6_291_457)):
        assert _candidates((_entry_windows(fam, d)[::2] for d in fam.lattice_points()), q) == pairs
    # P(5,5,5) over F_2 has 13,114,475 whole-window candidates
    with pytest.raises(BudgetExceeded):
        next(iter_points(P555, F2))
    supports = _ec_supports(P555, 2)
    assert sum(supports.values()) == 4_762_283
    assert all(min(edge_lengths(P555.nu, M)) >= 0 for M in supports)
    with pytest.raises(BudgetExceeded):
        _ec_supports(P888, 2)
    # the guard allows 5,000,000 pair candidates and no more
    W = weyl_family((2, 0, -1))
    want = _ec_supports(W, 3)
    monkeypatch.setattr(grass, "_candidates", lambda windows, q: 5_000_000)
    assert _ec_supports(W, 3) == want
    monkeypatch.setattr(grass, "_candidates", lambda windows, q: 5_000_001)
    with pytest.raises(BudgetExceeded):
        _ec_supports(W, 3)


def test_counter_builds_no_tail_on_a_long_segment(monkeypatch):
    # the segment from (0, 0, 0) to (20, 0, -20) walks 21 pairs, each with
    # an empty e21 and e32 window and up to 20 free e31 coefficients: 3^20
    # tails, more than the listing's budget allows and too many to build
    seg = family_from_support((20, 0, 0, 20, 0, 0), 0)
    with pytest.raises(BudgetExceeded):
        next(iter_points(seg, F3))

    def no_tails(tails, n):
        raise AssertionError(f"the counter built the tails of length {n}")

    monkeypatch.setattr(grass._Tails, "__missing__", no_tails)
    # the diagonal (a, 0, -b) holds 1 point for b = a, else (q - 1) q^(a - b - 1)
    assert _ec_supports(seg, 3) == Counter({
        (a, 0, -b, a, 0, -b): 1 if a == b else 2 * 3 ** (a - b - 1)
        for a in range(21) for b in range(a + 1)})


def test_delta_bounds_D_with_equality_somewhere():
    rng = random.Random(22)
    fam = MVPolytope.from_datum(LusztigDatum("121", (1, 0, 1))).family
    for x in enumerate_points(fam, F2)[:6]:
        prof = dprofile(x)
        for ci, S in enumerate(({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3})):
            best = None
            for _ in range(40):
                k = rand_matrix_in_K(F2, rng)
                m = mat_inv(mat_mul(x.h, k))
                dd = Delta(m, S)
                if dd.nonzero:
                    assert dd.lead >= prof[ci]
                    best = prof[ci] if dd.lead == prof[ci] else best
            assert best is not None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hermite_entries_match_series_form(p):
    # the integer Hermite form against the series Hermite form on random
    # nonsingular matrices of exact Laurent polynomials, units of O on the
    # diagonal or not
    rng = random.Random(40 + p)
    field = PrimeField(p)
    done = 0
    while done < 200:
        g = [[_entry(rng.randrange(-2, 3), [rng.randrange(p) for _ in range(rng.randrange(4))])
              for _c in range(3)] for _r in range(3)]
        m = mat([[LaurentSeries(field, lead, cs) for lead, cs in row] for row in g])
        if not mat_det(m).nonzero:
            with pytest.raises(SingularMatrix):
                hermite_entries(g, p)
            continue
        x = canonicalize_point_series(m)
        assert hermite_entries(g, p) == (x.d, x.entries)
        done += 1


def _outcome(fn, g):
    try:
        return fn(g)
    except AffgrassError as e:
        return type(e)


def _completion(e, field, rng):
    """An exact Laurent polynomial over field that agrees with e to its precision."""
    known = LaurentSeries(field, e.lead, e.coeffs)
    if e.prec is None:
        return known
    return known + LaurentSeries(field, e.prec, [rng.randrange(field.p) for _ in range(4)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonicalize_point_matches_series_form(p):
    # random 3x3 matrices, entry leads in [-2, 2] with up to 4 coefficients,
    # none, a fifth or half of the entries truncated: where the series form
    # gives a point the kernel gives it too, and where the kernel answers,
    # two random exact completions have its point (by the exact kernel, which
    # test_hermite_entries_match_series_form checks) or are singular with it
    rng = random.Random(50 + p)
    field = PrimeField(p, 16)
    got = Counter()
    for k in range(990):
        frac = (0, 0.2, 0.5)[k % 3]
        g = mat([[LaurentSeries(field, lead, [rng.randrange(p) for _ in range(rng.randrange(5))],
                                lead + rng.randrange(5) if rng.random() < frac else None)
                  for lead in (rng.randrange(-2, 3) for _c in range(3))] for _r in range(3)])
        x, ref = _outcome(canonicalize_point, g), _outcome(canonicalize_point_series, g)
        assert x == ref or not isinstance(ref, GrassPoint)
        got[isinstance(ref, GrassPoint), isinstance(x, GrassPoint)] += 1
        if x is PrecisionLoss:
            continue
        for _ in range(2):
            h = mat([[_completion(e, field, rng) for e in row] for row in g])
            assert _outcome(canonicalize_point, h) == x
    # the kernel answers wherever the series form does, and more often
    assert got[True, False] == 0 and got[False, True] > 10


def test_canonicalize_point_where_the_series_form_gives_up():
    # y_121(t)^-1 with t1 = eps^2 + eps^3 + O(eps^4), t2 = t3 = 1 over F_5:
    # its entries are known below exponent 0, all the coset reads, but the
    # series form loses terms to its pivot divisions
    field = PrimeField(5, 16)
    o = one(field)
    ts = [LaurentSeries(field, 2, (1, 1), 4), o, o]
    assert canonicalize_point(y_inverse("121", ts)) == point_from_y("121", ts)
    with pytest.raises(PrecisionLoss):
        canonicalize_point_series(y_inverse("121", ts))


def test_canonicalize_point_singular_cuts():
    # a singular cut is SingularMatrix when every completion is singular: here
    # rows 1 and 2 are exact zeros in columns 1 and 3, though neither the
    # exact rows nor the exact columns are dependent; a cut that some
    # completion makes nonsingular is PrecisionLoss
    o, z = one(F3), zero(F3)
    free = LaurentSeries(F3, 0, (), 2)
    with pytest.raises(SingularMatrix):
        canonicalize_point(((z, o, z), (z, free, z), (free, o, free)))
    with pytest.raises(PrecisionLoss):
        canonicalize_point(((o, z, z), (z, o, z), (z, z, free)))


def test_canonicalize_point_mixed_fields():
    g = [list(row) for row in mat_identity(F3)]
    g[2][2] = one(PrimeField(5))
    with pytest.raises(ValueError):
        canonicalize_point(mat(g))


def test_point_translation_and_equivariance():
    x = canonicalize_point(mat_diag_eps(F3, (1, 0, 0)))
    y = translate_point(x, (0, 1, -1))
    assert y.d == (1, 1, -1)
    fam = ec(x)
    assert ec(y) == fam.translate((0, 1, -1))


def test_sample_point_members():
    rng = random.Random(23)
    fam = weyl_family((2, 0, 0))
    for _ in range(20):
        x = sample_point(fam, F3, rng)
        assert member(x, fam)


def test_enumerate_ignores_precision():
    # entries are exact polynomials, so precision 1 lists the same points
    for fam in (weyl_family((1, 0, 0)), weyl_family((2, 1, 0)),
                MVPolytope.from_datum(LusztigDatum("121", (2, 1, 1))).family):
        pts = enumerate_points(fam, PrimeField(2, 64))
        assert pts and enumerate_points(fam, PrimeField(2, 1)) == pts


def test_every_point_is_its_canonical_form():
    # every producer's points hold canonical data, and x.h is built over the
    # point's own field, at its precision
    rng = random.Random(24)
    F = PrimeField(2, 40)
    d = LusztigDatum("121", (2, 1, 1))
    fam = MVPolytope.from_datum(d).family
    lam1, shift, _lam2 = mv_as_intersection(d)
    pts = [canonicalize_point(rand_invertible(F, rng)) for _ in range(10)]
    pts += list(iter_points(fam, F))
    pts += [sample_point(fam, F, rng) for _ in range(10)]
    for b in range(6):
        # the explicit coordinates; enumerate lists the points of iter_points
        c = contracting_cell(MVPolytope.from_datum(d), b)
        pts += _cell_points(F, c.diag, c.windows, c.inverted)
    for v in schubert_anchored_family(d).lattice_points():
        pts += iwahori_cell(shift, lam1, v).enumerate(F)
    assert len(pts) > 100
    for x in pts:
        assert all(e.field.prec == x.field.prec for row in x.h for e in row)
        assert canonicalize_point(x.h) == x

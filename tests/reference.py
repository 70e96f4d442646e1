"""Reference constructions the tests compare the library against.

No library code calls these: each is the slow, direct form of something the
library computes another way (series matrices, the series Hermite form and
chamber minors in place of the integer kernels, term-by-term series products
and inverses in place of the packed product and the Newton inverse, vertices
in place of supports, a Gauss decomposition in place of the closed form of
the BFZ map, the inverse of that map, lattice points in place of support
tightening, a box scan in place of the closed-form lattice points, one
orientation at a time and the full scan of all vertex sets in place of the
bounded subset scan, every candidate of the entry windows in place of the D0
and Springer balls, products in place of the t31 ball, three products per
pair in place of one by the t31 ball's cached rho, the two balls of a pair
met by comparing their centres' normal forms in place of the valuation of
their difference, the points of one
contracting cell in place of the Springer points of the whole truncation
sorted by Ec, the vertex scores of ``canonicalize`` in place of
its twist search on the support, one walk on tight supports that tests every
state against the avoided point and ends in a maximal-element pass, in place
of the width cuts of the facet cuts, every point of
the truncation filtered by its profile in place of the facet cut of a
contracting cell, two vertex paths and two Lusztig data in place of the
support of an MV polytope and the braid test on its edge lengths, every point
of the pair walker with its profile read off the point in place of the tails
each library loop expands, the profile of every point in place of the e31
classes the counter counts, passes to a fixed point in place of the one-pass
support tightening, the union of the pieces' skeleton graphs in place of the
reaches of their boxes at one vertex, each counted Ec support made its
family and its six vertices compared in place of two support numbers per
corner, a table of all six chambers' orbit counts and a bound by cases in
place of one row per chamber, every point of the truncation and of each
Iwahori cell listed in place of the Ec supports counted per corner), or a
plain definition no library path needs.
"""
import itertools
import math
from collections import Counter

from affgrass.errors import (BudgetExceeded, DivisionByZero, GaussFailure, InconsistentFamily,
                             NormalPositionRequired, NotMV, PavingVerificationFailed,
                             PreconditionViolated, PrecisionLoss, RetryExhausted, SingularMatrix)
from affgrass.grass import (GrassPoint, _Tails, _below, _ec_supports, _entry_windows,
                            _iter_pairs, _pair_profile, _profile, _window_entries, dprofile,
                            iter_points, mat, mat_diag_eps, point_from_y, y_inverse)
from affgrass.laurent import (INF, ZERO_ENTRY, LaurentSeries, PrimeField, _entry, _inv, _mul,
                              _val_diff, eps, one, zero)
from affgrass.moment import MomentGraph, PoincarePoly, skeleton
from affgrass.mvcomb import LusztigDatum, MVPolytope, braid, dimension
from affgrass.paving import is_gmv, iwahori_cell, mv_as_intersection, schubert_anchored_family
from affgrass.rootdata import (BORELS, CANON_ORDER, CHAMBER_INDEX, CHAMBERS, W0, GTFamily,
                               add_cw, contains, coroot, family_from_support, iota_family,
                               pairing, perm_inv, perm_mul, scale_cw, sub_cw, tighten_support)
from affgrass.springer import criterion_l_values

# ---------------------------------------------------------------------------
# series values
# ---------------------------------------------------------------------------

def exact(x):
    """Whether x is an exact Laurent polynomial (no truncation)."""
    return x.prec is None


def coeff(x, k):
    """The coefficient of eps^k in x."""
    if x.prec is not None and k >= x.prec:
        raise PrecisionLoss(f"coefficient of eps^{k} beyond precision {x.prec}")
    i = k - x.lead
    if not x.coeffs or i < 0 or i >= len(x.coeffs):
        return 0
    return x.coeffs[i]


def agrees(x, y):
    """Equality up to the common precision."""
    prec = min(INF if z.prec is None else z.prec for z in (x, y))
    diff = x - y
    return not diff.coeffs or diff.lead >= prec


def mul_schoolbook(a, b):
    """a * b by the term-by-term product, with the precision rules of ``__mul__``."""
    if a.field != b.field:
        raise ValueError("mixed prime fields")
    prec = min(a.effval() + (INF if b.prec is None else b.prec),
               b.effval() + (INF if a.prec is None else a.prec))
    if not a.coeffs or not b.coeffs:
        return LaurentSeries(a.field, 0, (), None if math.isinf(prec) else int(prec))
    lead = a.lead + b.lead
    n = len(a.coeffs) + len(b.coeffs) - 1
    if not math.isinf(prec):
        n = min(n, int(prec) - lead)
    p = a.field.p
    cs = [0] * max(n, 0)
    for i, x in enumerate(a.coeffs):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b.coeffs):
            k = i + j
            if k >= n:
                break
            cs[k] = (cs[k] + x * y) % p
    return LaurentSeries(a.field, lead, cs, None if math.isinf(prec) else int(prec))


def inv_schoolbook(a):
    """1 / a coefficient by coefficient, with the precision rules of ``inv``."""
    if not a.coeffs:
        if a.is_exact_zero:
            raise DivisionByZero("inverse of exact zero series")
        raise PrecisionLoss("inverse of a value that is zero up to precision")
    v = a.lead
    if a.prec is None and len(a.coeffs) == 1:
        return LaurentSeries(a.field, -v, (a.field.inv(a.coeffs[0]),), None)
    absprec = a.prec if a.prec is not None else v + a.field.prec
    rel = absprec - v
    if rel < 1:
        raise PrecisionLoss("no known coefficients to invert")
    p = a.field.p
    c0inv = a.field.inv(a.coeffs[0])
    out = [0] * rel
    out[0] = c0inv
    for k in range(1, rel):
        s = 0
        top = min(k, len(a.coeffs) - 1)
        for j in range(1, top + 1):
            s += a.coeffs[j] * out[k - j]
        out[k] = (-c0inv * s) % p
    return LaurentSeries(a.field, -v, out, absprec - 2 * v)

# ---------------------------------------------------------------------------
# series matrix plumbing and chamber minors
# ---------------------------------------------------------------------------

def mat_identity(field):
    o, z = one(field), zero(field)
    return ((o, z, z), (z, o, z), (z, z, o))


def mat_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, 3)), a[i][0] * b[0][j])
              for j in range(3))
        for i in range(3))


def minor(g, rows, cols):
    """Determinant of the submatrix; rows/cols are 1-based index lists."""
    r = [i - 1 for i in rows]
    c = [j - 1 for j in cols]
    if len(r) != len(c):
        raise ValueError("minor needs equally many rows and columns")
    if len(r) == 1:
        return g[r[0]][c[0]]
    if len(r) == 2:
        return g[r[0]][c[0]] * g[r[1]][c[1]] - g[r[0]][c[1]] * g[r[1]][c[0]]
    return mat_det(g)


def mat_det(g):
    s = zero(g[0][0].field)
    for j in range(3):
        cof = g[1][(j + 1) % 3] * g[2][(j + 2) % 3] - g[1][(j + 2) % 3] * g[2][(j + 1) % 3]
        s = s + g[0][j] * cof
    return s


def Delta(g, S):
    """Chamber minor: first |S| rows against the column set S."""
    cols = sorted(S)
    return minor(g, list(range(1, len(cols) + 1)), cols)


def D(x, S):
    """D_S of a point or of a matrix, read off the closed-form profile."""
    if not isinstance(x, GrassPoint):
        x = canonicalize_point_series(x)
    return dprofile(x)[CHAMBERS.index(frozenset(S))]


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def mat_adjugate(g):
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        m = g[r[0]][c[0]] * g[r[1]][c[1]] - g[r[0]][c[1]] * g[r[1]][c[0]]
        return m if (i + j) % 2 == 0 else -m
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def mat_inv(g):
    det = mat_det(g)
    if not det.nonzero:
        if det.is_exact_zero:
            raise SingularMatrix("matrix has exact zero determinant")
        raise PrecisionLoss("determinant vanishes up to precision")
    dinv = det.inv()
    adj = mat_adjugate(g)
    return tuple(tuple(e * dinv for e in row) for row in adj)


def root_elem(field, a, t):
    m = [list(r) for r in mat_identity(field)]
    m[a[0] - 1][a[1] - 1] = t
    return mat(m)


def wbar0(field):
    z, o = zero(field), one(field)
    neg = LaurentSeries(field, 0, (-1,))
    return ((z, z, o), (z, neg, z), (o, z, z))


# ---------------------------------------------------------------------------
# the series Hermite form
# ---------------------------------------------------------------------------

def _pick_pivot(entries):
    best, bestv = None, None
    for j, e in enumerate(entries):
        if e.nonzero and (bestv is None or e.lead < bestv):
            best, bestv = j, e.lead
    for e in entries:
        if not e.nonzero and not e.is_exact_zero:
            if bestv is None or e.prec <= bestv:
                raise PrecisionLoss("pivot ambiguous: a candidate entry is zero up to precision")
    if best is None:
        raise SingularMatrix("no pivot: matrix is singular")
    return best, bestv


def _high_part(e, cut):
    """Monomials with exponent >= cut, divided by eps^cut."""
    cs = [c if (e.lead + i) >= cut else 0 for i, c in enumerate(e.coeffs)]
    return LaurentSeries(e.field, e.lead, cs, e.prec) * eps(e.field, -cut)


def _hnf_lower(g):
    """Column Hermite form over O by LaurentSeries elimination: returns
    (matrix, diagonal exponents)."""
    field = g[0][0].field
    cols = [[g[r][c] for r in range(3)] for c in range(3)]
    exact_zero = zero(field)
    for i in range(3):
        j, v = _pick_pivot([cols[j][i] for j in range(i, 3)])
        j += i
        cols[i], cols[j] = cols[j], cols[i]
        unit = (cols[i][i] * eps(field, -v)).inv()
        cols[i] = [e * unit for e in cols[i]]
        cols[i][i] = eps(field, v)
        for j in range(i + 1, 3):
            f = cols[j][i] * eps(field, -v)
            if f.nonzero or not f.is_exact_zero:
                cols[j] = [a - f * b for a, b in zip(cols[j], cols[i])]
            cols[j][i] = exact_zero
    d = tuple(cols[i][i].lead for i in range(3))
    # reduce below-diagonal entries modulo eps^{d_row}
    for (r, c) in ((1, 0), (2, 0), (2, 1)):
        q = _high_part(cols[c][r], d[r])
        if not q.is_exact_zero:
            cols[c] = [a - q * b for a, b in zip(cols[c], cols[r])]
    for c in range(3):
        for r in range(3):
            if r > c:
                cols[c][r] = cols[c][r].as_exact_below(d[r])
            elif r < c:
                cols[c][r] = exact_zero
            else:
                cols[c][r] = eps(field, d[r])
    h = tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))
    return h, d


def canonicalize_point_series(g):
    """``grass.canonicalize_point`` by the series Hermite form: pivots
    inverted at the field's working precision, and ``PrecisionLoss`` wherever
    a division or reduction loses a term the result reads."""
    h, d = _hnf_lower(g)
    return GrassPoint(g[0][0].field, d,
                      tuple((e.lead, e.coeffs) for e in (h[1][0], h[2][0], h[2][1])))


# ---------------------------------------------------------------------------
# the BFZ map through the Gauss decomposition
# ---------------------------------------------------------------------------

def gauss_plus(g):
    """LTU decomposition g = v t u; returns (v, t, u); u is [g]_+."""
    field = g[0][0].field
    work = [list(r) for r in g]
    v = [list(r) for r in mat_identity(field)]
    for k in range(3):
        pivot = work[k][k]
        if not pivot.nonzero:
            raise GaussFailure(f"leading principal minor {k + 1} vanishes up to precision")
        pinv = pivot.inv()
        for r in range(k + 1, 3):
            f = work[r][k] * pinv
            v[r][k] = f
            work[r] = [a - f * b for a, b in zip(work[r], work[k])]
    t = [list(r) for r in mat_identity(field)]
    u = [list(r) for r in mat_identity(field)]
    for k in range(3):
        t[k][k] = work[k][k]
        pinv = work[k][k].inv()
        for j in range(k + 1, 3):
            u[k][j] = work[k][j] * pinv
    return mat(v), mat(t), mat(u)


def eta_w0(y):
    """x = [wbar0 . y^t]_+."""
    field = y[0][0].field
    return gauss_plus(mat_mul(wbar0(field), mat_transpose(y)))[2]


def eta_w0_inv(x):
    """y = wbar0^-1 . [x . wbar0^-1]^t_+ . wbar0  (wbar0 is an involution)."""
    field = x[0][0].field
    w = wbar0(field)
    u = gauss_plus(mat_mul(x, w))[2]
    return mat_mul(mat_mul(w, mat_transpose(u)), w)


def x_mat(word, ts):
    m = mat_identity(ts[0].field)
    for i, t in zip(word, ts):
        m = mat_mul(root_elem(t.field, (int(i), int(i) + 1), t), m)
    return m


def y_map(word, ts):
    return eta_w0_inv(x_mat(word, ts))


def point_from_y_by_gauss(word, ts):
    """The coset [y_word(t)^-1] through eta_w0_inv and a series matrix inverse."""
    return canonicalize_point_series(mat_inv(y_map(word, ts)))


def point_from_y_series(word, ts):
    """The coset [y_word(t)^-1] by the series Hermite form of the closed-form
    inverse at the parameters' full precision."""
    return canonicalize_point_series(y_inverse(word, ts))


# ---------------------------------------------------------------------------
# the inverse of the BFZ map
# ---------------------------------------------------------------------------

_J = (2, 1, 0)


def upper_canonical(g):
    """Upper-triangular column Hermite form: returns (matrix, diagonal exponents)."""
    flipped = tuple(tuple(g[_J[r]][_J[c]] for c in range(3)) for r in range(3))
    h, d = _hnf_lower(flipped)
    back = tuple(tuple(h[_J[r]][_J[c]] for c in range(3)) for r in range(3))
    return back, (d[2], d[1], d[0])


def random_u0_integral(field, rng, deg=6):
    def poly():
        return LaurentSeries(field, 0, [rng.randrange(field.p) for _ in range(deg)])
    m = [list(r) for r in mat_identity(field)]
    m[0][1], m[0][2], m[1][2] = poly(), poly(), poly()
    return mat(m)


def decompose_u0(x, word, rng, retries=200):
    """Write x in U0(F)K/K as [y_word(t)^-1], retrying over random integral
    unipotent correction factors m = R a until y_inverse(word, t) = m has a
    solution with every t nonzero."""
    R, e = upper_canonical(x.h)
    if e != (0, 0, 0):
        raise PreconditionViolated(f"point with upper diagonal {e} is not in U0(F)K/K")
    for _ in range(retries):
        m = mat_mul(R, random_u0_integral(x.field, rng))
        m12, m13, m23 = m[0][1], m[0][2], m[1][2]
        try:
            if word == "121":
                t1, t2 = -m12.inv(), -(m12 * m13.inv())
                ts = (t1, t2, -(t1 * (one(x.field) + m23 * t2).inv()))
            else:
                t1 = -m23.inv()
                t3 = -(m12 * m13.inv()) - t1
                ts = (t1, (m13 * t3).inv(), t3)
            if all(t.nonzero for t in ts) and point_from_y(word, ts) == x:
                return ts
        except (GaussFailure, PrecisionLoss, DivisionByZero, SingularMatrix):
            continue
    raise RetryExhausted(f"no y_{word} parameters found in {retries} attempts")


# ---------------------------------------------------------------------------
# points, profiles and cells by series matrices
# ---------------------------------------------------------------------------

_SUBSETS = {1: ((1,), (2,), (3,)), 2: ((1, 2), (1, 3), (2, 3))}


def dprofile_matrix(g):
    """D_S for all six chamber weights, computed from minors of g^-1."""
    gi = mat_inv(g)
    out = []
    for S in CHAMBERS:
        cols = sorted(S)
        leads, bounds = [], []
        for J in _SUBSETS[len(cols)]:
            m = minor(gi, J, cols)
            if m.nonzero:
                leads.append(m.lead)
            elif not m.is_exact_zero:
                bounds.append(m.prec)
        best = min(leads) if leads else INF
        if any(b <= best for b in bounds):
            raise PrecisionLoss(f"D for columns {cols} undetermined at working precision")
        out.append(best)
    return tuple(out)


def translate_point(x, chi):
    """The point eps^chi . x, canonicalized through the series Hermite form."""
    return canonicalize_point_series(mat_mul(mat_diag_eps(x.field, chi), x.h))


def curve_point(field, a, k, v):
    """A nonfixed point of the 1-dimensional orbit joining v and v - k.coroot(a)."""
    n = pairing(v, (a[0],)) - pairing(v, (a[1],)) - k
    g = mat_mul(root_elem(field, a, eps(field, n)), mat_diag_eps(field, v))
    return canonicalize_point_series(g)


def member_springer_matrix(g, gamma):
    """Springer membership of an arbitrary representative: g^-1 gamma g integral."""
    field = gamma.field
    z = zero(field)
    gm = ((gamma.gamma[0], z, z), (z, gamma.gamma[1], z), (z, z, gamma.gamma[2]))
    conj = mat_mul(mat_mul(mat_inv(g), gm), g)
    return all(conj[i][j].effval() >= 0 for i in range(3) for j in range(3))


def admits_by_products(gamma, d, e21, e31, e32):
    """``RegularDiagonal.admits`` with its t31 test as products: the two
    terms e21 e32 r12 and e31 eps^d2 r13 of t31, each cut at top, must agree
    below top, and a truncated gamma must know both roots that far."""
    _d1, d2, d3 = d
    c12, c23, c13 = gamma.c
    if e21[1] and e21[0] + c12 < d2 or e32[1] and e32[0] + c23 < d3:
        return False
    top = d2 + d3
    x = e21[0] + e32[0] + c12 if e21[1] and e32[1] else INF
    y = e31[0] + d2 + c13 if e31[1] else INF
    if min(x, y) >= top:
        return True
    (r12, s12), (r13, s13) = gamma._roots
    # unequal leads cannot cancel; a truncated gamma must reach top
    if x != y or min(x - c12 + s12, y - c13 + s13) < top:
        return False
    p = gamma.field.p
    return _val_diff(_mul(_mul(e21, e32, p), r12, p, top),
                     _mul((e31[0] + d2, e31[1]), r13, p, top)) >= top


def t31_ball_by_products(gamma, d, e21, e32):
    """``RegularDiagonal.t31_ball`` of the product of e21 and e32 as three
    products per pair: e21 e32, then r12, then the inverse of r13's unit part
    u13, each cut at top, so the centre is e21 e32 r12 u13^-1 eps^-(d2+c13)."""
    _d1, d2, d3 = d
    c12, _c23, c13 = gamma.c
    top = d2 + d3
    x = e21[0] + e32[0] + c12 if e21[1] and e32[1] else INF
    if x >= top:
        return ZERO_ENTRY, d3 - c13
    (r12, s12), (r13, s13) = gamma._roots
    if min(s12 - c12, s13 - c13) < top - x:
        return None
    p = gamma.field.p
    u = (0, tuple(_inv(r13[1], top - x, p)))
    lead, cs = _mul(_mul(_mul(e21, e32, p), r12, p, top), u, p, top)
    return (lead - d2 - c13, cs), d3 - c13


def criterion_l_values_by_table(n, b, c):
    """``springer.criterion_l_values`` from a table of all six chambers'
    orbit counts, in place of the one row of chamber b."""
    n1, n2, n3 = n
    c12, c23, c13 = c
    table = {
        0: (min(n1, c12), min(n2, c23), min(n2 + n3, c13)),
        5: (min(n1, c12), min(n2 + n3, c23), min(n2, c13)),
        1: (min(n1 + n2, c12), min(n2, c23), min(n3, c13)),
        2: (min(n1 + n2 - n3, c12), min(n2 + n3, c23), min(n3, c13)),
        3: (min(n1 + n2 - n3, c12), min(n3, c23), min(n2 + n3, c13)),
        4: (min(n1 + n2, c12), min(n3, c23), min(n2, c13)),
    }
    return table[b]


def criterion_bound_by_cases(n, b, c):
    """``springer.criterion_bound`` by cases on the chamber, in place of the
    one row of chamber b."""
    n1, n2, n3 = n
    c12, c23, c13 = c
    if b in (0, 5, 2, 3):
        return n2 + n3 + c12
    if b == 1:
        return n1 + n2 + c23
    return n1 + n2 + c13


def criterion_oracle_by_families(P, gamma):
    """``springer.criterion_oracle`` with each counted Ec support made its
    family and all six vertices compared with P's, in place of the two
    support numbers at each corner; it also answers off normal position."""
    q, f, cells = gamma.field.p, P.family, [0] * 6
    for M, n in _ec_supports(f, q, gamma).items():
        fx = family_from_support(M, f.nu)
        for b, v, w in zip(range(6), fx.vertices, f.vertices):
            cells[b] += n if v == w else 0
    return tuple(cells[b] == q ** sum(criterion_l_values(P.datum121.n, b, gamma.c))
                 for b in range(6))


def criterion_oracle_on_cells(P, b, gamma, points):
    """Verdict b of ``criterion_oracle`` on ``points``, the F_q-points of the
    explicit coordinates of ``contracting_cell(P, b)``, each tested by
    ``admits_by_products``."""
    ls = criterion_l_values(P.datum121.n, b, gamma.c)
    count = sum(1 for x in points if admits_by_products(gamma, x.d, *x.entries))
    return count == gamma.field.p ** sum(ls)


def eq_up_to_translation(f, g):
    chi = sub_cw(g.vertices[0], f.vertices[0])
    return f.translate(chi) == g


def cell_points_by_matrices(field, diag, windows, inverted=False):
    """Canonical forms of u . eps^diag by LaurentSeries matrices and _hnf_lower."""
    # Hermite reduction inverts unit pivots to work.prec terms; one more than
    # the exponent range of g's entries (windows shifted by diag) was enough
    # on every contracting cell with n_i <= 3, dim <= 7 (most need 1 to 4).
    # Too little precision raises PrecisionLoss; it cannot give a wrong point.
    exps = list(diag) + [e + diag[c - 1] for (_r, c, lo, hi) in windows for e in (lo, hi)]
    work = PrimeField(field.p, max(exps) - min(exps) + 1)
    ranges = [max(0, hi - lo) for (_r, _c, lo, hi) in windows]
    pts = set()
    for coeff_sets in itertools.product(
            *[itertools.product(range(field.p), repeat=k) for k in ranges]):
        u = [list(r) for r in mat_identity(work)]
        for (r, c, lo, _hi), cs in zip(windows, coeff_sets):
            u[r - 1][c - 1] = LaurentSeries(work, lo, cs)
        m = mat_inv(mat(u)) if inverted else mat(u)
        x = canonicalize_point_series(mat_mul(m, mat_diag_eps(work, diag)))
        pts.add(GrassPoint(field, x.d, x.entries))
    return pts


# ---------------------------------------------------------------------------
# truncation points on the whole entry windows
# ---------------------------------------------------------------------------

def _iter_entries(f, q, budget=5_000_000, gamma=None):
    """Yield (d, e21, e31, e32, profile) for every F_q-point of the truncation
    of f; with a ``springer.RegularDiagonal`` gamma, for those that
    ``gamma.admits``: every tail of each ``grass._iter_pairs`` head, and its
    profile computed from the point alone."""
    tails = _Tails(q)
    for d, e21, e32, _P, _pair, _r, lo, head, hi in _iter_pairs(f, q, budget, gamma):
        for t in tails[hi - lo - len(head)]:
            e31 = _entry(lo, (*head, *t))
            yield d, e21, e31, e32, _profile(d, e21, e31, e32, q)


def _meet(x, y):
    """The intersection of two balls (centre, radius) of Laurent polynomials,
    or None: the smaller ball if its centre lies in the larger one."""
    if y is None:
        return None
    r = min(x[1], y[1])
    if _below(x[0], r) != _below(y[0], r):
        return None
    return x if x[1] >= y[1] else y


def iter_pairs_by_normal_forms(f, q, gamma=None):
    """``grass._iter_pairs`` with the D0 and t31 balls met by comparing the
    normal forms of their centres below the smaller radius (two ultrametric
    balls are nested or disjoint), the t31 centre formed for every pair, and
    each pair profile by ``_pair_profile``."""
    for d in f.lattice_points():
        w21, (lo, hi), w32 = _entry_windows(f, d)
        d1, d2, d3 = d
        if gamma is not None:
            c12, c23, _c13 = gamma.c
            w21, w32 = (max(w21[0], d2 - c12), d2), (max(w32[0], d3 - c23), d3)
        for e21, e32 in itertools.product(*_window_entries(q, (w21, w32))):
            prod = _mul(e21, e32, q) if e21[1] and e32[1] else ZERO_ENTRY
            P = (prod[0] - d2, prod[1])
            ball = (P, d1 + d3 - f.support[0])
            if gamma is not None:
                ball = _meet(ball, gamma.t31_ball(d, prod))
                if ball is None:
                    continue
            centre, rad = _below(*ball), ball[1]
            if centre[1] and (centre[0] < lo or centre[0] + len(centre[1]) > hi):
                continue
            s = min(max(rad, lo), hi)
            head = [0] * (s - lo)
            head[centre[0] - lo:centre[0] - lo + len(centre[1])] = centre[1]
            yield d, e21, e32, P, _pair_profile(d, e21, e32), rad, lo, head, hi


def ec_counts_by_points(f, q, gamma=None):
    """``grass._ec_supports`` point by point: the D-profile of every tail of
    each ``grass._iter_pairs`` head, from the pair's P and pair profile,
    counted, and each profile negated into its Ec support once."""
    tails = _Tails(q)
    by_profile = Counter(_profile(d, e21, _entry(lo, (*head, *t)), e32, q, P, pair)
                         for d, e21, e32, P, pair, _r, lo, head, hi
                         in _iter_pairs(f, q, gamma=gamma) for t in tails[hi - lo - len(head)])
    return Counter({tuple(-v for v in prof): n for prof, n in by_profile.items()})


def iter_entries_windows(f, q, budget=5_000_000):
    """``_iter_entries`` without gamma as every candidate of the entry
    windows whose D-profile passes the floor."""
    windows = [(d, _entry_windows(f, d)) for d in f.lattice_points()]
    if sum(q ** sum(max(0, hi - lo) for lo, hi in ws) for _d, ws in windows) > budget:
        raise BudgetExceeded(f"enumeration needs > {budget} candidates")
    floor = [-m for m in f.support]
    for d, ws in windows:
        for e21, e31, e32 in itertools.product(*_window_entries(q, ws)):
            prof = _profile(d, e21, e31, e32, q)
            if all(v >= m for v, m in zip(prof, floor)):
                yield d, e21, e31, e32, prof


def contracting_cell_by_filter(cell, field):
    """``ContractingCell.enumerate`` as every point of the truncation whose
    D-profile is -M_S on the facets S = {w1}, {w1, w2} that fix the vertex of
    Borel w."""
    f, w = cell.polytope.family, BORELS[cell.borel]
    i, j = (CHAMBER_INDEX[frozenset(w[:k])] for k in (1, 2))
    mi, mj = -f.support[i], -f.support[j]
    return {GrassPoint(field, d, (e21, e31, e32))
            for d, e21, e31, e32, prof in _iter_entries(f, field.p)
            if prof[i] == mi and prof[j] == mj}


def paving_121_by_listing(d, verify_qs=(2, 3)):
    """The record of ``paving.paving_121`` by listing points: every point of the
    truncation in a set, and every Iwahori cell listed against it (q^dim points
    each, no two meeting, together the whole set), in place of the Ec supports
    counted per corner.  Returns the record and, per field, the cells' point sets
    in step order."""
    lam1, shift, _lam2 = mv_as_intersection(d)
    family = schubert_anchored_family(d)
    cells = sorted((iwahori_cell(shift, lam1, v) for v in family.lattice_points()),
                   key=lambda c: (-c.dim, c.vertex))
    record, listed = {"per_q": [], "ok": True}, []
    for q in verify_qs:
        field = PrimeField(q)
        pts = set(iter_points(family, field))
        seen = set()
        by_cell = []
        listed.append([c.enumerate(field) for c in cells])
        for c, cpts in zip(cells, listed[-1]):
            if len(cpts) != q ** c.dim:
                raise PavingVerificationFailed(
                    f"iwahori cell at {c.vertex} has {len(cpts)} points, wants {q}^{c.dim}")
            if cpts & seen:
                raise PavingVerificationFailed(f"iwahori cells overlap at {c.vertex}")
            seen |= cpts
            by_cell.append(len(cpts))
        if seen != pts:
            raise PavingVerificationFailed(
                f"iwahori cells cover {len(seen)} points, truncation has {len(pts)}")
        record["per_q"].append({"q": q, "total": len(pts), "by_step": by_cell})
    return record, listed


# ---------------------------------------------------------------------------
# MV polytopes by vertex paths and Lusztig data
# ---------------------------------------------------------------------------

_ALPHA1, _ALPHA2, _ALPHA13 = coroot((1, 2)), coroot((2, 3)), coroot((1, 3))


def vertices_of_by_paths(d, base):
    """``mvcomb.vertices_of`` by its two vertex paths from the w0-side vertex
    ``base``: the 121 datum through s1s2 and s1, the 212 datum through s2s1
    and s2, which must close up at lambda_e; the support is read off the six
    vertices by ``GTFamily.from_vertices``."""
    n = d.n if d.word == "121" else braid(d).n
    m = braid(LusztigDatum("121", n)).n
    lw0 = base
    ls1s2 = add_cw(lw0, scale_cw(n[2], _ALPHA2))
    ls1 = add_cw(ls1s2, scale_cw(n[1], _ALPHA13))
    le = add_cw(ls1, scale_cw(n[0], _ALPHA1))
    ls2s1 = add_cw(lw0, scale_cw(m[2], _ALPHA1))
    ls2 = add_cw(ls2s1, scale_cw(m[1], _ALPHA13))
    if add_cw(ls2, scale_cw(m[0], _ALPHA2)) != le:
        raise InconsistentFamily(f"the two edge paths of {d} do not close up")
    # in BORELS order: e, s2, s2s1, w0, s1s2, s1
    return GTFamily.from_vertices(sum(base), (le, ls2, ls2s1, lw0, ls1s2, ls1))


def is_mv_family(f):
    """``mvcomb.mv_edges(f, IDENT) is not None`` by two Lusztig data: the
    braid move takes the 121 datum, read along the chambers e, s1, s1s2, w0,
    to the 212 datum read along e, s2, s2s1, w0."""
    k = f.edge_lengths()
    return braid(LusztigDatum("121", (k[5], k[4], k[3]))) == LusztigDatum("212", k[:3])


def normalize_gmv_by_families(f):
    """``springer._normalize_gmv`` on families: the first (delta, w) with
    h = w^-1 . iota^delta f an MV family whose 121 datum d has
    n1 >= n3 >= n2, and that d."""
    for delta in (0, 1):
        g0 = iota_family(f) if delta else f
        for w in BORELS:
            h = g0.weyl(perm_inv(w))
            k = h.edge_lengths()
            d = LusztigDatum("121", (k[5], k[4], k[3]))
            if is_mv_family(h) and d.n[0] >= d.n[2] >= d.n[1]:
                return delta, w, d
    raise NormalPositionRequired(f"{f.vertices} has no normal-position presentation")


# ---------------------------------------------------------------------------
# maximal generalized MV subpolytopes on lattice points
# ---------------------------------------------------------------------------

RHO = (1, 0, -1)


def act(w, v):
    """Permutation action on coweights: (w.v)_i = v_{w^-1(i)}."""
    wi = perm_inv(w)
    return (v[wi[0] - 1], v[wi[1] - 1], v[wi[2] - 1])


def canonicalize_by_scores(f):
    """``mvcomb.canonicalize`` by the vertex scores: the first w of CANON_ORDER
    minimizing <w.rho, lambda_w - lambda_{w w0}> with w^-1.f an MV polytope."""
    scores = []
    for w in CANON_ORDER:
        diff = sub_cw(f.vertices[BORELS.index(w)], f.vertices[BORELS.index(perm_mul(w, W0))])
        scores.append(sum(a * b for a, b in zip(act(w, RHO), diff)))
    for w, s in zip(CANON_ORDER, scores):
        if s == min(scores) and is_mv_family(f.weyl(perm_inv(w))):
            return w, MVPolytope.from_family(f.weyl(perm_inv(w)))
    raise NotMV(f"no minimizing Weyl twist of {f.vertices} is braid-consistent")


def is_gmv_canonical(f):
    """``paving.is_gmv`` by the vertex scores: some minimizing Weyl twist of
    f is an MV polytope."""
    try:
        canonicalize_by_scores(f)
        return True
    except NotMV:
        return False


def gmv_dimension_canonical(f):
    """``paving.gmv_dimension`` by the vertex scores: n1 + 2 n2 + n3 of the MV twist."""
    _w, P = canonicalize_by_scores(f)
    return dimension(P)


def _maximal(pieces):
    """One piece per support, minus those inside another, sorted by support."""
    pool = list({P.support: P for P in pieces}.values())
    out = [P for P in pool if not any(Q.support != P.support and contains(Q, P) for Q in pool)]
    return sorted(out, key=lambda P: P.support)


_WALK_BUDGET = 200_000  # states of one support walk


def max_gmv_inside_walk(f, avoid):
    """``paving.max_gmv_inside`` as one walk from f: lower one support number by 1
    and tighten, and stop at the GMV states that miss ``avoid``."""
    seen = {f.support}
    queue = [f.support]
    found = {}
    while queue:
        m = queue.pop()
        if any(all(a <= b for a, b in zip(m, r)) for r in found):
            continue
        fam = family_from_support(m, f.nu)
        if (avoid is None or not fam.contains_point(avoid)) and is_gmv(fam):
            found[m] = fam
            continue
        for ci in range(6):
            if m[ci] + m[5 - ci] == f.nu:  # CHAMBERS lists complements in reverse
                continue
            m2 = tighten_support(m[:ci] + (m[ci] - 1,) + m[ci + 1:], f.nu)
            if m2 not in seen:
                seen.add(m2)
                if len(seen) > _WALK_BUDGET:
                    raise BudgetExceeded("support tightening walk exceeded its budget")
                queue.append(m2)
    return _maximal(found.values())


def max_gmv_inside_by_lattice_points(f, avoid):
    """``paving.max_gmv_inside`` with each step taken on lattice points: drop
    the points of the state's family on one facet and take the six maximal
    pairings of the points left as the next support."""
    seen = {f.support}
    queue = [f.support]
    found = {}
    while queue:
        m = queue.pop()
        if any(all(a <= b for a, b in zip(m, r)) for r in found):
            continue
        fam = family_from_support(m, f.nu)
        if (avoid is None or not fam.contains_point(avoid)) and is_gmv(fam):
            found[m] = fam
            continue
        pts = fam.lattice_points()
        for ci, S in enumerate(CHAMBERS):
            rest = [v for v in pts if pairing(v, S) < m[ci]]
            if not rest:
                continue
            m2 = tuple(max(pairing(v, T) for v in rest) for T in CHAMBERS)
            if m2 not in seen:
                seen.add(m2)
                if len(seen) > _WALK_BUDGET:
                    raise BudgetExceeded("support tightening walk exceeded its budget")
                queue.append(m2)
    return _maximal(found.values())


# ---------------------------------------------------------------------------
# moment graph orders, one at a time
# ---------------------------------------------------------------------------

def incident(g, v):
    return [e for e in g.edges if e[0] == v or e[1] == v]


def wt(g, v):
    return len(incident(g, v))


def skeleton_union(pieces, springer_c=None):
    """The union of the pieces' ``skeleton`` graphs (the Springer one if given)."""
    gs = [skeleton(P, springer_c=springer_c) for P in pieces]
    return MomentGraph(tuple({u for g in gs for u in g.vertices}),
                       tuple({e for g in gs for e in g.edges}))


def union_degree_by_skeleton(v, pieces, springer_c=None):
    """``moment.union_degree`` as ``wt`` on the union of the pieces' skeletons."""
    return wt(skeleton_union(pieces, springer_c), v)


def orient(g, order):
    """Direct every edge from its order-larger endpoint (an acyclic orientation).

    ``order`` lists the vertices from largest to smallest.
    """
    rank = {v: i for i, v in enumerate(order)}
    if len(rank) != len(g.vertices) or set(rank) != set(g.vertices):
        raise ValueError("order must enumerate the graph vertices")
    return tuple((u, v) if rank[u] < rank[v] else (v, u) for (u, v, _a, _k) in g.edges)


def formal_betti(g, order):
    """Out-degree statistics of the orientation induced by a total order."""
    out = {v: 0 for v in g.vertices}
    for (src, _tgt) in orient(g, order):
        out[src] += 1
    return PoincarePoly.from_dims(list(out.values()))


def min_formal_poincare_full_scan(g, budget=1 << 18):
    """The formal minimum by the dynamic program over all 2^n sets of placed
    vertices, in ascending mask order, with the counts as tuples highest
    degree first (so tuple < is compare)."""
    verts = list(g.vertices)
    n = len(verts)
    if n == 0:
        return PoincarePoly(()), []
    if (1 << n) > budget:
        raise BudgetExceeded(f"{n} vertices exceed the order-scan budget")
    idx = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for (u, v, _a, _k) in g.edges:
        nbr[idx[u]] |= 1 << idx[v]
        nbr[idx[v]] |= 1 << idx[u]
    top = max(m.bit_count() for m in nbr)
    size = 1 << n
    best = [None] * size
    parent = [-1] * size
    best[0] = (0,) * (top + 1)
    for mask in range(size - 1):
        cur = best[mask]
        for v in range(n):
            bit = 1 << v
            if mask & bit:
                continue
            k = top - (nbr[v] & ~mask).bit_count()
            cand = cur[:k] + (cur[k] + 1,) + cur[k + 1:]
            m2 = mask | bit
            if best[m2] is None or cand < best[m2]:
                best[m2] = cand
                parent[m2] = v
    order_idx = []
    mask = size - 1
    while mask:
        v = parent[mask]
        order_idx.append(v)
        mask ^= (1 << v)
    order_idx.reverse()
    return PoincarePoly(best[size - 1][::-1]), [verts[i] for i in order_idx]


# ---------------------------------------------------------------------------
# lattice points by a box scan
# ---------------------------------------------------------------------------

def lattice_points_by_scan(f):
    """``GTFamily.lattice_points`` as the scan of the coordinate box, each
    candidate tested against the six facets."""
    M = f.support
    # coordinate i is at most M_{i} and at least nu - M_{jk}
    lo, hi = f.nu - max(M[3:]), max(M[:3])
    out = []
    for v1 in range(lo, hi + 1):
        for v2 in range(lo, hi + 1):
            v = (v1, v2, f.nu - v1 - v2)
            if v[2] < lo or v[2] > hi:
                continue
            if all(pairing(v, S) <= M[ci] for ci, S in enumerate(CHAMBERS)):
                out.append(v)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# support tightening by passes, and the coordinate span
# ---------------------------------------------------------------------------

def tighten_support_by_passes(M, nu):
    """``rootdata.tighten_support`` as a loop: lower each support number to the
    bound its two neighbours give until none moves."""
    m1, m2, m3, m12, m13, m23 = M
    while True:
        if m1 + m23 < nu or m2 + m13 < nu or m3 + m12 < nu:
            raise InconsistentFamily(f"support {tuple(M)} on the nu={nu} fiber bounds no point")
        t1, t2, t3 = min(m1, m12 + m13 - nu), min(m2, m12 + m23 - nu), min(m3, m13 + m23 - nu)
        t = (t1, t2, t3, min(m12, t1 + t2), min(m13, t1 + t3), min(m23, t2 + t3))
        if t == (m1, m2, m3, m12, m13, m23):
            return t
        m1, m2, m3, m12, m13, m23 = t


def span(f):
    """The largest coordinate minus the least, over the polytope: no skeleton
    edge is longer."""
    return max(f.support[:3]) + max(f.support[3:]) - f.nu

"""Points of the affine Grassmannian for GL(3).

A coset gK is stored by its canonical representative: lower triangular with
diagonal eps^{d_j} and each below-diagonal entry a Laurent polynomial with all
exponents < d_row.  Everything downstream (D-profiles, membership, point
enumeration) is exact integer arithmetic on these forms.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import (BudgetExceeded, DivisionByZero, GaussFailure,
                     PreconditionViolated, PrecisionLoss, RetryExhausted,
                     SingularMatrix)
from .laurent import INF, LaurentSeries, PrimeField, eps, one, zero
from .rootdata import (CHAMBERS, GTFamily, Coweight, Root, coroot,
                       family_from_support, pairing)

Matrix = Tuple[Tuple[LaurentSeries, ...], ...]


# ---------------------------------------------------------------------------
# matrix plumbing
# ---------------------------------------------------------------------------

def mat(rows: Sequence[Sequence[LaurentSeries]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_identity(field: PrimeField) -> Matrix:
    o, z = one(field), zero(field)
    return ((o, z, z), (z, o, z), (z, z, o))


def mat_diag_eps(field: PrimeField, d: Coweight) -> Matrix:
    z = zero(field)
    return tuple(tuple(eps(field, d[i]) if i == j else z for j in range(3)) for i in range(3))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, 3)), a[i][0] * b[0][j])
              for j in range(3))
        for i in range(3))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def minor(g: Matrix, rows: Sequence[int], cols: Sequence[int]) -> LaurentSeries:
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


def mat_det(g: Matrix) -> LaurentSeries:
    s = zero(g[0][0].field)
    for j in range(3):
        cof = g[1][(j + 1) % 3] * g[2][(j + 2) % 3] - g[1][(j + 2) % 3] * g[2][(j + 1) % 3]
        s = s + g[0][j] * cof
    return s


def mat_adjugate(g: Matrix) -> Matrix:
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        m = g[r[0]][c[0]] * g[r[1]][c[1]] - g[r[0]][c[1]] * g[r[1]][c[0]]
        return m if (i + j) % 2 == 0 else -m
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def mat_inv(g: Matrix) -> Matrix:
    det = mat_det(g)
    if not det.nonzero:
        if det.is_exact_zero:
            raise SingularMatrix("matrix has exact zero determinant")
        raise PrecisionLoss("determinant vanishes up to precision")
    dinv = det.inv()
    adj = mat_adjugate(g)
    return tuple(tuple(e * dinv for e in row) for row in adj)


def Delta(g: Matrix, S: Iterable[int]) -> LaurentSeries:
    """Chamber minor: first |S| rows against the column set S."""
    cols = sorted(S)
    return minor(g, list(range(1, len(cols) + 1)), cols)


def root_elem(field: PrimeField, a: Root, t: LaurentSeries) -> Matrix:
    m = [list(r) for r in mat_identity(field)]
    m[a[0] - 1][a[1] - 1] = t
    return mat(m)


def wbar0(field: PrimeField) -> Matrix:
    z, o = zero(field), one(field)
    neg = LaurentSeries(field, 0, (-1,))
    return ((z, z, o), (z, neg, z), (o, z, z))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

Entry = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class GrassPoint:
    """A coset by its canonical representative: diagonal eps^d and the lower
    entries h21, h31, h32 as (lead, coeffs) normal forms, zero being (0, ())."""

    field: PrimeField
    d: Coweight
    entries: Tuple[Entry, Entry, Entry]

    @property
    def nu(self) -> int:
        return sum(self.d)

    @property
    def h(self) -> Matrix:
        """The canonical representative as an exact LaurentSeries matrix over field."""
        h = [list(r) for r in mat_diag_eps(self.field, self.d)]
        for (r, c), (lead, cs) in zip(((1, 0), (2, 0), (2, 1)), self.entries):
            h[r][c] = LaurentSeries(self.field, lead, cs)
        return mat(h)


def _entry(lead: int, cs: Sequence[int]) -> Entry:
    """The normal form of sum cs[i] eps^(lead + i), each cs[i] in [0, p)."""
    nz = [i for i, c in enumerate(cs) if c]
    return (lead + nz[0], tuple(cs[nz[0]:nz[-1] + 1])) if nz else (0, ())


def _pick_pivot(entries: List[LaurentSeries]):
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


def _high_part(e: LaurentSeries, cut: int) -> LaurentSeries:
    """Monomials with exponent >= cut, divided by eps^cut."""
    cs = [c if (e.lead + i) >= cut else 0 for i, c in enumerate(e.coeffs)]
    return LaurentSeries(e.field, e.lead, cs, e.prec).shift(-cut)


def _hnf_lower(g: Matrix):
    """Column Hermite form over O: returns (matrix, diagonal exponents)."""
    field = g[0][0].field
    cols = [[g[r][c] for r in range(3)] for c in range(3)]
    exact_zero = zero(field)
    for i in range(3):
        j, v = _pick_pivot([cols[j][i] for j in range(i, 3)])
        j += i
        cols[i], cols[j] = cols[j], cols[i]
        unit = cols[i][i].shift(-v).inv()
        cols[i] = [e * unit for e in cols[i]]
        cols[i][i] = eps(field, v)
        for j in range(i + 1, 3):
            f = cols[j][i].shift(-v)
            if f.nonzero or not f.is_exact_zero:
                cols[j] = [a - f * b for a, b in zip(cols[j], cols[i])]
            cols[j][i] = exact_zero
    d = tuple(cols[i][i].lead for i in range(3))
    # reduce below-diagonal entries modulo eps^{d_row}
    for (r, c) in ((1, 0), (2, 0), (2, 1)):
        q = _high_part(cols[c][r], d[r])
        if q.nonzero:
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


def canonicalize_point(g: Matrix) -> GrassPoint:
    h, d = _hnf_lower(g)
    return GrassPoint(g[0][0].field, d,
                      tuple((e.lead, e.coeffs) for e in (h[1][0], h[2][0], h[2][1])))


_J = (2, 1, 0)


def upper_canonical(g: Matrix):
    """Upper-triangular column Hermite form: returns (matrix, diagonal exponents)."""
    flipped = tuple(tuple(g[_J[r]][_J[c]] for c in range(3)) for r in range(3))
    h, d = _hnf_lower(flipped)
    back = tuple(tuple(h[_J[r]][_J[c]] for c in range(3)) for r in range(3))
    return back, (d[2], d[1], d[0])


# ---------------------------------------------------------------------------
# D-profiles, Ec, membership
# ---------------------------------------------------------------------------

_SUBSETS = {1: ((1,), (2,), (3,)), 2: ((1, 2), (1, 3), (2, 3))}


def dprofile_matrix(g: Matrix) -> Tuple[Union[int, float], ...]:
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


def dprofile(x: GrassPoint) -> Tuple[Union[int, float], ...]:
    """Closed-form D-profile of a canonical representative."""
    return _profile(x.d, *x.entries, x.field.p)


# The integer point kernel works on entries (lead, coeffs), the normal form
# of an exact LaurentSeries: coeffs in [0, p), first and last nonzero.

def _mul(x, y, p: int, top=INF):
    """Product of two nonzero entries, its coefficients below exponent top."""
    (lx, cx), (ly, cy) = x, y
    n = min(len(cx) + len(cy) - 1, top - lx - ly)
    out = [0] * n
    for i, a in enumerate(cx[:n]):
        for j, b in enumerate(cy[:n - i]):
            out[i + j] += a * b
    return lx + ly, tuple(c % p for c in out)


def _val_diff(x, y) -> Union[int, float]:
    """val(x - y) for two nonzero entries with the same lead."""
    pairs = itertools.zip_longest(x[1], y[1], fillvalue=0)
    return next((x[0] + k for k, (a, b) in enumerate(pairs) if a != b), INF)


def _profile(d: Coweight, e21, e31, e32, p: int) -> Tuple[Union[int, float], ...]:
    """The D-profile of the point with diagonal eps^d and lower entries e21,
    e31, e32.  With a = h21 eps^-d1, b = h32 eps^-d2, c = h31 eps^-d1 it is
    made of leads; val(ab - c) needs a product only when its leads meet."""
    d1, d2, d3 = d
    va = e21[0] - d1 if e21[1] else INF
    vb = e32[0] - d2 if e32[1] else INF
    vc = e31[0] - d1 if e31[1] else INF
    vab_c = (_val_diff(_mul(e21, e32, p), (e31[0] + d2, e31[1])) - d1 - d2
             if va + vb == vc != INF else min(va + vb, vc))
    return (
        min(-d1, va - d2, vab_c - d3),
        min(-d2, vb - d3),
        -d3,
        min(-d1 - d2, vb - d1 - d3, vc - d2 - d3),
        min(-d1 - d3, va - d2 - d3),
        -d2 - d3,
    )


def D(x: Union[GrassPoint, Matrix], S: Iterable[int]) -> Union[int, float]:
    ci = CHAMBERS.index(frozenset(S))
    if isinstance(x, GrassPoint):
        return dprofile(x)[ci]
    return dprofile_matrix(x)[ci]


def ec(x: GrassPoint) -> GTFamily:
    prof = dprofile(x)
    if any(v is INF or v == INF for v in prof):
        raise SingularMatrix("point has a vanishing chamber vector")
    return family_from_support([-int(v) for v in prof], x.nu)


def member(x: GrassPoint, f: GTFamily) -> bool:
    if x.nu != f.nu:
        return False
    return all(dv >= -m for dv, m in zip(dprofile(x), f.support))


# ---------------------------------------------------------------------------
# total positivity maps (Gaussian decomposition)
# ---------------------------------------------------------------------------

def gauss_plus(g: Matrix):
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


def eta_w0(y: Matrix) -> Matrix:
    """x = [wbar0 . y^t]_+."""
    field = y[0][0].field
    return gauss_plus(mat_mul(wbar0(field), mat_transpose(y)))[2]


def eta_w0_inv(x: Matrix) -> Matrix:
    """y = wbar0^-1 . [x . wbar0^-1]^t_+ . wbar0  (wbar0 is an involution)."""
    field = x[0][0].field
    w = wbar0(field)
    u = gauss_plus(mat_mul(x, w))[2]
    return mat_mul(mat_mul(w, mat_transpose(u)), w)


def x_mat(word: str, ts: Sequence[LaurentSeries]) -> Matrix:
    m = mat_identity(ts[0].field)
    for i, t in zip(word, ts):
        m = mat_mul(root_elem(t.field, (int(i), int(i) + 1), t), m)
    return m


def y_map(word: str, ts: Sequence[LaurentSeries]) -> Matrix:
    return eta_w0_inv(x_mat(word, ts))


def transition(word: str, ts: Sequence[LaurentSeries]) -> Tuple[LaurentSeries, ...]:
    """Parameters t' with y_word(t) = y_word'(t'): the subtraction-free 3-move."""
    t1, t2, t3 = ts
    s = t1 + t3
    if not s.nonzero:
        raise DivisionByZero("t1 + t3 vanishes; the transition is undefined here")
    sinv = s.inv()
    return (t2 * t3 * sinv, s, t1 * t2 * sinv)


def point_from_y(word: str, ts: Sequence[LaurentSeries]) -> GrassPoint:
    """The coset [y_word(t)^-1]."""
    return canonicalize_point(mat_inv(y_map(word, ts)))


def random_u0_integral(field: PrimeField, rng: random.Random, deg: int = 6) -> Matrix:
    def poly():
        return LaurentSeries(field, 0, [rng.randrange(field.p) for _ in range(deg)])
    m = [list(r) for r in mat_identity(field)]
    m[0][1], m[0][2], m[1][2] = poly(), poly(), poly()
    return mat(m)


def decompose_u0(x: GrassPoint, word: str, rng: random.Random,
                 retries: int = 200) -> Tuple[LaurentSeries, ...]:
    """Write x in U0(F)K/K as [y_word(t)^-1], retrying over random integral
    unipotent correction factors until the chamber minors are all nonzero."""
    R, e = upper_canonical(x.h)
    if e != (0, 0, 0):
        raise PreconditionViolated(f"point with upper diagonal {e} is not in U0(F)K/K")
    for _ in range(retries):
        a = random_u0_integral(x.field, rng)
        try:
            m = mat_mul(R, a)
            xm = eta_w0(mat_inv(m))
            p, q, r = xm[0][1], xm[0][2], xm[1][2]
            if word == "121":
                if not (r.nonzero and q.nonzero):
                    continue
                t3 = q * r.inv()
                ts = (p - t3, r, t3)
            else:
                if not (p.nonzero and q.nonzero):
                    continue
                t1 = q * p.inv()
                ts = (t1, p, r - t1)
            if not all(t.nonzero for t in ts):
                continue
            if point_from_y(word, ts) == x:
                return ts
        except (GaussFailure, PrecisionLoss, DivisionByZero, SingularMatrix):
            continue
    raise RetryExhausted(f"no y_{word} parameters found in {retries} attempts")


# ---------------------------------------------------------------------------
# exhaustive enumeration (the master oracle)
# ---------------------------------------------------------------------------

def _entry_windows(f: GTFamily, d: Coweight):
    """Exact exponent windows for the below-diagonal entries at diagonal d."""
    M = f.support
    nu = f.nu
    w21 = (max(d[0] + d[1] - M[0], nu - M[4]), d[1])
    w32 = (max(d[1] + d[2] - M[1], nu - M[3]), d[2])
    w31 = (nu - M[3], d[2])
    return w21, w31, w32


def _window_entries(q: int, windows: Iterable[Tuple[int, int]]):
    """Per (lo, hi) window, every polynomial over F_q with exponents in [lo, hi)."""
    return [[_entry(lo, cs) for cs in itertools.product(range(q), repeat=max(0, hi - lo))]
            for lo, hi in windows]


def _iter_entries(f: GTFamily, q: int, budget: int = 5_000_000):
    """Yield (d, e21, e31, e32, profile) for every F_q-point of the truncation
    of f: the candidates of the entry windows whose D-profile passes."""
    windows = [(d, _entry_windows(f, d)) for d in f.lattice_points()]
    if sum(q ** sum(max(0, hi - lo) for lo, hi in ws) for _d, ws in windows) > budget:
        raise BudgetExceeded(f"enumeration needs > {budget} candidates")
    floor = [-m for m in f.support]
    for d, ws in windows:
        for e21, e31, e32 in itertools.product(*_window_entries(q, ws)):
            prof = _profile(d, e21, e31, e32, q)
            if all(v >= m for v, m in zip(prof, floor)):
                yield d, e21, e31, e32, prof


def iter_points(f: GTFamily, field: PrimeField, budget: int = 5_000_000):
    """Stream the F_q-points of the truncated affine Grassmannian of f.

    Entries are exact polynomials, so the field's precision is never read.
    """
    for d, e21, e31, e32, _prof in _iter_entries(f, field.p, budget):
        yield GrassPoint(field, d, (e21, e31, e32))


def enumerate_points(f: GTFamily, field: PrimeField,
                     budget: int = 5_000_000) -> List[GrassPoint]:
    """All F_q-points of the truncated affine Grassmannian of f, sorted."""
    return sorted(iter_points(f, field, budget), key=lambda x: (x.d, x.entries))


def sample_point(f: GTFamily, field: PrimeField, rng: random.Random,
                 retries: int = 2000) -> GrassPoint:
    """Uniformish random F_q-point of the truncation (rejection from windows)."""
    verts = f.lattice_points()
    for _ in range(retries):
        d = rng.choice(verts)
        x = GrassPoint(field, d, tuple(
            _entry(lo, [rng.randrange(field.p) for _ in range(max(0, hi - lo))])
            for lo, hi in _entry_windows(f, d)))
        if member(x, f):
            return x
    raise RetryExhausted("rejection sampling failed")


def translate_point(x: GrassPoint, chi: Coweight) -> GrassPoint:
    return canonicalize_point(mat_mul(mat_diag_eps(x.field, chi), x.h))


def curve_point(field: PrimeField, a: Root, k: int, v: Coweight) -> GrassPoint:
    """A nonfixed point of the 1-dimensional orbit joining v and v - k.coroot(a)."""
    n = pairing(v, (a[0],)) - pairing(v, (a[1],)) - k
    g = mat_mul(root_elem(field, a, eps(field, n)), mat_diag_eps(field, v))
    return canonicalize_point(g)

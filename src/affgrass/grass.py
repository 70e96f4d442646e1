"""Points of the affine Grassmannian for GL(3).

A coset gK is stored by its canonical representative: lower triangular with
diagonal eps^{d_j} and each below-diagonal entry a Laurent polynomial with all
exponents < d_row.  Everything downstream (D-profiles, membership, point
enumeration) is exact integer arithmetic on these forms.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import (BudgetExceeded, DivisionByZero, GaussFailure,
                     PreconditionViolated, PrecisionLoss, RetryExhausted,
                     SingularMatrix)
from .hermite import _adjugate, hermite_entries
from .laurent import (INF, ONE_ENTRY, ZERO_ENTRY, Entry, LaurentSeries, PrimeField, _add,
                      _entry, _mul, _val_diff, eps, one, zero)
from .rootdata import GTFamily, Coweight, family_from_support

Matrix = Tuple[Tuple[LaurentSeries, ...], ...]


# ---------------------------------------------------------------------------
# matrix plumbing
# ---------------------------------------------------------------------------

def mat(rows: Sequence[Sequence[LaurentSeries]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_diag_eps(field: PrimeField, d: Coweight) -> Matrix:
    z = zero(field)
    return tuple(tuple(eps(field, d[i]) if i == j else z for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

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


def canonicalize_point(g: Matrix) -> GrassPoint:
    """The coset gK of a 3x3 LaurentSeries matrix, by the integer Hermite
    kernel on the known terms g~ of its entries.

    An entry known only below prec_kj leaves an error delta_kj of valuation
    >= prec_kj, and the coset is fixed once every X = g~^-1 delta lies in
    M3(O) with X mod eps nilpotent, for then 1 + X lies in K.  With
    g~^-1 = adj(g~) / det(g~), val det(g~) = sum(d) and
    m_ij = min_k (val g~^-1_ik + prec_kj), that is every m_ij >= 0 and no
    cycle, self-loops included, among the (i, j) with m_ij = 0; otherwise
    ``PrecisionLoss``.  A singular g~ raises ``SingularMatrix`` when every
    completion of g is singular too, else ``PrecisionLoss``.
    """
    field = g[0][0].field
    if any(e.field != field for row in g for e in row):
        raise ValueError("mixed prime fields")
    p = field.p
    cut = [[(e.lead, e.coeffs) for e in row] for row in g]
    prec = [[e._prec_inf() for e in row] for row in g]
    try:
        d, entries = hermite_entries(cut, p)
    except SingularMatrix:
        free = [(k, j) for k in range(3) for j in range(3) if prec[k][j] < INF]
        if _completions_singular(cut, free, _adjugate(cut, p)):
            raise
        raise PrecisionLoss("the known terms are singular, a completion need not be") from None
    adj = _adjugate(cut, p)
    m = [[min(adj[i][k][0] - sum(d) + prec[k][j] if adj[i][k][1] else INF for k in range(3))
          for j in range(3)] for i in range(3)]
    zeros = [(i, j) for i in range(3) for j in range(3) if m[i][j] == 0]
    if min(map(min, m)) < 0 or not any(all(o.index(i) < o.index(j) for i, j in zeros)
                                       for o in itertools.permutations(range(3))):
        raise PrecisionLoss("the truncated entries do not determine the coset")
    return GrassPoint(field, d, entries)


def _completions_singular(cut, free, adj) -> bool:
    """Whether det(cut + sum t_kj E_kj), over indeterminates t_kj at the free
    positions, vanishes, cut being singular.  Its coefficients are the minors
    left by free positions in distinct rows and columns: the cofactor at one,
    the entry left by two, and 1 for three."""
    for n in (1, 2, 3):
        for ps in itertools.combinations(free, n):
            ks, js = zip(*ps)
            if len(set(ks)) < n or len(set(js)) < n:
                continue
            if n == 3 or (adj[js[0]][ks[0]] if n == 1 else cut[3 - sum(ks)][3 - sum(js)])[1]:
                return False
    return True


# ---------------------------------------------------------------------------
# D-profiles, Ec, membership
# ---------------------------------------------------------------------------

def dprofile(x: GrassPoint) -> Tuple[int, ...]:
    """Closed-form D-profile of a canonical representative."""
    return _profile(x.d, *x.entries, x.field.p)


def _pair_profile(d: Coweight, e21, e32) -> Tuple[int, ...]:
    """The D-profile of the points over (d, e21, e32) without its two e31
    terms: with a = h21 eps^-d1 and b = h32 eps^-d2 it is made of leads."""
    d1, d2, d3 = d
    va = e21[0] - d1 if e21[1] else INF
    vb = e32[0] - d2 if e32[1] else INF
    return (min(-d1, va - d2), min(-d2, vb - d3), -d3,
            min(-d1 - d2, vb - d1 - d3), min(-d1 - d3, va - d2 - d3), -d2 - d3)


def _profile(d: Coweight, e21, e31, e32, p: int,
             P=None, pair=None) -> Tuple[int, ...]:
    """The D-profile of the point with diagonal eps^d and lower entries e21,
    e31, e32: the pair profile lowered at D0 by val(e31 - P) - d1 - d3, with
    P = e21 e32 eps^-d2, and at D3 by val(e31) - nu.  P is formed, unless the
    caller has it, only when the leads of e31 and P meet."""
    d1, d2, d3 = d
    pair = pair or _pair_profile(d, e21, e32)
    v31 = e31[0] if e31[1] else INF
    vP = e21[0] + e32[0] - d2 if e21[1] and e32[1] else INF
    if v31 == vP != INF:
        v31_P = _val_diff(P or (vP, _mul(e21, e32, p)[1]), e31)
    else:
        v31_P = min(v31, vP)
    return (min(pair[0], v31_P - d1 - d3), pair[1], pair[2],
            min(pair[3], v31 - d1 - d2 - d3), pair[4], pair[5])


def ec(x: GrassPoint) -> GTFamily:
    return family_from_support([-v for v in dprofile(x)], x.nu)


def member(x: GrassPoint, f: GTFamily) -> bool:
    return x.nu == f.nu and all(dv >= -m for dv, m in zip(dprofile(x), f.support))


# ---------------------------------------------------------------------------
# the BFZ parametrization in closed form
# ---------------------------------------------------------------------------

def y_inverse(word: str, ts: Sequence[LaurentSeries]) -> Matrix:
    """y_word(t)^-1, the upper unitriangular matrix of the BFZ map.

    For 121 its entries above the diagonal are -1/t1, 1/(t1 t2) and
    -(t1+t3)/(t2 t3); for 212 they are -(t1+t3)/(t2 t3), 1/(t2 t3) and -1/t1.
    """
    if word not in ("121", "212"):
        raise PreconditionViolated(f"reduced word must be 121 or 212, got {word!r}")
    if not all(t.nonzero for t in ts):
        raise GaussFailure("a parameter vanishes up to precision; y_word(t) is undefined")
    t1, t2, t3 = ts
    u = (t2 * t3).inv()
    a, c = -t1.inv(), -((t1 + t3) * u)
    o, z = one(t1.field), zero(t1.field)
    if word == "121":
        return ((o, a, (t1 * t2).inv()), (z, o, c), (z, z, o))
    return ((o, c, u), (z, o, a), (z, z, o))


def transition(word: str, ts: Sequence[LaurentSeries]) -> Tuple[LaurentSeries, ...]:
    """t' with y_word(t) = y_word'(t'), word' the other word: the same 3-move both ways."""
    if word not in ("121", "212"):
        raise PreconditionViolated(f"reduced word must be 121 or 212, got {word!r}")
    t1, t2, t3 = ts
    s = t1 + t3
    if not s.nonzero:
        raise DivisionByZero("t1 + t3 vanishes; the transition is undefined here")
    sinv = s.inv()
    return (t2 * t3 * sinv, s, t1 * t2 * sinv)


def _cut_parameters(ts: Sequence[LaurentSeries]) -> List[LaurentSeries]:
    """BFZ parameters cut to relative precision sum |val t_i| + 2, exact ones too:
    they keep the valuations of ``transition`` and give each entry of
    ``point_from_y`` to its B_k wherever the whole ones do, from short series."""
    rel = sum(abs(t.lead) for t in ts if t.nonzero) + 2
    return [LaurentSeries(t.field, t.lead, t.coeffs, min(t._prec_inf(), t.lead + rel))
            if t.nonzero else t for t in ts]


def point_from_y(word: str, ts: Sequence[LaurentSeries]) -> GrassPoint:
    """The coset [g], g = y_word(t)^-1, by the integer Hermite kernel.

    g is upper unitriangular and its inverse y = y_word(t) explicit, so a
    strictly upper error delta leaves gK unchanged once y delta, also strictly
    upper, is integral: row k of g is read only below
    B_k = -min_{i<=k} val(y_ik), that is B_0 = 0 and B_1 = max(0, -val g01)
    (y01 = -g01, its valuation bounded below by effval).  Each row is cut
    there, and a truncated entry that stops short raises ``PrecisionLoss``.
    """
    ts = _cut_parameters(ts)
    g = y_inverse(word, ts)
    tops = (0, max(0, -g[0][1].effval()))
    rows = [[ONE_ENTRY if r == c else ZERO_ENTRY for c in range(3)] for r in range(3)]
    for r, c in ((0, 1), (0, 2), (1, 2)):
        e = g[r][c].as_exact_below(tops[r])
        rows[r][c] = (e.lead, e.coeffs)
    d, entries = hermite_entries(rows, ts[0].field.p)
    return GrassPoint(ts[0].field, d, entries)


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


def _candidates(windows: Iterable[Sequence[Tuple[int, int]]], q: int) -> int:
    """The candidates over F_q of each tuple of (lo, hi) windows, summed."""
    return sum(q ** sum(max(0, hi - lo) for lo, hi in ws) for ws in windows)


_BUDGET = 5_000_000  # candidates one listing or count may meet


class _Tails(dict):
    """Every coefficient list over F_q of length n at key n, built when first
    asked: the free e31 tails of the pairs of ``_iter_pairs``."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, n: int):
        self[n] = tails = list(itertools.product(range(self.q), repeat=n))
        return tails


def _iter_pairs(f: GTFamily, q: int, budget: int = _BUDGET, gamma=None, diagonal=None,
                whole: bool = True):
    """Yield (d, e21, e32, P, pair, radius, lo, head, hi) for each diagonal d
    of the truncation of f and each (e21, e32) of the windows whose e31 ball
    meets the e31 window [lo, hi): the e31 of those points are the fixed
    ``head``, coefficients from lo, followed by every coefficient list on
    [lo + len(head), hi) (``_Tails``); ``pair`` is ``_pair_profile``, its
    e21 half (D0, D4) formed once per e21 and its e32 half (D1, D3) per e32.

    The windows give every part of the profile floor but the val(e31 - P)
    term of D0, which for fixed (d, e21, e32) is a ball of e31:
    val(e31 - P) >= r0 = d1 + d3 - M0, with P = e21 e32 eps^-d2 the uncut
    centre.  With a ``springer.RegularDiagonal`` gamma, the t21 and t32 tests
    of ``gamma.admits`` raise the low ends of the e21 and e32 windows, and its
    t31 test is a second ball (``gamma.t31_ball``), val(e31 - C) >= r2 =
    d3 - c13 with C = P r12 / r13.  As P - C = P (g2 - g3) / (g1 - g3), they
    meet exactly when val(P) + c23 - c13 >= min(r0, r2), or P = 0; ``radius``
    is the larger radius, and the t31 ball is asked for only when it is r2
    (None, for a truncated gamma, drops the pair): else val(P - C) >= r2 puts
    the D0 ball in every completion's.  ``diagonal``, a predicate on d, skips
    the other diagonals.  The budget counts the candidates of the whole
    windows, or with ``whole`` false only their (e21, e32) candidates, the
    pairs walked.
    """
    windows = [(d, _entry_windows(f, d)) for d in f.lattice_points()]
    if _candidates((ws if whole else ws[::2] for _d, ws in windows), q) > budget:
        raise BudgetExceeded(f"enumeration needs > {budget} candidates" if whole
                             else f"counting needs > {budget} (e21, e32) candidates")
    for d, (w21, (lo, hi), w32) in windows:
        if diagonal is not None and not diagonal(d):
            continue
        d1, d2, d3 = d
        r0 = rad = d1 + d3 - f.support[0]
        reach = -INF  # the least val(P) at which the two balls meet
        if gamma is not None:
            c12, c23, c13 = gamma.c
            w21, w32 = (max(w21[0], d2 - c12), d2), (max(w32[0], d3 - c23), d3)
            reach, rad = min(r0, d3 - c13) + c13 - c23, max(r0, d3 - c13)
        e21s, e32s = _window_entries(q, (w21, w32))
        halves = [(e32, _pair_profile(d, ZERO_ENTRY, e32)) for e32 in e32s]
        for e21 in e21s:
            a = _pair_profile(d, e21, ZERO_ENTRY)
            for e32, b in halves:
                vP = e21[0] + e32[0] - d2 if e21[1] and e32[1] else INF
                if vP < reach:
                    continue
                prod = _mul(e21, e32, q) if vP < INF else ZERO_ENTRY
                P = (prod[0] - d2, prod[1])
                ball = gamma.t31_ball(d, prod) if rad > r0 else (P, r0)
                if ball is None:
                    continue
                centre = _below(*ball)
                if centre[1] and (centre[0] < lo or centre[0] + len(centre[1]) > hi):
                    continue
                s = min(max(rad, lo), hi)  # e31 is free from this exponent up
                head = [0] * (s - lo)
                head[centre[0] - lo:centre[0] - lo + len(centre[1])] = centre[1]
                yield d, e21, e32, P, (a[0], b[1], a[2], b[3], a[4], a[5]), rad, lo, head, hi


def _ec_supports(f: GTFamily, q: int, gamma=None) -> Counter:
    """The Ec supports, negated D-profiles, of the F_q-points of the truncation
    of f, or of its Springer points with gamma, counted by e31 class, not point
    by point.  With gamma the pairs counted are those whose D0 and t31 balls
    meet, val(P) + c23 - c13 >= min(r0, r2).

    A pair's e31 are its head on [lo, s) and every tail on [s, hi); their
    profiles differ only in D0 = min(pair[0], val(e31 - P) - d1 - d3) and
    D3 = min(pair[3], val(e31) - nu), with val(e31) = min(b0, u) and
    val(e31 - P) = min(bP, w): b0 is the head's first term, bP the first
    exponent below s where P differs from the head, and u, w are where
    the tail first differs from 0 and from P.  With kp the first term of P in
    [s, hi), (u, w) is (r, r) for (q-1) q^(hi-r-1) tails, s <= r < kp; then
    (kp, kp) for (q-2) q^(hi-kp-1); (r, kp) and (kp, r) for (q-1) q^(hi-r-1)
    each, kp < r < hi; (inf, kp) and (kp, inf) once; or (inf, inf) once when
    there is no kp.  The budget counts the (e21, e32) candidates of the
    windows, and no tail is built.
    """
    nu = f.nu
    by_profile = Counter()
    for d, _e21, _e32, P, (p0, p1, p2, p3, p4, p5), _r, lo, head, hi in _iter_pairs(
            f, q, gamma=gamma, whole=False):
        s = lo + len(head)
        t0 = d[0] + d[2]
        fixed = _entry(lo, head)
        # D0 = min(a0, w) - t0 and D3 = min(a3, u) - nu, with bP and b0 in the caps
        a0, a3, kp = p0 + t0, min(p3 + nu, fixed[0] if fixed[1] else INF), INF
        dl, dc = _add(P, fixed, q, -1)  # P less the fixed part: P itself on [s, hi)
        # P = e21 e32 eps^-d2 stops at d3 - 2 < hi, so its first term from s is kp
        for k, c in enumerate(dc, dl):
            if c:
                if k >= s:
                    kp = k
                    break
                a0 = min(a0, k)
        for r in range(s, min(kp, hi)):
            by_profile[min(a0, r) - t0, p1, p2, min(a3, r) - nu, p4, p5] += \
                (q - 1) * q ** (hi - r - 1)
        if kp == INF:
            by_profile[a0 - t0, p1, p2, a3 - nu, p4, p5] += 1
            continue
        at0, at3 = min(a0, kp) - t0, min(a3, kp) - nu
        if q > 2:
            by_profile[at0, p1, p2, at3, p4, p5] += (q - 2) * q ** (hi - kp - 1)
        for r in range(kp + 1, hi):
            n = (q - 1) * q ** (hi - r - 1)
            by_profile[at0, p1, p2, min(a3, r) - nu, p4, p5] += n
            by_profile[min(a0, r) - t0, p1, p2, at3, p4, p5] += n
        by_profile[at0, p1, p2, a3 - nu, p4, p5] += 1
        by_profile[a0 - t0, p1, p2, at3, p4, p5] += 1
    return Counter({tuple(-v for v in prof): n for prof, n in by_profile.items()})


def _below(e: Entry, r) -> Entry:
    """The terms of e with exponent below r."""
    return _entry(e[0], e[1][:max(0, r - e[0])])


def iter_points(f: GTFamily, field: PrimeField, budget: int = _BUDGET):
    """Stream the F_q-points of the truncated affine Grassmannian of f.

    Entries are exact polynomials, so the field's precision is never read.
    """
    tails = _Tails(field.p)
    for d, e21, e32, _P, _pair, _r, lo, head, hi in _iter_pairs(f, field.p, budget):
        for t in tails[hi - lo - len(head)]:
            yield GrassPoint(field, d, (e21, _entry(lo, (*head, *t)), e32))


def enumerate_points(f: GTFamily, field: PrimeField,
                     budget: int = _BUDGET) -> List[GrassPoint]:
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


"""Affine Springer fibers for regular diagonal elements of gl(3, O).

Membership (t31 by the ball ``t31_ball``: the pair's product e21 e32 times
rho = r12 / (r13 eps^-c13), which each gamma expands once), dimension, the
fundamental-domain truncation, the affine-cell criterion from one row per
chamber, its brute-force oracle on the Springer-point counter
``grass._ec_supports``, which counts the points by e31 class, and the
pavings of the crystal-truncated fibers with the boundary vertex orders.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .errors import (NormalPositionRequired, PatternMismatch,
                     PavingVerificationFailed, PrecisionLoss)
from .grass import GrassPoint, _below, _ec_supports
from .laurent import (INF, ZERO_ENTRY, LaurentSeries, PrimeField, _inv, _mul, random_with_val,
                      val, zero)
from .mvcomb import LusztigDatum, MVPolytope, apply_crystal_word, is_alternating, mv_edges, ZERO
from .paving import _CORNER_FACETS, PavingPlan, _fields, _pave, _verify_steps, is_normal_position
from .rootdata import (BORELS, CHAMBERS, W0, Coweight, GTFamily, Perm, iota_family, pairing,
                       perm_inv, perm_mul)

Pattern = Tuple[int, int, int]  # (c12, c23, c13)


def ultrametric(c: Pattern) -> bool:
    """The three pairwise valuations must attain their minimum at least twice."""
    m = min(c)
    return all(x >= 0 for x in c) and sum(1 for x in c if x == m) >= 2


def pattern_realizable(c: Pattern, p: int) -> bool:
    """Over F_2 the minimum cannot be attained three times (units are 1)."""
    return ultrametric(c) and not (p == 2 and list(c).count(min(c)) == 3)


@dataclass(frozen=True)
class RegularDiagonal:
    """A regular gamma in t(O) with its root-valuation triple."""

    gamma: Tuple[LaurentSeries, LaurentSeries, LaurentSeries]
    c: Pattern

    @classmethod
    def from_series(cls, gamma: Sequence[LaurentSeries]) -> "RegularDiagonal":
        c = []
        for i, j in ((1, 2), (2, 3), (1, 3)):
            r = gamma[i - 1] - gamma[j - 1]
            if not (r.nonzero or r.is_exact_zero):
                raise PrecisionLoss(f"root valuation c{i}{j} = val(g{i} - g{j}) is unknown: "
                                    f"g{i} - g{j} vanishes modulo eps^{r.prec}")
            c.append(val(r))
        c = tuple(c)
        if any(isinstance(x, float) for x in c):
            raise PatternMismatch("gamma is not regular: two eigenvalues coincide")
        if any(x < 0 for x in c):
            raise PatternMismatch(f"gamma has root valuations {c}, not all >= 0")
        if not ultrametric(c):
            raise PatternMismatch(f"root valuations {c} break the ultrametric inequality")
        return cls(tuple(gamma), c)

    @property
    def field(self) -> PrimeField:
        return self.gamma[0].field

    @cached_property
    def _roots(self):
        """g1 - g2 and g1 - g3 as ((lead, coeffs), absolute precision)."""
        g1, g2, g3 = self.gamma
        return tuple(((r.lead, r.coeffs), INF if r.prec is None else r.prec)
                     for r in (g1 - g2, g1 - g3))

    def admits(self, d: Coweight, e21, e31, e32) -> bool:
        """Ad(h)^-1 gamma integral for the point h = L eps^d with lower entries
        e21, e31, e32 (a, b, c as in ``grass._profile``).  L^-1 gamma L has
        t21 = a (g2 - g1), t32 = b (g3 - g2), t31 = ab (g1 - g2) - c (g1 - g3):
        the first two reduce to va + c12 >= d2 - d1 and vb + c23 >= d3 - d2,
        and t31 scaled by eps^(d1+d2) must vanish below d2 + d3 (``t31_ball``)."""
        d1, d2, d3 = d
        c12, c23, c13 = self.c
        if e21[1] and e21[0] + c12 < d2 or e32[1] and e32[0] + c23 < d3:
            return False
        top = d2 + d3
        x = e21[0] + e32[0] + c12 if e21[1] and e32[1] else INF
        y = e31[0] + d2 + c13 if e31[1] else INF
        if min(x, y) >= top:
            return True
        if x != y:  # unequal leads cannot cancel
            return False
        ball = self.t31_ball(d, _mul(e21, e32, self.field.p))
        return ball is not None and _below(e31, ball[1]) == _below(*ball)

    @cached_property
    def _rho(self) -> list:
        """The coefficients of rho = r12 / (r13 eps^-c13) from its lead c12, as
        many as ``t31_ball`` has asked for so far."""
        return []

    def t31_ball(self, d: Coweight, prod, centre: bool = True):
        """The e31 whose t31 term vanishes below top with e21 and e32 of
        product ``prod``, as a ball (centre, radius), or None when there are
        none.  It is val(e31 - prod rho eps^-(d2+c13)) >= d3 - c13 with
        rho = r12 / (r13 eps^-c13), the centre known below the radius: rho is
        read to top - x terms, expanded once per gamma to the longest length
        asked.  A truncated gamma must know r12 and r13 that far, a test on
        prod alone, or no e31 is known to pass.  Its centre C = P r12 / r13,
        P = prod eps^-d2, is P (g2 - g3) / (g1 - g3) off the D0 centre P, so
        ``grass._iter_pairs`` meets the balls by val(P) + c23 - c13 and asks for
        C (``centre`` true, else it is None) only when it lists this ball."""
        _d1, d2, d3 = d
        c12, _c23, c13 = self.c
        top = d2 + d3
        x = prod[0] + c12 if prod[1] else INF
        if x >= top:
            return ZERO_ENTRY, d3 - c13
        (r12, s12), (r13, s13) = self._roots
        if min(s12 - c12, s13 - c13) < top - x:
            return None
        if not centre:
            return None, d3 - c13
        p, rho = self.field.p, self._rho
        if len(rho) < top - x:
            rho[:] = _mul(r12, (0, _inv(r13[1], top - x, p)), p, c12 + top - x)[1]
        lead, cs = _mul(prod, (c12, rho), p, top)
        return (lead - d2 - c13, cs), d3 - c13


def synthesize_gamma(c: Pattern, field: PrimeField, rng: random.Random) -> RegularDiagonal:
    """A random exact gamma in t(O) with the prescribed root valuations."""
    if not pattern_realizable(c, field.p):
        raise PatternMismatch(f"valuation pattern {c} has no diagonal over F_{field.p}")
    c12, c23, c13 = c
    a = random_with_val(field, c12, rng, exact=True)
    if c12 != c23:
        # val(a+b) = min(c12, c23), which is c13 for a realizable pattern
        b = random_with_val(field, c23, rng, exact=True)
    elif c13 > c12:
        b = (-a) + random_with_val(field, c13, rng, exact=True)
    else:
        while True:
            b = random_with_val(field, c23, rng, exact=True)
            if (a + b).nonzero and (a + b).lead == c13:
                break
    g = (a, zero(field), -b)
    out = RegularDiagonal.from_series(g)
    if out.c != tuple(c):
        raise PatternMismatch(f"synthesized gamma has root valuations {out.c}, not {c}")
    return out


def springer_dim(gamma: RegularDiagonal) -> int:
    """Half the valuation of det(ad gamma) on gl3/t: the sum of root valuations."""
    return sum(gamma.c)


def member_springer(x: GrassPoint, gamma: RegularDiagonal) -> bool:
    """Ad(g)^-1 gamma integral, tested on the canonical representative."""
    return gamma.admits(x.d, *x.entries)


def fundamental_domain(gamma: RegularDiagonal) -> GTFamily:
    """The truncation by P^(121)(n1, n2, n2) for the pattern c12=n1, c23=c13=n2."""
    c12, c23, c13 = gamma.c
    if c23 != c13 or c12 < c23:
        raise PatternMismatch(
            f"root valuations {gamma.c} are not of the shape (n1, n2, n2), n1 >= n2")
    return MVPolytope.from_datum(LusztigDatum("121", (c12, c23, c23))).family


# ---------------------------------------------------------------------------
# the affine-cell criterion
# ---------------------------------------------------------------------------

# the Springer slice of C_b, a row per chamber b in BORELS order: from n and c, the
# caps on (l12, l23, l13), l_ij = min(c_ij, cap), and the largest affine l12 + l23 + l13
_SLICE_ROWS = (
    lambda n1, n2, n3, c12, c23, c13: ((n1, n2, n2 + n3), n2 + n3 + c12),
    lambda n1, n2, n3, c12, c23, c13: ((n1 + n2, n2, n3), n1 + n2 + c23),
    lambda n1, n2, n3, c12, c23, c13: ((n1 + n2 - n3, n2 + n3, n3), n2 + n3 + c12),
    lambda n1, n2, n3, c12, c23, c13: ((n1 + n2 - n3, n3, n2 + n3), n2 + n3 + c12),
    lambda n1, n2, n3, c12, c23, c13: ((n1 + n2, n3, n2), n1 + n2 + c13),
    lambda n1, n2, n3, c12, c23, c13: ((n1, n2 + n3, n2), n2 + n3 + c12),
)


def criterion_l_values(n: Tuple[int, int, int], b: int, c: Pattern):
    """Orbit counts (l12, l23, l13) in the chamber-b contracting cell."""
    return tuple(map(min, _SLICE_ROWS[b](*n, *c)[0], c))


def criterion_bound(n: Tuple[int, int, int], b: int, c: Pattern) -> int:
    """The largest l12 + l23 + l13 for which the chamber-b slice is affine."""
    return _SLICE_ROWS[b](*n, *c)[1]


def _slice_verdict(n: Tuple[int, int, int], b: int, c: Pattern) -> Tuple[int, bool]:
    """(dimension, affine?) of the chamber-b Springer slice."""
    dim = sum(criterion_l_values(n, b, c))
    return dim, dim <= criterion_bound(n, b, c)


def _normal_n(P: MVPolytope) -> Tuple[int, int, int]:
    """P's 121 datum, which must be in normal position."""
    if not is_normal_position(P.datum121):
        raise NormalPositionRequired(f"datum {P.datum121.n} needs n1 >= n3 >= n2")
    return P.datum121.n


def criterion(P: MVPolytope, b: int, gamma: RegularDiagonal) -> bool:
    """Whether the Springer slice of the chamber-b contracting cell is affine,
    read off P's datum: a normal-position P is its own normal form."""
    return _slice_verdict(_normal_n(P), b, gamma.c)[1]


def criterion_raw_case1(n: Tuple[int, int, int], c: Pattern) -> bool:
    """The congruence-analysis form of the chamber-0 condition."""
    n1, n2, n3 = n
    c12, c23, c13 = c
    return (max(0, n1 - c12) + max(0, n2 - c23) + c12
            >= min(n1 + n2, n1 - n3 + c13))


def criterion_oracle(P: MVPolytope, gamma: RegularDiagonal) -> Tuple[bool, ...]:
    """Brute force, per chamber b in BORELS order: whether the cell C_b, the
    points of the truncation whose Ec has P's vertex b, has q^(l12+l23+l13)
    Springer F_q-points, q = gamma.field.p.  One count by Ec support serves
    all six: a support has P's vertex b exactly when it equals P's support at
    the two chambers ``paving._CORNER_FACETS[b]``."""
    n, q, M0, cells = _normal_n(P), gamma.field.p, P.family.support, [0] * 6
    for M, k in _ec_supports(P.family, q, gamma).items():
        for b, (i, j) in enumerate(_CORNER_FACETS):
            cells[b] += k if M[i] == M0[i] and M[j] == M0[j] else 0
    return tuple(cells[b] == q ** sum(criterion_l_values(n, b, gamma.c)) for b in range(6))


# ---------------------------------------------------------------------------
# cells of arbitrary generalized MV polytopes, with gamma transported
# ---------------------------------------------------------------------------

def _normalize_gmv(f: GTFamily):
    """(delta, w, d): f is iota^delta (w . h), h normal-position MV with datum d."""
    for delta in (0, 1):
        g0 = iota_family(f) if delta else f
        for w in BORELS:
            k = mv_edges(g0, w)
            if k is not None and k[5] >= k[3] >= k[4]:
                return delta, w, LusztigDatum("121", (k[5], k[4], k[3]))
    raise NormalPositionRequired(f"{f.vertices} has no normal-position presentation")


def springer_cell_data(f: GTFamily, b: int, gamma: RegularDiagonal):
    """(dimension, affine?) for the Springer slice of C_b of a generalized MV family."""
    delta, w, d = _normalize_gmv(f)
    bb = BORELS.index(perm_mul(BORELS[b], W0)) if delta else b
    bb = BORELS.index(perm_mul(perm_inv(w), BORELS[bb]))
    return _slice_verdict(d.n, bb, _transport_pattern(gamma.c, w))


def _transport_pattern(c: Pattern, w: Perm) -> Pattern:
    """Root valuations of Ad(w)^-1 gamma: c'_{ij} = c_{w(i) w(j)}."""
    pairs = ((1, 2), (2, 3), (1, 3))
    by_pair = dict(zip(pairs, c))
    return tuple(by_pair[tuple(sorted((w[i - 1], w[j - 1])))] for i, j in pairs)


# ---------------------------------------------------------------------------
# truncated pavings (boundary orders of the two figures)
# ---------------------------------------------------------------------------

def _cap_order(big: GTFamily, small: GTFamily) -> List[Coweight]:
    """Order on the fixed points stripped between two nested truncations.

    One receding facet: its lattice points from both ends inward, the w0-side
    corner first.  Two receding facets: their common corner first, then pairs
    walking each facet from the far end and the corner end alternately.
    """
    Mb, Ms = big.support, small.support
    moved = [ci for ci in range(6) if Ms[ci] < Mb[ci]]
    if not all(s <= b for s, b in zip(Ms, Mb)):
        raise PavingVerificationFailed("truncation chain is not nested")
    cap = [v for v in big.lattice_points() if not small.contains_point(v)]
    if not moved or len(moved) > 2:
        raise PavingVerificationFailed(
            f"{len(moved)} facets recede in one crystal step; expected 1 or 2")
    on_facet = {ci: sorted(v for v in cap if pairing(v, CHAMBERS[ci]) == Mb[ci])
                for ci in moved}
    for v in cap:
        if not any(v in pts for pts in on_facet.values()):
            raise PavingVerificationFailed(f"stripped vertex {v} lies on no receding facet")
    if len(moved) == 1:
        pts = on_facet[moved[0]]
        # start from the w0-side end when the w0 vertex is one of the two ends
        if pts and pts[-1] == big.vertex(3) and pts[0] != big.vertex(3):
            pts = pts[::-1]
        return _ends_inward(pts)
    ca, cb = moved
    corner = [v for v in cap if pairing(v, CHAMBERS[ca]) == Mb[ca]
              and pairing(v, CHAMBERS[cb]) == Mb[cb]]
    if len(corner) != 1:
        raise PavingVerificationFailed(f"receding facets share {len(corner)} cap corners")
    v0 = corner[0]
    seq_a, seq_b = (_ends_inward(sorted(sorted(set(on_facet[ci]) - {v0}), reverse=True,
                                        key=lambda v: max(abs(a - b) for a, b in zip(v, v0))))
                    for ci in (ca, cb))
    return [v0] + [v for pair in itertools.zip_longest(seq_a, seq_b)
                   for v in pair if v is not None]


def _ends_inward(pts: List[Coweight]) -> List[Coweight]:
    """First, last, second, second to last, ... of pts."""
    return [pts[k // 2] if k % 2 == 0 else pts[-1 - k // 2] for k in range(len(pts))]


def _chain_words(j: Sequence[int], n2: int) -> List[Tuple[int, ...]]:
    """The word chain from j down to the alternating word of length 2*n2."""
    words = [tuple(j)]
    while len(words[-1]) < 2 * n2:
        w = words[-1]
        first = w[0] if w else 1
        words.append((3 - first,) + w)
    return words


def truncated_paving(gamma: RegularDiagonal, j: Sequence[int],
                     verify_qs: Optional[Sequence[int]] = None,
                     rng: Optional[random.Random] = None) -> PavingPlan:
    """Paving of the crystal-truncated Springer fiber, verified by point counts."""
    j = tuple(j)
    if not is_alternating(j):
        raise ValueError(f"{j} is not an alternating 1/2 sequence")
    domain = fundamental_domain(gamma)
    n2 = gamma.c[1]
    P0 = MVPolytope.from_family(domain)
    if len(j) > 2 * n2:
        return PavingPlan("springer", domain, (), {"per_q": [], "ok": True, "empty": True})
    chain = _chain_words(j, n2)
    polys = []
    for w in chain:
        Q = apply_crystal_word(w, P0)
        if Q is ZERO:
            raise PavingVerificationFailed(f"crystal word {w} kills the fundamental domain")
        polys.append(Q.family)
    forced: List[Coweight] = []
    for big, small in zip(polys, polys[1:]):
        forced.extend(_cap_order(big, small))

    steps = _pave(polys[0], lambda fam, b: springer_cell_data(fam, b, gamma), forced=forced,
                  springer_c=gamma.c)
    if verify_qs is None:
        verify_qs = tuple(q for q in (2, 3, 5) if pattern_realizable(gamma.c, q))[:2]
    checks = [(field, synthesize_gamma(gamma.c, field, rng or random.Random(0)))
              for field in _fields(verify_qs)]
    verified = _verify_steps(steps, polys[0], checks)
    return PavingPlan("springer", polys[0], tuple(steps), verified)

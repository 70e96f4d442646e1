"""Affine pavings of truncated affine Grassmannians.

Two constructions: the Iwahori paving of a Schubert variety restricted to an
MV polytope in normal position, and the greedy scheme that repeatedly removes
a contracting cell at a minimum-weight vertex and re-covers the complement by
the maximal generalized MV polytopes avoiding it.  Every plan is verified by
finite-field point counts.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .errors import (NormalPositionRequired, PavingVerificationFailed,
                     PreconditionViolated, ShapeMismatch)
from .grass import GrassPoint, _Tails, _ec_supports, _iter_pairs, _window_entries
from .hermite import hermite_entries, unipotent_inverse
from .laurent import ONE_ENTRY, ZERO_ENTRY, PrimeField, _entry
from .moment import PoincarePoly, union_degree
from .mvcomb import LusztigDatum, MVPolytope, braid, vertices_of
from .rootdata import (BORELS, CHAMBER_INDEX, CHAMBERS, Coweight, GTFamily, contains,
                       edge_lengths, family_from_support, pairing, sub_cw, tighten_support)

# ---------------------------------------------------------------------------
# contracting cells (explicit coordinates, normal position n1 >= n3 >= n2)
# ---------------------------------------------------------------------------

# (inverted, ((row, col, lower-bound as fn of n), ...)) per Borel chamber
_CELL_SHAPES = {
    0: (True, ((1, 2, lambda n: 0), (1, 3, lambda n: n[0] - n[2]), (2, 3, lambda n: 0))),
    1: (False, ((1, 2, lambda n: 0), (1, 3, lambda n: n[0] - n[2]), (3, 2, lambda n: 0))),
    2: (False, ((1, 2, lambda n: 0), (3, 1, lambda n: n[2] - n[0]), (3, 2, lambda n: 0))),
    3: (False, ((2, 1, lambda n: 0), (3, 1, lambda n: 0), (3, 2, lambda n: n[2] - n[0]))),
    4: (False, ((2, 1, lambda n: 0), (2, 3, lambda n: n[0] - n[2]), (3, 1, lambda n: 0))),
    5: (True, ((1, 3, lambda n: 0), (2, 1, lambda n: 0), (2, 3, lambda n: n[0] - n[2]))),
}
# per Borel w, the chambers {w1} and {w1, w2}, whose support numbers fix the vertex of w
_CORNER_FACETS = tuple(tuple(CHAMBER_INDEX[frozenset(w[:k])] for k in (1, 2)) for w in BORELS)


@dataclass(frozen=True)
class ContractingCell:
    """C_B, the points of the truncation whose Ec has the polytope's vertex B, and
    its claimed explicit coordinates: unipotent entry windows over a diagonal."""

    polytope: MVPolytope
    borel: int
    dim: int
    diag: Coweight
    inverted: bool
    windows: Tuple[Tuple[int, int, int, int], ...]  # (row, col, lo, hi)

    def enumerate(self, field: PrimeField) -> Set[GrassPoint]:
        """The cell by its definition: the points of the truncation whose D-profile
        is -M_S on the facets S = {w1}, {w1, w2} that fix the vertex of Borel w,
        each facet tested as early as it allows on the pairs of ``_iter_pairs``.

        Facets 2 and 5 are -d3 and -(d2 + d3), and facets 1 and 4 those of the
        walker's pair profile.  The profile floor holds, so facet 3 is met by
        the pair profile or by a term of e31 at lo, and facet 0 by the pair
        profile or by val(e31 - P) = d1 + d3 - M0, the D0 radius r.  A fixed
        term at lo is the head's first; with an empty head, or with r = lo +
        len(head), the first free coefficient is at that exponent.  Each test
        fixes the pair's verdict or excludes one value of that coefficient.
        """
        f, facets, q = self.polytope.family, _CORNER_FACETS[self.borel], field.p
        M = f.support
        pts: Set[GrassPoint] = set()
        tails = _Tails(q)
        for d, e21, e32, P, pair, r, lo, head, hi in _iter_pairs(
                f, q, diagonal=lambda d: (2 not in facets or d[2] == M[2])
                and (5 not in facets or d[1] + d[2] == M[5])):
            free = hi > lo + len(head)  # whether e31 has a free coefficient
            pr = P[1][r - P[0]] if 0 <= r - P[0] < len(P[1]) else 0  # P's term at r
            cut = set()  # the values the first free coefficient may not take
            for k in facets:
                if pair[k] == -M[k]:
                    continue
                if k == 0 and free and r == lo + len(head):  # e31 - P needs a term at r
                    cut.add(pr)
                elif k == 3 and free and not head:  # e31 needs a term at lo
                    cut.add(0)
                elif not (k == 0 and pr or k == 3 and head and head[0]):
                    break
            else:
                pts.update(GrassPoint(field, d, (e21, _entry(lo, (*head, *t)), e32))
                           for t in tails[hi - lo - len(head)] if not (cut and t[0] in cut))
        return pts


def _cell_points(field: PrimeField, diag: Coweight,
                 windows: Sequence[Tuple[int, int, int, int]],
                 inverted: bool = False) -> Set[GrassPoint]:
    """The points u . eps^diag, entry (row, col) of the unipotent u ranging
    over the exact polynomials with exponents in [lo, hi) (``inverted``: u^-1),
    by the integer Hermite form, so the field's precision is never read: an
    Iwahori cell, or the claimed coordinates of a contracting cell."""
    p = field.p
    pts = set()
    for entries in itertools.product(
            *_window_entries(p, [(lo, hi) for (_r, _c, lo, hi) in windows])):
        u = [[ONE_ENTRY if r == c else ZERO_ENTRY for c in range(3)] for r in range(3)]
        for (r, c, _lo, _hi), e in zip(windows, entries):
            u[r - 1][c - 1] = e
        m = unipotent_inverse(u, p) if inverted else u
        # right multiplication by eps^diag shifts column c by diag[c]
        g = [[(e[0] + k, e[1]) if e[1] else e for e, k in zip(row, diag)] for row in m]
        d, ents = hermite_entries(g, p)
        pts.add(GrassPoint(field, d, ents))
    return pts


def is_normal_position(d: LusztigDatum) -> bool:
    n = d.n if d.word == "121" else braid(d).n
    return n[0] >= n[2] >= n[1]


def contracting_cell(P: MVPolytope, b: int) -> ContractingCell:
    if not is_normal_position(P.datum121):
        raise NormalPositionRequired(f"datum {P.datum121.n} needs n1 >= n3 >= n2")
    n = P.datum121.n
    lam = P.family.vertex(b)
    # entry bounds are stated in the two-triangle anchoring; conjugate by
    # the translation taking that anchor to the actual one
    ref = schubert_anchored_family(LusztigDatum("121", n))
    chi = sub_cw(lam, ref.vertex(b))
    inverted, shape = _CELL_SHAPES[b]
    windows = []
    for (r, c, lo_fn) in shape:
        lo = lo_fn(n) + chi[r - 1] - chi[c - 1]
        hi = lam[r - 1] - lam[c - 1]
        windows.append((r, c, lo, hi))
    dim = sum(max(0, hi - lo) for (_r, _c, lo, hi) in windows)
    if dim != n[0] + 2 * n[1] + n[2]:
        raise PavingVerificationFailed(
            f"chamber-{b} cell windows give dimension {dim}, "
            f"wants n1 + 2 n2 + n3 = {n[0] + 2 * n[1] + n[2]}")
    return ContractingCell(P, b, dim, lam, inverted, tuple(windows))


# ---------------------------------------------------------------------------
# Iwahori cells (non-standard paving of Schubert varieties)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IwahoriCell:
    shift: Coweight          # the conjugation a with I_a = Ad(eps^a) I
    lam: Coweight            # Schubert highest coweight
    vertex: Coweight         # the torus fixed point eps^{lam'}
    windows: Tuple[Tuple[int, int, int, int], ...]  # (row, col, lo, hi)
    dim: int

    def enumerate(self, field: PrimeField) -> Set[GrassPoint]:
        return _cell_points(field, self.vertex, self.windows)


def iwahori_cell(a: Coweight, lam: Coweight, lamp: Coweight) -> IwahoriCell:
    """The cell Sch(lam) cap I_a eps^{lamp} K/K of the non-standard paving."""
    if not (lam[0] >= lam[1] == lam[2] or lam[0] == lam[1] >= lam[2]):
        raise ShapeMismatch(f"{lam} has neither shape (a,b,b) nor (a,a,b)")
    windows = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            base = a[i] - a[j] + (1 if i > j else 0)
            extra = lam[2] - lamp[j] if lam[1] == lam[2] else lamp[i] - lam[0]
            windows.append((i + 1, j + 1, max(base, extra), lamp[i] - lamp[j]))
    dim = sum(max(0, hi - lo) for (_r, _c, lo, hi) in windows)
    return IwahoriCell(a, lam, lamp, tuple(windows), dim)


def mv_as_intersection(d: LusztigDatum):
    """The truncation as Sch(n1+n2,-n2,-n2) cap eps^shift . Sch(n3,n3,-n1-n2).

    Stated in the anchoring where the polytope is the intersection of its two
    bounding Schubert triangles.
    """
    if not is_normal_position(d):
        raise NormalPositionRequired(f"datum {d.n} needs n1 >= n3 >= n2")
    n = d.n if d.word == "121" else braid(d).n
    lam1 = (n[0] + n[1], -n[1], -n[1])
    shift = (n[0] - n[2], n[0] - n[2], 0)
    lam2 = (n[2], n[2], -n[0] - n[1])
    return lam1, shift, lam2


def schubert_anchored_family(d: LusztigDatum) -> GTFamily:
    """The MV polytope anchored inside its two bounding Schubert triangles."""
    n = d.n if d.word == "121" else braid(d).n
    return vertices_of(LusztigDatum("121", n), (-n[1], n[0] - n[2], n[2]))


# ---------------------------------------------------------------------------
# paving plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PavingStep:
    vertex: Coweight
    borel: Optional[int]
    dim: int
    polytope: GTFamily


@dataclass(frozen=True)
class PavingPlan:
    method: str
    polytope: GTFamily
    steps: Tuple[PavingStep, ...]
    verified: Optional[dict]

    def poincare(self) -> PoincarePoly:
        return PoincarePoly.from_dims([s.dim for s in self.steps])

    def to_json(self):
        return {
            "method": self.method,
            "nu": self.polytope.nu,
            "steps": [{"vertex": list(s.vertex), "borel": s.borel, "dim": s.dim}
                      for s in self.steps],
            "poincare": list(self.poincare().coeffs),
            "verified": self.verified,
        }


def _fields(qs: Sequence[int]) -> List[PrimeField]:
    """The verification fields; every modulus is checked before any count."""
    try:
        return [PrimeField(q) for q in qs]
    except ValueError as e:
        raise PreconditionViolated(f"cannot verify over F_q: {e}") from e


def paving_121(d: LusztigDatum, verify_qs: Sequence[int] = (2, 3)) -> PavingPlan:
    """Paving of the MV truncation X by Iwahori cells of its bounding Schubert variety, one
    cell per lattice point, verified by ``_verify_steps``.  Steps and polytope are in the
    ``schubert_anchored_family`` anchoring, not that of ``MVPolytope.from_datum(d)``, and
    every step keeps ``borel`` None.

    The cell at lambda' is counted at the chamber b(lambda'), the Borel that sorts
    lambda' - a (a = ``shift``) in decreasing order, ties to the smaller index.  Its window
    (i, j) is nonempty only when (lambda' - a)_i - (lambda' - a)_j >= 1 + [i > j], so i
    precedes j in b(lambda'): u lies in U_b(lambda'), the cell in the semi-infinite orbit
    of lambda' at b(lambda'), and each of its points has Ec vertex lambda' there
    (Kamnitzer).  Soundness rests on three facts, not on this rule: the cells are disjoint
    (distinct I_a-orbits), lie in X, and have q^dim points each (their coordinates are
    injective).  So when every step counts q^dim, their sum is |X(F_q)| and the cells
    cover X; the lowest-index rule only decides whether a correct plan passes."""
    lam1, shift, _lam2 = mv_as_intersection(d)
    family = schubert_anchored_family(d)
    cells = [iwahori_cell(shift, lam1, lamp) for lamp in family.lattice_points()]
    cells.sort(key=lambda c: (-c.dim, c.vertex))

    def chamber(v):  # b(v); the stable sort keeps ties in index order
        return BORELS.index(tuple(sorted((1, 2, 3), key=lambda i: shift[i - 1] - v[i - 1])))
    chambered = [PavingStep(c.vertex, chamber(c.vertex), c.dim, family) for c in cells]
    record = _verify_steps(chambered, family, [(field, None) for field in _fields(verify_qs)])
    steps = tuple(PavingStep(c.vertex, None, c.dim, family) for c in cells)
    return PavingPlan("iwahori", family, steps, record)


# ---------------------------------------------------------------------------
# maximal generalized MV subpolytopes
# ---------------------------------------------------------------------------

def is_gmv(f: GTFamily) -> bool:
    """Whether ``canonicalize`` finds an MV twist of f: its largest width M_x + M_{x^c} - nu
    is attained twice.  A twist is MV when its k1 == min(k3, k5), and it sends the odd edges
    to the odd ones or to the even ones, which are the odd ones plus one delta; the odd edges
    (k3, k1, k5) are A - w for A = M1 + M2 + M3 - nu, so the least is attained twice exactly
    when the largest width is."""
    M = f.support
    _a, b, c = sorted(M[x] + M[5 - x] for x in range(3))
    return b == c


def gmv_dimension(f: GTFamily) -> int:
    """n1 + 2 n2 + n3 of a GMV family's MV twist: sum(M) - 2 nu - max_j (M_j + M_{j^c})."""
    return sum(f.support) - 2 * f.nu - max(f.support[j] + f.support[5 - j] for j in range(3))


def max_gmv_inside(f: GTFamily, avoid: Optional[Coweight]) -> List[GTFamily]:
    """Maximal generalized MV polytopes inside f, not containing ``avoid``, in closed form.

    For ``avoid`` in f, a family inside f misses it exactly when some M_S < <avoid, S>: the
    starts are the facet cuts M_S = <avoid, S> - 1 that leave a point, tightened (else f).
    A start m has widths w_y = m_y + m_{y^c} - nu, U = m1 + m2 + m3 - nu and
    L = m12 + m13 + m23 - 2 nu.  Its largest width w_x is cut by c to the second largest, t,
    in every split: m_x drops by s and m_{x^c} by c - s.  A split with s > U or c - s > L
    bounds no point; the others, tightened, are the candidates, and the maximal ones the
    pieces.  Proof: a family is GMV exactly when its largest width is attained twice
    (``is_gmv``).  A GMV g <= m attains it at two coordinates, where w(g) <= w(m), so every
    w_y(g) <= t; then c <= (m_x - g_x) + (m_{x^c} - g_{x^c}), some split keeps g below, and
    g, being tight, stays below its tightening.  Tightening maps each width w to
    min(w, L) + min(w, U) - w (the candidate's L and U), nondecreasing on [0, max(L, U)],
    and L + U, the sum of the widths, is at least 2 t: each candidate is GMV.
    """
    M, nu = f.support, f.nu
    starts = [M]
    if avoid is not None and f.contains_point(avoid):
        starts = [tighten_support(M[:ci] + (cut,) + M[ci + 1:], nu) for ci, cut in
                  enumerate(pairing(avoid, S) - 1 for S in CHAMBERS) if cut + M[5 - ci] >= nu]
    found = set()
    for m in starts:
        w = [m[x] + m[5 - x] - nu for x in range(3)]
        x = w.index(max(w))
        c = w[x] - sorted(w)[1]  # 0 for a GMV start, its own one piece
        for s in range(max(0, c - (sum(m[3:]) - 2 * nu)), min(c, sum(m[:3]) - nu) + 1):
            g = list(m)
            g[x], g[5 - x] = m[x] - s, m[5 - x] - c + s
            found.add(tighten_support(g, nu))
    kept: List[Tuple[int, ...]] = []  # a support above another has a larger sum
    for m in sorted(found, key=sum, reverse=True):
        if not any(all(a <= b for a, b in zip(m, r)) for r in kept):
            kept.append(m)
    return [family_from_support(m, nu) for m in sorted(kept)]


# ---------------------------------------------------------------------------
# the greedy engine
# ---------------------------------------------------------------------------

CellFn = Callable[[GTFamily, int], Tuple[int, bool]]


def _mv_cell_fn(P: GTFamily, b: int) -> Tuple[int, bool]:
    return gmv_dimension(P), True


def _pave(family: GTFamily, cell_fn: CellFn,
          forced: Optional[Sequence[Coweight]] = None,
          springer_c=None) -> List[PavingStep]:
    """The greedy plan: each round takes the best candidate (active piece, chamber) whose
    vertex lies in no other active piece, ranked by the piece's dimension (larger first),
    then the vertex's weight (``union_degree`` over the actives), then the vertex, then the
    chamber, then the support.  A round with a ``forced`` vertex ranks only its corners."""
    actives = max_gmv_inside(family, None)
    forced = list(forced or ())
    steps: List[PavingStep] = []
    while actives:
        v = forced.pop(0) if forced else None  # the designated vertex of this round
        cands = [(P, b) for P in actives for b in range(6) if v is None or P.vertex(b) == v]
        if not cands:
            raise PavingVerificationFailed(
                f"designated vertex {v} is not a corner of any active polytope "
                f"(actives: {[P.vertices for P in actives]})")
        dims = {P.support: gmv_dimension(P) for P in dict.fromkeys(P for P, _b in cands)}
        wts = {u: union_degree(u, actives, springer_c) for u in {P.vertex(b) for P, b in cands}}
        cands.sort(key=lambda pb: (-dims[pb[0].support], wts[pb[0].vertex(pb[1])],
                                   pb[0].vertex(pb[1]), pb[1], pb[0].support))

        def other(P, b):  # an active piece but P that contains P's vertex b, or None
            return next((Q for Q in actives if Q.support != P.support
                         and Q.contains_point(P.vertex(b))), None)
        # the best candidate whose vertex lies in no other active piece, else the best
        P, b = next((pb for pb in cands if other(*pb) is None), cands[0])
        v, Q = P.vertex(b), other(P, b)
        if Q is not None:
            raise PavingVerificationFailed(
                f"step {len(steps)}: vertex {v}, chamber {b}, of support {P.support} lies "
                f"in another active piece, support {Q.support}; the subdivision fails here")
        dim, ok = cell_fn(P, b)
        if not ok:
            raise PavingVerificationFailed(
                f"cell at vertex {v}, chamber {b} of {P.vertices} is not affine "
                f"by the criterion")
        steps.append(PavingStep(v, b, dim, P))
        # the actives stay an antichain: a new piece lies inside P, so it contains none of them
        rest = [Q for Q in actives if Q.support != P.support]
        new = [N for N in max_gmv_inside(P, v) if not any(contains(Q, N) for Q in rest)]
        actives = sorted(rest + new, key=lambda R: R.support)
    got, want = sorted(s.vertex for s in steps), family.lattice_points()  # both sorted
    if got != want:
        raise PavingVerificationFailed(f"paving steps visit {got} but the fixed points are {want}")
    return steps


def _verify_steps(steps: Sequence[PavingStep], family: GTFamily,
                  checks: Sequence[Tuple[PrimeField, object]]) -> dict:
    """Count each step's cell over every (field, gamma) of ``checks``, the
    Springer points with a gamma, else all; each must have q^dim points.  An Ec
    support M goes to the lowest-index step containing it among those at its
    corners: vertex b of M is v exactly when M_S = <v, S> at ``_CORNER_FACETS[b]``."""
    record = {"per_q": [], "ok": True}
    by_corner: Dict[Tuple[int, int, int], List[int]] = {}  # step indices, ascending
    for i, st in enumerate(steps):
        key = (st.borel, *(pairing(st.vertex, CHAMBERS[k]) for k in _CORNER_FACETS[st.borel]))
        by_corner.setdefault(key, []).append(i)
    for field, gamma in checks:
        q = field.p
        counts = [0] * len(steps)
        for M, n in _ec_supports(family, q, gamma).items():
            fits = (i for b, (k1, k2) in enumerate(_CORNER_FACETS)
                    for i in by_corner.get((b, M[k1], M[k2]), ())
                    if all(m <= s for m, s in zip(M, steps[i].polytope.support)))
            i = min(fits, default=None) if min(edge_lengths(family.nu, M)) >= 0 else None
            if i is None:  # a negative edge raises InconsistentFamily here
                fx = family_from_support(M, family.nu)
                raise PavingVerificationFailed(
                    f"{n} points with Ec {fx.vertices} match no paving step")
            counts[i] += n
        for st, cnt in zip(steps, counts):
            if cnt != q ** st.dim:
                raise PavingVerificationFailed(
                    f"cell at {st.vertex} (chamber {st.borel}) counts {cnt} over F_{q}, "
                    f"wants {q}^{st.dim}")
        record["per_q"].append({"q": q, "total": sum(counts), "by_step": counts})
    return record


def greedy_paving(f: GTFamily, verify_qs: Sequence[int] = (2, 3),
                  rng: Optional[random.Random] = None) -> PavingPlan:
    """Contracting-cell paving in min-weight vertex order, verified by counts.
    ``rng`` is unused: the counts draw nothing."""
    steps = _pave(f, _mv_cell_fn)
    verified = _verify_steps(steps, f, [(field, None) for field in _fields(verify_qs)])
    return PavingPlan("greedy", f, tuple(steps), verified)

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
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (BudgetExceeded, NormalPositionRequired, NotMV,
                     PavingVerificationFailed, ShapeMismatch)
from .grass import (GrassPoint, _iter_entries, _window_entries, canonicalize_point,
                    enumerate_points, mat, mat_identity, mat_inv)
from .laurent import LaurentSeries, PrimeField
from .moment import PoincarePoly, skeleton
from .mvcomb import (LusztigDatum, MVPolytope, braid, canonicalize, dimension,
                     vertices_of)
from .rootdata import (CHAMBERS, Coweight, GTFamily, contains,
                       family_from_support, pairing, sub_cw)

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


@dataclass(frozen=True)
class ContractingCell:
    """Explicit coordinates of C_B: unipotent entry windows over a diagonal."""

    polytope: MVPolytope
    borel: int
    dim: int
    diag: Coweight
    inverted: bool
    windows: Tuple[Tuple[int, int, int, int], ...]  # (row, col, lo, hi)

    def enumerate(self, field: PrimeField) -> Set[GrassPoint]:
        return _cell_points(field, self.diag, self.windows, self.inverted)


def _cell_points(field: PrimeField, diag: Coweight,
                 windows: Sequence[Tuple[int, int, int, int]],
                 inverted: bool = False) -> Set[GrassPoint]:
    """The points u . eps^diag, entry (row, col) of the unipotent u ranging
    over the exact polynomials with exponents in [lo, hi); ``inverted`` puts
    u^-1 in place of u.  The field's precision is never read."""
    # Hermite reduction inverts unit pivots to work.prec terms; one more than
    # the exponent range of g's entries (windows shifted by diag) was enough
    # on every contracting cell with n_i <= 3, dim <= 7 (most need 1 to 4).
    exps = list(diag) + [e + diag[c - 1] for (_r, c, lo, hi) in windows for e in (lo, hi)]
    work = PrimeField(field.p, max(exps) - min(exps) + 1)
    pts = set()
    for entries in itertools.product(
            *_window_entries(field.p, [(lo, hi) for (_r, _c, lo, hi) in windows])):
        u = [list(r) for r in mat_identity(work)]
        for (r, c, _lo, _hi), (lead, cs) in zip(windows, entries):
            u[r - 1][c - 1] = LaurentSeries(work, lead, cs)
        m = mat_inv(mat(u)) if inverted else u
        # right multiplication by eps^diag shifts column c by diag[c]
        g = tuple(tuple(e.shift(k) for e, k in zip(row, diag)) for row in m)
        x = canonicalize_point(g)
        pts.add(GrassPoint(field, x.d, x.entries))
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
    if lam[0] >= lam[1] == lam[2]:
        def extra(i, j):
            return lam[2] - lamp[j]
    elif lam[0] == lam[1] >= lam[2]:
        def extra(i, j):
            return -lam[0] + lamp[i]
    else:
        raise ShapeMismatch(f"{lam} has neither shape (a,b,b) nor (a,a,b)")
    windows = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            base = a[i] - a[j] + (1 if i > j else 0)
            windows.append((i + 1, j + 1, max(base, extra(i, j)), lamp[i] - lamp[j]))
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


def paving_121(d: LusztigDatum, verify_qs: Sequence[int] = (2, 3)) -> PavingPlan:
    """Paving of the MV truncation by Iwahori cells of its bounding Schubert
    variety, one cell per lattice point."""
    lam1, shift, _lam2 = mv_as_intersection(d)
    family = schubert_anchored_family(d)
    cells = [iwahori_cell(shift, lam1, lamp) for lamp in family.lattice_points()]
    cells.sort(key=lambda c: (-c.dim, c.vertex))
    steps = tuple(PavingStep(c.vertex, None, c.dim, family) for c in cells)
    record = {"per_q": [], "ok": True}
    for q in verify_qs:
        field = PrimeField(q)
        pts = set(enumerate_points(family, field))
        seen: Set[GrassPoint] = set()
        by_cell = []
        for c in cells:
            cpts = c.enumerate(field)
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
    return PavingPlan("iwahori", family, steps, record)


# ---------------------------------------------------------------------------
# maximal generalized MV subpolytopes
# ---------------------------------------------------------------------------

def is_gmv(f: GTFamily) -> bool:
    try:
        canonicalize(f)
        return True
    except NotMV:
        return False


def gmv_dimension(f: GTFamily) -> int:
    _w, P = canonicalize(f)
    return dimension(P)


_WALK_BUDGET = 200_000  # states of one max_gmv_inside walk


def max_gmv_inside(f: GTFamily, avoid: Optional[Coweight]) -> List[GTFamily]:
    """Maximal generalized MV polytopes inside f, not containing ``avoid``.

    Walk on tight supports: from the family of support m, drop its lattice
    points on one facet and tighten the support to the points left (two
    chamber lines meet in a lattice point, so every state is a family).  Keep
    the generalized MV families that exclude ``avoid``; stop descending below them.
    """
    seen = {f.support}
    queue = [f.support]
    found: Dict[Tuple[int, ...], GTFamily] = {}
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


def _maximal(pieces: Iterable[GTFamily]) -> List[GTFamily]:
    """One piece per support, minus those inside another, sorted by support."""
    pool = list({P.support: P for P in pieces}.values())
    out = [P for P in pool if not any(Q.support != P.support and contains(Q, P) for Q in pool)]
    return sorted(out, key=lambda P: P.support)


# ---------------------------------------------------------------------------
# the greedy engine
# ---------------------------------------------------------------------------

CellFn = Callable[[GTFamily, int], Tuple[int, bool]]


def _mv_cell_fn(P: GTFamily, b: int) -> Tuple[int, bool]:
    return gmv_dimension(P), True


def _pave(family: GTFamily, cell_fn: CellFn,
          forced: Optional[Sequence[Coweight]] = None,
          springer_c=None) -> List[PavingStep]:
    actives = max_gmv_inside(family, None)
    forced = list(forced) if forced else []
    fi = 0
    steps: List[PavingStep] = []
    while actives:
        edge_union = set()
        for P in actives:
            edge_union.update(skeleton(P, springer_c=springer_c).edges)

        def cur_wt(v):
            return sum(1 for e in edge_union if e[0] == v or e[1] == v)

        if fi < len(forced):
            v = forced[fi]
            fi += 1
            cands = [(P, b) for P in actives for b in range(6) if P.vertex(b) == v]
            if not cands:
                raise PavingVerificationFailed(
                    f"designated vertex {v} is not a corner of any active polytope "
                    f"(actives: {[P.vertices for P in actives]})")
        else:
            cands = [(P, b) for P in actives for b in range(6)]
        scored = sorted(
            cands,
            key=lambda pb: (-gmv_dimension(pb[0]), cur_wt(pb[0].vertex(pb[1])),
                            pb[0].vertex(pb[1]), pb[1], pb[0].support))
        P, b = scored[0]
        v = P.vertex(b)
        for Q in actives:
            if Q.support != P.support and Q.contains_point(v):
                raise PavingVerificationFailed(
                    f"vertex {v} of the chosen polytope lies in another active piece "
                    f"{Q.vertices}; the subdivision claim fails here")
        dim, ok = cell_fn(P, b)
        if not ok:
            raise PavingVerificationFailed(
                f"cell at vertex {v}, chamber {b} of {P.vertices} is not affine "
                f"by the criterion")
        steps.append(PavingStep(v, b, dim, P))
        actives = _maximal([Q for Q in actives if Q.support != P.support]
                           + max_gmv_inside(P, v))
    want = set(family.lattice_points())
    got = [s.vertex for s in steps]
    if len(set(got)) != len(got) or set(got) != want:
        raise PavingVerificationFailed(
            f"paving steps visit {sorted(got)} but the fixed points are {sorted(want)}")
    return steps


def _verify_steps(steps: Sequence[PavingStep], family: GTFamily,
                  qs: Sequence[int], springer_pattern=None,
                  rng: Optional[random.Random] = None) -> dict:
    from .springer import synthesize_gamma  # springer imports this module
    record = {"per_q": [], "ok": True}
    for q in qs:
        gam = None if springer_pattern is None else synthesize_gamma(
            springer_pattern, PrimeField(q), rng or random.Random(0))
        # Ec of a point is a function of its D-profile (nu is the family's),
        # so points are counted by profile and each profile matched to a step once
        by_profile = Counter(prof for d, e21, e31, e32, prof in _iter_entries(family, q)
                             if gam is None or gam.admits(d, e21, e31, e32))
        counts = [0] * len(steps)
        for prof, n in by_profile.items():
            fx = family_from_support([-v for v in prof], family.nu)
            i = next((i for i, st in enumerate(steps) if contains(st.polytope, fx)
                      and fx.vertices[st.borel] == st.vertex), None)
            if i is None:
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
    """Contracting-cell paving in min-weight vertex order, verified by counts."""
    steps = _pave(f, _mv_cell_fn)
    verified = _verify_steps(steps, f, verify_qs, None, rng)
    return PavingPlan("greedy", f, tuple(steps), verified)

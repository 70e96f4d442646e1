"""Moment graphs of truncated affine Grassmannians and formal Betti numbers.

The 1-skeleton has the polytope's lattice points as vertices and one edge for
each 1-dimensional orbit of the extended torus; an edge joining v and
v - k*coroot(a) is labeled (a, k).  A total order on the vertices orients the
graph (source = larger) and its out-degree statistics give a formal Poincare
polynomial.  The minimum over all orders is exact: a scan over sets of placed
vertices, one size at a time, that drops every set whose counts already exceed
those of one greedy order.  Counts only grow as an order extends, so no
dropped set leads to the minimum, and the witness order is the one the full
scan of all 2^n sets gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .errors import BudgetExceeded
from .rootdata import GTFamily, Coweight, Root, coroot, scale_cw, sub_cw

Edge = Tuple[Coweight, Coweight, Root, int]


@dataclass(frozen=True)
class MomentGraph:
    vertices: Tuple[Coweight, ...]
    edges: Tuple[Edge, ...]


# per positive root (i, j): 0-based i and j, the CHAMBERS index of {i}^c, and the
# slot of the Springer triple (c12, c23, c13)
_ROOT_BOX = (((1, 2), 0, 1, 5, 0), ((1, 3), 0, 2, 5, 2), ((2, 3), 1, 2, 4, 1))


def skeleton(f: GTFamily, springer_c=None) -> MomentGraph:
    """1-skeleton of the truncation (intersected with a Springer fiber if given).

    The closure of the orbit labeled (a, k) is a P^1 whose MV polytope is the
    segment from v to v - k*coroot(a); the truncation is convex, so the orbit
    lies in it exactly when both endpoints are lattice points of the polytope.
    On the nu plane the polytope is the box nu - M_{i^c} <= v_i <= M_i, and the
    step to v - k*coroot(a), a = (i, j), lowers v_i and raises v_j, so k runs
    from 1 to min(v_i - (nu - M_{i^c}), M_j - v_j).
    The Springer condition on the curve is exactly k <= val(alpha(gamma)),
    supplied as the root-valuation triple (c12, c23, c13).
    """
    M, nu = f.support, f.nu
    c = (math.inf,) * 3 if springer_c is None else springer_c
    verts = f.lattice_points()
    edges = sorted((v, sub_cw(v, scale_cw(k, coroot(a))), a, k)
                   for v in verts for a, i, j, ci, line in _ROOT_BOX
                   for k in range(1, min(v[i] - nu + M[ci], M[j] - v[j], c[line]) + 1))
    return MomentGraph(tuple(verts), tuple(edges))


def union_degree(v: Coweight, pieces: Sequence[GTFamily], springer_c=None) -> int:
    """The number of edges at v in the union of the pieces' ``skeleton`` graphs.

    An edge of a skeleton has both ends in its piece, so only the pieces that contain v
    count.  With lo_i = v_i - nu + M_{i^c} and hi_i = M_i - v_i, the box of such a piece
    reaches min(lo_i, hi_j) steps down root (i, j) and min(hi_i, lo_j) steps up; the union
    has the largest reach of each of the six, cut by the Springer valuation of the root."""
    c = (math.inf,) * 3 if springer_c is None else springer_c
    reach = [0] * 6  # down along each root, then up
    for M, nu in ((f.support, f.nu) for f in pieces if f.contains_point(v)):
        lo = (v[0] - nu + M[5], v[1] - nu + M[4], v[2] - nu + M[3])
        hi = (M[0] - v[0], M[1] - v[1], M[2] - v[2])
        for r, (_a, i, j, _ci, _line) in enumerate(_ROOT_BOX):
            down, up = min(lo[i], hi[j]), min(hi[i], lo[j])
            reach[r], reach[r + 3] = max(reach[r], down), max(reach[r + 3], up)
    return sum(min(k, c[box[4]]) for k, box in zip(reach, _ROOT_BOX * 2))


@dataclass(frozen=True)
class PoincarePoly:
    """Coefficients b_0, b_2, b_4, ... of a formal Poincare polynomial."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "PoincarePoly":
        cs = [0] * (max(dims, default=0) + 1)
        for d in dims:
            cs[d] += 1
        return cls(tuple(cs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(str(c) if i == 0 else
                             (f"t^{2 * i}" if c == 1 else f"{c}*t^{2 * i}"))
        return " + ".join(parts)


def compare(p: PoincarePoly, q: PoincarePoly) -> int:
    """-1 if p < q (leading coefficient of q - p positive), 0 if equal, +1 if p > q."""
    n = max(len(p.coeffs), len(q.coeffs))
    for i in reversed(range(n)):
        a = p.coeffs[i] if i < len(p.coeffs) else 0
        b = q.coeffs[i] if i < len(q.coeffs) else 0
        if a != b:
            return -1 if a < b else 1
    return 0


def min_formal_poincare(g: MomentGraph, budget: int = 1 << 18):
    """Exact minimum of the formal Poincare polynomial over all total orders,
    with a witness order; for one order it is ``formal_betti`` in
    ``tests/reference.py``, the out-degrees of the induced orientation.

    Placing vertices from the top, a vertex's out-degree is its number of
    neighbours not yet placed (a skeleton has at most one edge per vertex
    pair), so the best counts of a set of placed vertices extend: the compare
    order is translation invariant.  The counts of degree d sit in the bit slot
    [d*W, (d+1)*W) of one integer, W = n.bit_length() + 1 so that no slot
    overflows, and integer < is compare.

    Branch and bound: one greedy order (place a vertex with the fewest
    unplaced neighbours) bounds the minimum by U.  Sets are scanned one size at
    a time, in ascending mask order, and a candidate above U is dropped.  That
    is exact, because adding counts never lowers a value, so a set above U
    cannot end below it.  It keeps the witness of the full 2^n scan
    (``min_formal_poincare_full_scan`` in ``tests/reference.py``): a set's
    predecessors all have one size less and are visited in the full scan's
    order, a dropped one is never the strict argmin, so every kept set gets the
    full scan's value and parent.  ``budget`` bounds 2^n, as for the full scan.
    """
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
    width = n.bit_length() + 1
    unit = [1 << (k * width) for k in range(n)]
    full = (1 << n) - 1
    bound = placed = 0
    for _ in range(n):
        k, v = min(((nbr[v] & ~placed).bit_count(), v) for v in range(n) if not placed >> v & 1)
        bound += unit[k]
        placed |= 1 << v
    layer = {0: 0}
    parent = {}
    for _ in range(n):
        nxt: Dict[int, int] = {}
        for mask, cur in sorted(layer.items()):
            rest, free = ~mask, full & ~mask
            while free:
                bit = free & -free
                free ^= bit
                v = bit.bit_length() - 1
                cand = cur + unit[(nbr[v] & rest).bit_count()]
                if cand > bound:
                    continue
                m2 = mask | bit
                old = nxt.get(m2)
                if old is None or cand < old:
                    nxt[m2] = cand
                    parent[m2] = v
        layer = nxt
    best = layer[full]
    order_idx = []
    mask = full
    while mask:
        v = parent[mask]
        order_idx.append(v)
        mask ^= (1 << v)
    order_idx.reverse()
    slot = (1 << width) - 1
    return (PoincarePoly(tuple(best >> (d * width) & slot for d in range(n))),
            [verts[i] for i in order_idx])


def to_dot(g: MomentGraph) -> str:
    def name(v):
        return "v" + "_".join(str(c).replace("-", "m") for c in v)
    return "\n".join(["graph skeleton {", *(f'  {name(v)} [label="{v}"];' for v in g.vertices),
                      *(f'  {name(u)} -- {name(v)} [label="a{a[0]}{a[1]}, k={k}"];'
                        for (u, v, a, k) in g.edges), "}"])


def graph_to_json(g: MomentGraph):
    return {
        "vertices": [list(v) for v in g.vertices],
        "edges": [{"u": list(u), "v": list(v), "alpha": list(a), "k": k}
                  for (u, v, a, k) in g.edges],
    }

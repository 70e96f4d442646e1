"""Moment graphs of truncated affine Grassmannians and formal Betti numbers.

The 1-skeleton has the polytope's lattice points as vertices and one edge for
each 1-dimensional orbit of the extended torus; an edge joining v and
v - k*coroot(a) is labeled (a, k).  A total order on the vertices orients the
graph (source = larger) and its out-degree statistics give a formal Poincare
polynomial; the minimum over all orders is computed exactly by a subset scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetExceeded
from .rootdata import POSROOTS, GTFamily, Coweight, Root, coroot, scale_cw, sub_cw

Edge = Tuple[Coweight, Coweight, Root, int]


@dataclass(frozen=True)
class MomentGraph:
    vertices: Tuple[Coweight, ...]
    edges: Tuple[Edge, ...]


_LINE_INDEX = {(1, 2): 0, (2, 3): 1, (1, 3): 2}


def skeleton(f: GTFamily, springer_c=None) -> MomentGraph:
    """1-skeleton of the truncation (intersected with a Springer fiber if given).

    The closure of the orbit labeled (a, k) is a P^1 whose MV polytope is the
    segment from v to v - k*coroot(a); the truncation is convex, so the orbit
    lies in it exactly when both endpoints are lattice points of the polytope.
    The Springer condition on the curve is exactly k <= val(alpha(gamma)),
    supplied as the root-valuation triple (c12, c23, c13).
    """
    verts = f.lattice_points()
    vset = set(verts)
    edges = []
    for v in verts:
        for a in POSROOTS:
            for k in range(1, f.span() + 1):
                u = sub_cw(v, scale_cw(k, coroot(a)))
                if u in vset and (springer_c is None
                                  or k <= springer_c[_LINE_INDEX[a]]):
                    edges.append((v, u, a, k))
    edges.sort()
    return MomentGraph(tuple(verts), tuple(edges))


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

    Scans subsets: placing vertices from the top, a vertex's out-degree is its
    number of neighbours not yet placed (a skeleton has at most one edge per
    vertex pair).  The compare order is translation invariant, so prefix
    minima extend.  Counts are kept highest degree first, so tuple < is compare.
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
    top = max(m.bit_count() for m in nbr)
    size = 1 << n
    best: List[Optional[Tuple[int, ...]]] = [None] * size
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


def to_dot(g: MomentGraph) -> str:
    lines = ["graph skeleton {"]
    for v in g.vertices:
        name = "v" + "_".join(str(c).replace("-", "m") for c in v)
        lines.append(f'  {name} [label="{v}"];')
    for (u, v, a, k) in g.edges:
        nu = "v" + "_".join(str(c).replace("-", "m") for c in u)
        nv = "v" + "_".join(str(c).replace("-", "m") for c in v)
        lines.append(f'  {nu} -- {nv} [label="a{a[0]}{a[1]}, k={k}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(g: MomentGraph):
    return {
        "vertices": [list(v) for v in g.vertices],
        "edges": [{"u": list(u), "v": list(v), "alpha": list(a), "k": k}
                  for (u, v, a, k) in g.edges],
    }

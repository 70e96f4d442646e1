"""Root and coweight combinatorics of GL(3).

Coweights are integer 3-vectors.  Weyl group elements are permutations of
{1,2,3} in one-line notation ``(w(1), w(2), w(3))``.  The six Borel subgroups
containing the diagonal torus are enumerated clockwise 0..5 starting at the
upper-triangular one; chamber weights are identified with the nonempty proper
column subsets of {1,2,3}.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .errors import InconsistentFamily

Coweight = Tuple[int, int, int]
Perm = Tuple[int, int, int]
Root = Tuple[int, int]

IDENT: Perm = (1, 2, 3)
S1: Perm = (2, 1, 3)
S2: Perm = (1, 3, 2)
S1S2: Perm = (2, 3, 1)   # s1*s2: apply s2 first
S2S1: Perm = (3, 1, 2)
W0: Perm = (3, 2, 1)

# clockwise chamber enumeration, chamber 0 = upper-triangular Borel
BORELS: Tuple[Perm, ...] = (IDENT, S2, S2S1, W0, S1S2, S1)
# tie-break enumeration used by polytope canonicalization
CANON_ORDER: Tuple[Perm, ...] = (IDENT, S1, S2, S1S2, S2S1, W0)

POSROOTS: Tuple[Root, ...] = ((1, 2), (1, 3), (2, 3))

CHAMBERS: Tuple[FrozenSet[int], ...] = (
    frozenset({1}), frozenset({2}), frozenset({3}),
    frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
)
CHAMBER_INDEX: Dict[FrozenSet[int], int] = {S: i for i, S in enumerate(CHAMBERS)}


def perm_mul(u: Perm, w: Perm) -> Perm:
    """(u*w)(i) = u(w(i))."""
    return (u[w[0] - 1], u[w[1] - 1], u[w[2] - 1])


def perm_inv(w: Perm) -> Perm:
    out = [0, 0, 0]
    for i, wi in enumerate(w):
        out[wi - 1] = i + 1
    return tuple(out)  # type: ignore[return-value]


def coroot(a: Root) -> Coweight:
    v = [0, 0, 0]
    v[a[0] - 1] = 1
    v[a[1] - 1] = -1
    return tuple(v)  # type: ignore[return-value]


def add_cw(u: Coweight, v: Coweight) -> Coweight:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def sub_cw(u: Coweight, v: Coweight) -> Coweight:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def scale_cw(k: int, v: Coweight) -> Coweight:
    return (k * v[0], k * v[1], k * v[2])


def pairing(v: Coweight, S: Iterable[int]) -> int:
    """Canonical pairing of a coweight with the chamber weight of column set S."""
    return sum(v[i - 1] for i in S)


# per Weyl element w, the index of the chamber w^-1 T for each chamber T
_WEYL_SOURCE: Dict[Perm, Tuple[int, ...]] = {
    w: tuple(CHAMBER_INDEX[frozenset(perm_inv(w)[i - 1] for i in T)] for T in CHAMBERS)
    for w in BORELS}


def _support_vertices(nu: int, M) -> Tuple[Coweight, ...]:
    """The six vertices (BORELS order) of the family with support M on the nu
    fiber: the vertex of Borel w is M_{w1}, M_{w1w2} - M_{w1}, nu - M_{w1w2}
    in the coordinates w1, w2, w3."""
    m1, m2, m3, m12, m13, m23 = M
    return ((m1, m12 - m1, nu - m12), (m1, nu - m13, m13 - m1), (m13 - m3, nu - m13, m3),
            (nu - m23, m23 - m3, m3), (nu - m23, m2, m23 - m2), (m12 - m2, m2, nu - m12))


def edge_lengths(nu: int, M) -> Tuple[int, ...]:
    """``GTFamily.edge_lengths`` of the support M on the nu fiber."""
    m1, m2, m3, m12, m13, m23 = M
    return (m12 + m13 - m1 - nu, m1 + m3 - m13, m13 + m23 - m3 - nu,
            m2 + m3 - m23, m12 + m23 - m2 - nu, m1 + m2 - m12)


@dataclass(frozen=True)
class GTFamily:
    """A positive (G,T)-orthogonal family, stored as its six support numbers
    M_S in CHAMBERS order: the polytope {v : sum(v) = nu, <v, S> <= M_S}.
    The vertices are derived from the support."""

    nu: int
    support: Tuple[int, int, int, int, int, int]

    def __post_init__(self):
        for b, k in enumerate(self.edge_lengths()):
            if k < 0:
                raise InconsistentFamily(
                    "support {0} on the nu={1} fiber gives the edge between chambers {2},{3} "
                    "the negative length {4}", self.support, self.nu, b, (b + 1) % 6, k)

    @classmethod
    def from_vertices(cls, nu: int, vertices) -> "GTFamily":
        """The family with these six vertices (BORELS order); raises unless they
        are a positive orthogonal family on the nu fiber."""
        # read each support number at one vertex that attains it: Borels 0, 5, 3, 0, 1, 3
        v0, v1, _, v3, _, v5 = vertices
        M = (v0[0], v5[1], v3[2], v0[0] + v0[1], v1[0] + v1[2], v3[1] + v3[2])
        for b, v in enumerate(_support_vertices(nu, M)):
            if v != vertices[b]:
                raise InconsistentFamily(
                    "vertex {0} at chamber {1} is not {2}, where the support puts it: not a "
                    "positive orthogonal family on the nu={3} fiber", vertices[b], b, v, nu)
        return cls(nu, M)

    def edge_lengths(self) -> Tuple[int, ...]:
        """The six gaps k_b: lambda_b - lambda_{b+1} is k_b times the coroot separating b, b+1."""
        return edge_lengths(self.nu, self.support)

    @cached_property
    def vertices(self) -> Tuple[Coweight, ...]:
        return _support_vertices(self.nu, self.support)

    def vertex(self, b: int) -> Coweight:
        return self.vertices[b]

    def contains_point(self, v: Coweight) -> bool:
        """On the nu plane the family is the box nu - M_jk <= v_i <= M_i, {i, j, k} = {1, 2, 3}."""
        (m1, m2, m3, m12, m13, m23), nu = self.support, self.nu
        return (sum(v) == nu and nu - m23 <= v[0] <= m1 and nu - m13 <= v[1] <= m2
                and nu - m12 <= v[2] <= m3)

    def lattice_points(self) -> List[Coweight]:
        """The points, sorted: the six facets bound v1 by M1 and nu - M23, and
        v2 by M2, M12 - v1, nu - M13 and nu - M3 - v1."""
        (m1, m2, m3, m12, m13, m23), nu = self.support, self.nu
        return [(v1, v2, nu - v1 - v2) for v1 in range(nu - m23, m1 + 1)
                for v2 in range(max(nu - m13, nu - m3 - v1), min(m2, m12 - v1) + 1)]

    def translate(self, chi: Coweight) -> "GTFamily":
        return GTFamily(self.nu + sum(chi),
                        tuple(m + pairing(chi, S) for m, S in zip(self.support, CHAMBERS)))

    def weyl(self, w: Perm) -> "GTFamily":
        """M'_{w S} = M_S."""
        if w == IDENT:
            return self
        return GTFamily(self.nu, tuple(self.support[j] for j in _WEYL_SOURCE[w]))


def tighten_support(M, nu: int) -> Tuple[int, int, int, int, int, int]:
    """The tight support of the polytope {v : sum(v) = nu, <v, S> <= M_S}, the box
    nu - M_jk <= v_i <= M_i cut by the plane: v_i reaches t_i = min(M_i, M_ij + M_ik - nu)
    and v_j + v_k then min(M_jk, t_j + t_k), so one pass is tight, and no point is
    left when some t_i + t_jk < nu.  Two chamber lines meet in a lattice point, so
    this is also the tight support of its lattice points."""
    m1, m2, m3, m12, m13, m23 = M
    t1, t2, t3 = min(m1, m12 + m13 - nu), min(m2, m12 + m23 - nu), min(m3, m13 + m23 - nu)
    t12, t13, t23 = min(m12, t1 + t2), min(m13, t1 + t3), min(m23, t2 + t3)
    if t1 + t23 < nu or t2 + t13 < nu or t3 + t12 < nu:
        raise InconsistentFamily(f"support {tuple(M)} on the nu={nu} fiber bounds no point")
    return t1, t2, t3, t12, t13, t23


def family_from_support(M, nu: int) -> GTFamily:
    """The family with these six support numbers (CHAMBERS order)."""
    return GTFamily(nu, tuple(M))


def contains(outer: GTFamily, inner: GTFamily) -> bool:
    if outer.nu != inner.nu:
        raise ValueError("families live on different nu fibers")
    return all(mi <= mo for mi, mo in zip(inner.support, outer.support))


def weyl_family(lam: Coweight) -> GTFamily:
    """The Weyl polytope of a dominant coweight (lam1 >= lam2 >= lam3)."""
    if not (lam[0] >= lam[1] >= lam[2]):
        raise ValueError(f"{lam} is not dominant")
    return GTFamily(sum(lam), (lam[0],) * 3 + (lam[0] + lam[1],) * 3)


def iota_family(f: GTFamily) -> GTFamily:
    """Effect of the transpose-inverse involution: vertices negate, Borels flip,
    so M'_S = M_{S^c} - nu (CHAMBERS lists complements in reverse order)."""
    return GTFamily(-f.nu, tuple(m - f.nu for m in reversed(f.support)))


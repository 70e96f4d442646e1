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
RHO: Coweight = (1, 0, -1)

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


def act(w: Perm, v: Coweight) -> Coweight:
    """Permutation action on coweights: (w.v)_i = v_{w^-1(i)}."""
    wi = perm_inv(w)
    return (v[wi[0] - 1], v[wi[1] - 1], v[wi[2] - 1])


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


def chamber_of(w: Perm, level: int) -> FrozenSet[int]:
    return frozenset(w[:level])


# per Borel w: the support indices of the chambers {w1} and {w1, w2}, and w
_VERTEX_CHAMBERS = tuple((CHAMBER_INDEX[chamber_of(w, 1)], CHAMBER_INDEX[chamber_of(w, 2)], w)
                         for w in BORELS)
# per Weyl element w, the index of the chamber w^-1 T for each chamber T
_WEYL_SOURCE: Dict[Perm, Tuple[int, ...]] = {
    w: tuple(CHAMBER_INDEX[frozenset(perm_inv(w)[i - 1] for i in T)] for T in CHAMBERS)
    for w in BORELS}


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
                    f"support {self.support} on the nu={self.nu} fiber gives the edge "
                    f"between chambers {b},{(b + 1) % 6} the negative length {k}")

    @classmethod
    def from_vertices(cls, nu: int, vertices) -> "GTFamily":
        """The family with these six vertices (BORELS order); raises unless they
        are a positive orthogonal family on the nu fiber."""
        # read each support number at one vertex that attains it: Borels 0, 5, 3, 0, 1, 3
        v0, v1, _, v3, _, v5 = vertices
        f = cls(nu, (v0[0], v5[1], v3[2], v0[0] + v0[1], v1[0] + v1[2], v3[1] + v3[2]))
        for b in range(6):
            if f._vertex(b) != vertices[b]:
                raise InconsistentFamily(
                    f"vertex {vertices[b]} at chamber {b} is not {f._vertex(b)}, where the "
                    f"support puts it: not a positive orthogonal family on the nu={nu} fiber")
        return f

    def edge_lengths(self) -> Tuple[int, ...]:
        """The six gaps k_b: lambda_b - lambda_{b+1} is k_b times the coroot separating b, b+1."""
        m1, m2, m3, m12, m13, m23 = self.support
        nu = self.nu
        return (m12 + m13 - m1 - nu, m1 + m3 - m13, m13 + m23 - m3 - nu,
                m2 + m3 - m23, m12 + m23 - m2 - nu, m1 + m2 - m12)

    def _vertex(self, b: int) -> Coweight:
        i1, i12, w = _VERTEX_CHAMBERS[b]
        M = self.support
        v = [0, 0, 0]
        v[w[0] - 1] = M[i1]
        v[w[1] - 1] = M[i12] - M[i1]
        v[w[2] - 1] = self.nu - M[i12]
        return tuple(v)  # type: ignore[return-value]

    @cached_property
    def vertices(self) -> Tuple[Coweight, ...]:
        return tuple(self._vertex(b) for b in range(6))

    def vertex(self, b: int) -> Coweight:
        return self.vertices[b]

    def vertex_of(self, w: Perm) -> Coweight:
        return self.vertices[BORELS.index(w)]

    def contains_point(self, v: Coweight) -> bool:
        if sum(v) != self.nu:
            return False
        M = self.support
        return all(pairing(v, S) <= M[ci] for ci, S in enumerate(CHAMBERS))

    def lattice_points(self) -> List[Coweight]:
        M = self.support
        # coordinate i is at most M_{i} and at least nu - M_{jk}
        lo, hi = self.nu - max(M[3:]), max(M[:3])
        out = []
        for v1 in range(lo, hi + 1):
            for v2 in range(lo, hi + 1):
                v = (v1, v2, self.nu - v1 - v2)
                if v[2] < lo or v[2] > hi:
                    continue
                if all(pairing(v, S) <= M[ci] for ci, S in enumerate(CHAMBERS)):
                    out.append(v)
        out.sort()
        return out

    def span(self) -> int:
        """The largest coordinate minus the least, over the polytope."""
        return max(self.support[:3]) + max(self.support[3:]) - self.nu

    def translate(self, chi: Coweight) -> "GTFamily":
        return GTFamily(self.nu + sum(chi),
                        tuple(m + pairing(chi, S) for m, S in zip(self.support, CHAMBERS)))

    def weyl(self, w: Perm) -> "GTFamily":
        """M'_{w S} = M_S."""
        return GTFamily(self.nu, tuple(self.support[j] for j in _WEYL_SOURCE[w]))


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


def eq_up_to_translation(f: GTFamily, g: GTFamily) -> bool:
    chi = sub_cw(g.vertices[0], f.vertices[0])
    return f.translate(chi) == g

"""Root and coweight combinatorics of GL(3).

Coweights are integer 3-vectors.  Weyl group elements are permutations of
{1,2,3} in one-line notation ``(w(1), w(2), w(3))``.  The six Borel subgroups
containing the diagonal torus are enumerated clockwise 0..5 starting at the
upper-triangular one; chamber weights are identified with the nonempty proper
column subsets of {1,2,3}.
"""
from __future__ import annotations

from dataclasses import dataclass
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


# separating coroot between clockwise-adjacent Borels b and b+1 (mod 6):
# lambda_b - lambda_{b+1} must be a nonnegative multiple of it
_SEP: Tuple[Coweight, ...] = (
    (0, 1, -1), (1, 0, -1), (1, -1, 0), (0, -1, 1), (-1, 0, 1), (-1, 1, 0),
)

# one Borel whose vertex determines each chamber's support number
_CHAMBER_VERTEX: Tuple[int, ...] = (0, 5, 3, 0, 1, 3)


@dataclass(frozen=True)
class GTFamily:
    """A positive (G,T)-orthogonal family: one coweight per Borel chamber."""

    nu: int
    vertices: Tuple[Coweight, Coweight, Coweight, Coweight, Coweight, Coweight]

    def __post_init__(self):
        for v in self.vertices:
            if sum(v) != self.nu:
                raise InconsistentFamily(f"vertex {v} is off the nu={self.nu} fiber")
        for b in range(6):
            d = sub_cw(self.vertices[b], self.vertices[(b + 1) % 6])
            k = _multiple_of(d, _SEP[b])
            if k is None or k < 0:
                raise InconsistentFamily(
                    f"vertices {self.vertices[b]}, {self.vertices[(b + 1) % 6]} at "
                    f"chambers {b},{(b + 1) % 6} are not positively orthogonal")

    @property
    def support(self) -> Tuple[int, ...]:
        """M_S for the six chamber weights, in CHAMBERS order."""
        return tuple(pairing(self.vertices[_CHAMBER_VERTEX[ci]], S)
                     for ci, S in enumerate(CHAMBERS))

    def vertex(self, b: int) -> Coweight:
        return self.vertices[b]

    def vertex_of(self, w: Perm) -> Coweight:
        return self.vertices[BORELS.index(w)]

    def edge_lengths(self) -> Tuple[int, ...]:
        """The six adjacent-vertex gaps k_b with lambda_b - lambda_{b+1} = k_b * coroot."""
        out = []
        for b in range(6):
            d = sub_cw(self.vertices[b], self.vertices[(b + 1) % 6])
            out.append(_multiple_of(d, _SEP[b]))
        return tuple(out)

    def contains_point(self, v: Coweight) -> bool:
        if sum(v) != self.nu:
            return False
        M = self.support
        return all(pairing(v, S) <= M[ci] for ci, S in enumerate(CHAMBERS))

    def lattice_points(self) -> List[Coweight]:
        M = self.support
        lo = min(c for vert in self.vertices for c in vert)
        hi = max(c for vert in self.vertices for c in vert)
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
        lo = min(c for vert in self.vertices for c in vert)
        hi = max(c for vert in self.vertices for c in vert)
        return hi - lo

    def translate(self, chi: Coweight) -> "GTFamily":
        return GTFamily(self.nu + sum(chi),
                        tuple(add_cw(v, chi) for v in self.vertices))

    def weyl(self, w: Perm) -> "GTFamily":
        verts = [None] * 6
        for b in range(6):
            verts[BORELS.index(perm_mul(w, BORELS[b]))] = act(w, self.vertices[b])
        return GTFamily(self.nu, tuple(verts))


def _multiple_of(d: Coweight, unit: Coweight):
    """Return k with d = k*unit, or None."""
    k = None
    for di, ui in zip(d, unit):
        if ui == 0:
            if di != 0:
                return None
        else:
            q = di // ui
            if q * ui != di:
                return None
            if k is None:
                k = q
            elif q != k:
                return None
    return 0 if k is None else k


def family_from_support(M, nu: int) -> GTFamily:
    """Reconstruct vertices from the six support numbers (CHAMBERS order)."""
    verts = []
    for w in BORELS:
        m1 = M[CHAMBER_INDEX[chamber_of(w, 1)]]
        m12 = M[CHAMBER_INDEX[chamber_of(w, 2)]]
        v = [0, 0, 0]
        v[w[0] - 1] = m1
        v[w[1] - 1] = m12 - m1
        v[w[2] - 1] = nu - m12
        verts.append(tuple(v))
    return GTFamily(nu, tuple(verts))


def contains(outer: GTFamily, inner: GTFamily) -> bool:
    if outer.nu != inner.nu:
        raise ValueError("families live on different nu fibers")
    return all(mi <= mo for mi, mo in zip(inner.support, outer.support))


def weyl_family(lam: Coweight) -> GTFamily:
    """The Weyl polytope of a dominant coweight (lam1 >= lam2 >= lam3)."""
    if not (lam[0] >= lam[1] >= lam[2]):
        raise ValueError(f"{lam} is not dominant")
    return GTFamily(sum(lam), tuple(act(w, lam) for w in BORELS))


def iota_family(f: GTFamily) -> GTFamily:
    """Effect of the transpose-inverse involution: vertices negate, Borels flip."""
    verts = [None] * 6
    for b in range(6):
        bneg = BORELS.index(perm_mul(BORELS[b], W0))
        verts[bneg] = scale_cw(-1, f.vertices[b])
    return GTFamily(-f.nu, tuple(verts))


def eq_up_to_translation(f: GTFamily, g: GTFamily) -> bool:
    chi = sub_cw(g.vertices[0], f.vertices[0])
    return f.translate(chi) == g

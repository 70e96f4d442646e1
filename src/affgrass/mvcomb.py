"""Lusztig data, braid moves, MV polytopes and their crystal operators."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .errors import InconsistentFamily, NotMV, PreconditionViolated
from .rootdata import (_WEYL_SOURCE, CANON_ORDER, GTFamily, Coweight, Perm, add_cw, coroot,
                       edge_lengths, perm_inv, scale_cw, sub_cw)

WORDS = ("121", "212")

_ALPHA1 = coroot((1, 2))
_ALPHA2 = coroot((2, 3))
_ALPHA13 = coroot((1, 3))


@dataclass(frozen=True)
class LusztigDatum:
    word: str
    n: Tuple[int, int, int]

    def __post_init__(self):
        if self.word not in WORDS:
            raise ValueError(f"reduced word must be one of {WORDS}")
        if any(k < 0 for k in self.n):
            raise ValueError(f"edge lengths must be nonnegative: {self.n}")


def braid(d: LusztigDatum) -> LusztigDatum:
    """Toggle the reduced word; the tropical 3-move on edge lengths."""
    n1, n2, n3 = d.n
    a = min(n1, n3)
    return LusztigDatum("212" if d.word == "121" else "121",
                        (n2 + n3 - a, a, n1 + n2 - a))


def vertices_of(d: LusztigDatum, base: Coweight) -> GTFamily:
    """The vertex family of the MV polytope with this datum, anchored so that
    the w0-side vertex is ``base``."""
    n = d.n if d.word == "121" else braid(d).n
    m = braid(LusztigDatum("121", n)).n
    lw0 = base
    ls1s2 = add_cw(lw0, scale_cw(n[2], _ALPHA2))
    ls1 = add_cw(ls1s2, scale_cw(n[1], _ALPHA13))
    le = add_cw(ls1, scale_cw(n[0], _ALPHA1))
    ls2s1 = add_cw(lw0, scale_cw(m[2], _ALPHA1))
    ls2 = add_cw(ls2s1, scale_cw(m[1], _ALPHA13))
    if add_cw(ls2, scale_cw(m[0], _ALPHA2)) != le:
        raise InconsistentFamily(f"the two edge paths of {d} do not close up")
    # in BORELS order: e, s2, s2s1, w0, s1s2, s1
    return GTFamily.from_vertices(sum(base), (le, ls2, ls2s1, lw0, ls1s2, ls1))


def datum121_of(f: GTFamily) -> LusztigDatum:
    """Edge lengths along the path through chambers e, s1, s1s2, w0."""
    k = f.edge_lengths()
    return LusztigDatum("121", (k[5], k[4], k[3]))


def datum212_of(f: GTFamily) -> LusztigDatum:
    k = f.edge_lengths()
    return LusztigDatum("212", (k[0], k[1], k[2]))


def is_mv_family(f: GTFamily) -> bool:
    return braid(datum121_of(f)) == datum212_of(f)


@dataclass(frozen=True)
class MVPolytope:
    """An MV polytope in absolute coordinates, carrying both Lusztig data."""

    base: Coweight
    datum121: LusztigDatum
    datum212: LusztigDatum
    family: GTFamily

    def __post_init__(self):
        if braid(self.datum121) != self.datum212:
            raise NotMV(f"data {self.datum121} / {self.datum212} are not braid-related")

    @classmethod
    def from_datum(cls, d: LusztigDatum, base: Optional[Coweight] = None) -> "MVPolytope":
        d121 = d if d.word == "121" else braid(d)
        if base is None:
            # anchor the top vertex lambda_e at the origin
            n1, n2, n3 = d121.n
            base = (-(n1 + n2), n1 - n3, n2 + n3)
        fam = vertices_of(d121, base)
        return cls(base, d121, braid(d121), fam)

    @classmethod
    def from_family(cls, f: GTFamily) -> "MVPolytope":
        return cls(f.vertex(3), datum121_of(f), datum212_of(f), f)


class _Zero:
    """Crystal annihilator."""

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()

CrystalResult = Union[MVPolytope, _Zero]


def mv_twist(f: GTFamily) -> Optional[Perm]:
    """The first w of ``CANON_ORDER`` minimizing <w.rho, lambda_w - lambda_{w w0}>
    with w^-1.f an MV polytope, or None, on the support alone.

    The score is sum(M) - 2 nu - M_j - M_{j^c} with j = w(2), so the
    minimizing twists are those whose w(2) maximizes M_j + M_{j^c}.  Each is
    tested by the braid move on its edge lengths:
    (k4 + k3 - a, a, k5 + k4 - a) == (k0, k1, k2), a = min(k5, k3).
    """
    M = f.support
    width = [M[j] + M[5 - j] for j in range(3)]  # CHAMBERS lists complements in reverse
    best = max(width)
    for w in CANON_ORDER:
        if width[w[1] - 1] == best:
            k = edge_lengths(f.nu, [M[j] for j in _WEYL_SOURCE[perm_inv(w)]])
            a = min(k[5], k[3])
            if (k[4] + k[3] - a, a, k[5] + k[4] - a) == k[:3]:
                return w
    return None


def canonicalize(f: GTFamily) -> Tuple[Perm, MVPolytope]:
    """Find w minimizing <w.rho, lambda_w - lambda_{w w0}> with w^-1.f an MV polytope."""
    w = mv_twist(f)
    if w is None:
        raise NotMV(f"no minimizing Weyl twist of {f.vertices} is braid-consistent")
    return w, MVPolytope.from_family(f.weyl(perm_inv(w)))


def _crystal_datum(i: int, P: MVPolytope) -> LusztigDatum:
    """The datum whose word ends with i, the one crystal operator i acts on."""
    if i not in (1, 2):
        raise PreconditionViolated(f"crystal operators are indexed by 1 and 2, got {i!r}")
    return P.datum121 if i == 1 else P.datum212


def crystal_F(i: int, P: MVPolytope) -> MVPolytope:
    """Lengthen the last edge of the path for the word ending with i."""
    d = _crystal_datum(i, P)
    nd = LusztigDatum(d.word, (d.n[0], d.n[1], d.n[2] + 1))
    return MVPolytope.from_datum(nd, base=_base_keeping_top(nd, P.family.vertex(0)))


def crystal_E(i: int, P: MVPolytope) -> CrystalResult:
    d = _crystal_datum(i, P)
    if d.n[2] == 0:
        return ZERO
    nd = LusztigDatum(d.word, (d.n[0], d.n[1], d.n[2] - 1))
    return MVPolytope.from_datum(nd, base=_base_keeping_top(nd, P.family.vertex(0)))


def _base_keeping_top(d: LusztigDatum, top: Coweight) -> Coweight:
    n1, n2, n3 = (d if d.word == "121" else braid(d)).n
    return add_cw(top, (-(n1 + n2), n1 - n3, n2 + n3))


def apply_crystal_word(j: Sequence[int], P: MVPolytope) -> CrystalResult:
    """Compose E_{j_1} ... E_{j_l}, rightmost first; ZERO absorbs."""
    cur: CrystalResult = P
    for i in reversed(list(j)):
        if cur is ZERO:
            return ZERO
        cur = crystal_E(i, cur)
    return cur


def is_alternating(j: Sequence[int]) -> bool:
    return all(x in (1, 2) for x in j) and all(a != b for a, b in zip(j, j[1:]))


def dimension(P: MVPolytope) -> int:
    n1, n2, n3 = P.datum121.n
    return n1 + 2 * n2 + n3


def coweight(P: MVPolytope) -> Coweight:
    """-mu: the vector from the w0-side vertex to the top vertex."""
    return sub_cw(P.family.vertex(0), P.family.vertex(3))

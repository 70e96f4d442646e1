"""Lusztig data, braid moves, MV polytopes and their crystal operators."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .errors import NormalPositionRequired, NotMV, PreconditionViolated
from .rootdata import (_WEYL_SOURCE, CANON_ORDER, GTFamily, Coweight, Perm, add_cw, edge_lengths,
                       perm_inv, sub_cw)

WORDS = ("121", "212")


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


def n121(d: LusztigDatum) -> Tuple[int, int, int]:
    """The 121 datum's edge lengths of d: its own, or its braid move's for a 212 datum."""
    return d.n if d.word == "121" else braid(d).n


def n121_from_edges(k: Sequence[int]) -> Tuple[int, int, int]:
    """The 121 datum (k5, k4, k3) of the MV polytope with edge lengths k."""
    return k[5], k[4], k[3]


def is_normal_position(n: Tuple[int, int, int]) -> bool:
    """Whether a 121 datum n is in normal position, n1 >= n3 >= n2."""
    return n[0] >= n[2] >= n[1]


def normal_n121(d: LusztigDatum) -> Tuple[int, int, int]:
    """``n121(d)``, which the cells and pavings built from a datum need in normal position."""
    if not is_normal_position(n := n121(d)):
        raise NormalPositionRequired(f"121 datum {n} needs n1 >= n3 >= n2")
    return n


def vertices_of(d: LusztigDatum, base: Coweight) -> GTFamily:
    """The family of the MV polytope with this datum whose w0-side vertex is
    ``base``: with (n1, n2, n3) the 121 datum and m3 = n1 + n2 - min(n1, n3),
    each support number is read at base, lambda_s1 = base + n3 a23 + n2 a13,
    lambda_e = lambda_s1 + n1 a12 or lambda_s2 = base + m3 a12 + min(n1, n3) a13."""
    n1, n2, n3 = n121(d)
    m3 = n1 + n2 - min(n1, n3)
    b1, b2, b3 = base
    return GTFamily(b1 + b2 + b3, (b1 + n1 + n2, b2 + n3, b3, b1 + b2 + n2 + n3, b1 + b3 + m3,
                                   b2 + b3))


def mv_edges(f: GTFamily, w: Perm) -> Optional[Tuple[int, ...]]:
    """The edge lengths k of w^-1.f when it is an MV polytope, else None: the
    braid move must take its 121 datum (k5, k4, k3) to its 212 datum
    (k0, k1, k2).  The hexagon closes, k0 - k3 = k4 - k1 = k2 - k5, so that is
    k1 == min(k3, k5)."""
    M = f.support
    k = edge_lengths(f.nu, [M[j] for j in _WEYL_SOURCE[perm_inv(w)]])
    return k if k[1] == min(k[3], k[5]) else None


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
        d121 = LusztigDatum("121", n121(d))
        if base is None:
            base = _base_keeping_top(d121, (0, 0, 0))
        return cls(base, d121, braid(d121), vertices_of(d121, base))

    @classmethod
    def from_family(cls, f: GTFamily) -> "MVPolytope":
        k = f.edge_lengths()
        return cls(f.vertex(3), LusztigDatum("121", n121_from_edges(k)),
                   LusztigDatum("212", k[:3]), f)


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
    tested by the braid move on its edge lengths (``mv_edges``).
    """
    M = f.support
    width = [M[j] + M[5 - j] for j in range(3)]  # CHAMBERS lists complements in reverse
    best = max(width)
    for w in CANON_ORDER:
        if width[w[1] - 1] == best and mv_edges(f, w) is not None:
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
    n1, n2, n3 = n121(d)
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

import itertools

import pytest

from affgrass.errors import NotMV, PreconditionViolated
from affgrass.mvcomb import (ZERO, LusztigDatum, MVPolytope, apply_crystal_word,
                             braid, canonicalize, coweight, crystal_E, crystal_F,
                             dimension, vertices_of)
from affgrass.rootdata import (CANON_ORDER, GTFamily, IDENT, perm_inv, sub_cw,
                               weyl_family)
from reference import vertices_of_by_paths


def P(n):
    return MVPolytope.from_datum(LusztigDatum("121", n))


def test_braid_examples():
    assert braid(LusztigDatum("121", (2, 1, 0))) == LusztigDatum("212", (1, 0, 3))
    assert braid(LusztigDatum("121", (1, 0, 1))) == LusztigDatum("212", (0, 1, 0))
    assert braid(LusztigDatum("121", (0, 0, 0))) == LusztigDatum("212", (0, 0, 0))


def test_braid_involution_small():
    for n in itertools.product(range(5), repeat=3):
        d = LusztigDatum("121", n)
        assert braid(braid(d)) == d


def test_two_triangle_vertex_labels():
    fam = vertices_of(LusztigDatum("121", (2, 1, 1)), base=(-1, 1, 1))
    n1, n2, n3 = 2, 1, 1
    assert fam.vertex(0) == (n1, 0, -n2)
    assert fam.vertex(5) == (0, n1, -n2)
    assert fam.vertex(4) == (-n2, n1, 0)
    assert fam.vertex(1) == (n1, -n2, 0)
    assert fam.vertex(3) == (-n2, n1 - n3, n3)
    assert fam.vertex(2) == (n1 - n3, -n2, n3)
    assert len({sum(v) for v in fam.vertices}) == 1  # constant component sum


def test_vertices_of_matches_paths():
    # the support in closed form is the family the two vertex paths give,
    # from either word and at bases off the origin
    for n in itertools.product(range(8), repeat=3):
        for d in (LusztigDatum("121", n), LusztigDatum("212", n)):
            for base in ((0, 0, 0), (-2, 1, -3), (4, -1, 0)):
                assert vertices_of(d, base) == vertices_of_by_paths(d, base)


def test_degenerate_polytope():
    fam = vertices_of(LusztigDatum("121", (0, 0, 0)), base=(1, 2, 3))
    assert set(fam.vertices) == {(1, 2, 3)}


def test_canonicalize_trivial_and_twisted():
    fam = P((2, 1, 0)).family
    w, Q = canonicalize(fam)
    assert w == IDENT and Q.family == fam
    for u in CANON_ORDER:
        tw = fam.weyl(u)
        w2, Q2 = canonicalize(tw)
        assert tw.weyl(perm_inv(w2)) == Q2.family
        assert Q2.datum121 is not None


def test_weyl_polytope_is_mv():
    W = weyl_family((1, 0, 0))
    w, Q = canonicalize(W)
    assert w == IDENT
    assert Q.datum121.n == (1, 0, 1)


def test_canonicalize_rejects_non_mv():
    # a positive hexagon whose two path data are not braid-related
    verts = ((0, 0, 0), (0, -2, 2), (0, -2, 2), (-2, 0, 2), (-2, 1, 1), (-1, 1, 0))
    fam = GTFamily.from_vertices(0, verts)
    with pytest.raises(NotMV):
        canonicalize(fam)


def test_crystal_examples():
    assert crystal_F(1, P((2, 1, 0))).datum121.n == (2, 1, 1)
    assert crystal_E(1, P((2, 1, 0))) is ZERO
    assert crystal_E(2, P((2, 1, 0))).datum121.n == (1, 1, 0)
    for op in (crystal_E, crystal_F):
        for i in (0, 3, 7, -1, "1"):
            with pytest.raises(PreconditionViolated):
                op(i, P((2, 1, 0)))


def test_crystal_word_examples():
    out = apply_crystal_word((1, 2), P((2, 1, 1)))
    assert out.datum121.n == (1, 1, 0)
    assert apply_crystal_word((), P((2, 1, 1))).family == P((2, 1, 1)).family
    # an alternating word beginning with 1 of length 2 n2 + 1 annihilates
    for (n1, n2) in ((2, 1), (3, 2)):
        j = tuple(1 if k % 2 == 0 else 2 for k in range(2 * n2 + 1))
        assert apply_crystal_word(j, P((n1, n2, n2))) is ZERO


def test_crystal_base_identity():
    # E_{12...12} of length 2 n2 lands on (n1 - n2, n2, 0) when n1 > n2;
    # at n1 = n2 that word lands on the Weyl datum (n2, 0, n2) and the
    # 21...21 word reaches (0, n2, 0) instead
    for (n1, n2) in ((2, 1), (3, 2), (3, 1)):
        j = tuple(1 if k % 2 == 0 else 2 for k in range(2 * n2))
        out = apply_crystal_word(j, P((n1, n2, n2)))
        assert out.datum121.n == (n1 - n2, n2, 0)
    for n2 in (1, 2):
        j12 = tuple(1 if k % 2 == 0 else 2 for k in range(2 * n2))
        j21 = tuple(2 if k % 2 == 0 else 1 for k in range(2 * n2))
        assert apply_crystal_word(j12, P((n2, n2, n2))).datum121.n == (n2, 0, n2)
        assert apply_crystal_word(j21, P((n2, n2, n2))).datum121.n == (0, n2, 0)


def test_crystal_inverse_pairs():
    for n in ((2, 1, 1), (1, 0, 0), (0, 2, 1)):
        for i in (1, 2):
            up = crystal_F(i, P(n))
            back = crystal_E(i, up)
            assert back is not ZERO and back.family == P(n).family


def test_crystal_independence_of_word():
    # building the polytope from either word gives the same operator action
    d121 = LusztigDatum("121", (2, 1, 1))
    P1 = MVPolytope.from_datum(d121)
    P2 = MVPolytope.from_datum(braid(d121))
    for i in (1, 2):
        a, b = crystal_E(i, P1), crystal_E(i, P2)
        assert a.datum121 == b.datum121


def test_dimension_and_coweight():
    assert dimension(P((2, 1, 1))) == 5
    assert dimension(P((0, 0, 0))) == 0
    assert dimension(P((1, 0, 1))) == 2
    assert coweight(P((2, 1, 1))) == (3, -1, -2)  # (n1+n2, n3-n1, -n2-n3)


def test_dimension_braid_invariant():
    for n in itertools.product(range(6), repeat=3):
        d = LusztigDatum("121", n)
        nb = braid(d).n
        assert n[0] + 2 * n[1] + n[2] == nb[0] + 2 * nb[1] + nb[2]
        assert coweight(MVPolytope.from_datum(d)) == \
            coweight(MVPolytope.from_datum(braid(d)))


def test_crystal_coweight_steps():
    # with the operators as printed (last letter of the word ending in i),
    # F_i moves the coweight by the coroot of the other index
    a1, a2 = (1, -1, 0), (0, 1, -1)
    for n in ((2, 1, 1), (1, 1, 0), (3, 0, 2)):
        base = coweight(P(n))
        assert sub_cw(coweight(crystal_F(1, P(n))), base) == a2
        assert sub_cw(coweight(crystal_F(2, P(n))), base) == a1

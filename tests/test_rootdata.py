import itertools

import pytest

from affgrass.errors import InconsistentFamily
from affgrass.rootdata import (BORELS, CHAMBERS, GTFamily, IDENT, S1, W0,
                               add_cw, contains,
                               family_from_support, iota_family, pairing,
                               perm_mul, scale_cw, sub_cw, tighten_support, weyl_family)
from affgrass.mvcomb import LusztigDatum, MVPolytope

from reference import act, eq_up_to_translation, lattice_points_by_scan, tighten_support_by_passes


def P(n, base=None):
    return MVPolytope.from_datum(LusztigDatum("121", n), base=base).family


# ---------------------------------------------------------------------------
# vertex forms: the family check and operations stated on the six vertices,
# the reference for the support forms of GTFamily
# ---------------------------------------------------------------------------

# separating coroot between clockwise-adjacent Borels b and b+1 (mod 6):
# lambda_b - lambda_{b+1} must be a nonnegative multiple of it
_SEP = ((0, 1, -1), (1, 0, -1), (1, -1, 0), (0, -1, 1), (-1, 0, 1), (-1, 1, 0))

# one Borel whose vertex determines each chamber's support number
_CHAMBER_VERTEX = (0, 5, 3, 0, 1, 3)


def _multiple_of(d, unit):
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


def _vertex_edge_lengths(verts):
    return tuple(_multiple_of(sub_cw(verts[b], verts[(b + 1) % 6]), _SEP[b]) for b in range(6))


def _vertex_check(nu, verts):
    """Six coweights on the nu fiber, adjacent ones positively orthogonal."""
    return (all(sum(v) == nu for v in verts)
            and all(k is not None and k >= 0 for k in _vertex_edge_lengths(verts)))


def _vertex_support(verts):
    return tuple(pairing(verts[_CHAMBER_VERTEX[ci]], S) for ci, S in enumerate(CHAMBERS))


def _vertex_translate(verts, chi):
    return tuple(add_cw(v, chi) for v in verts)


def _vertex_weyl(verts, w):
    out = [None] * 6
    for b in range(6):
        out[BORELS.index(perm_mul(w, BORELS[b]))] = act(w, verts[b])
    return tuple(out)


def _vertex_iota(verts):
    out = [None] * 6
    for b in range(6):
        out[BORELS.index(perm_mul(BORELS[b], W0))] = scale_cw(-1, verts[b])
    return tuple(out)


def test_from_vertices_accepts_exactly_the_vertex_check():
    # every six-tuple of the seven sum-0 vectors in {-1,0,1}^3
    box = [v for v in itertools.product((-1, 0, 1), repeat=3) if sum(v) == 0]
    accepted = 0
    for verts in itertools.product(box, repeat=6):
        try:
            fam = GTFamily.from_vertices(0, verts)
        except InconsistentFamily:
            assert not _vertex_check(0, verts), verts
            continue
        assert _vertex_check(0, verts), verts
        assert fam.vertices == verts
        assert fam.support == _vertex_support(verts)
        assert fam.edge_lengths() == _vertex_edge_lengths(verts)
        accepted += 1
    assert accepted == 41


def test_support_forms_match_vertex_forms():
    # MV polytopes with n_i <= 3, under every Weyl twist, then translated or flipped
    for n in itertools.product(range(4), repeat=3):
        f = P(n)
        for w in BORELS:
            g = f.weyl(w)
            forms = [(g, f.nu, _vertex_weyl(f.vertices, w))]
            forms += [(g.translate(chi), g.nu + sum(chi), _vertex_translate(g.vertices, chi))
                      for chi in ((1, 0, 0), (0, -2, 1), (3, 1, -1))]
            forms.append((iota_family(g), -g.nu, _vertex_iota(g.vertices)))
            for h, nu, verts in forms:
                assert _vertex_check(nu, verts)
                assert (h.nu, h.vertices) == (nu, verts)
                assert h.support == _vertex_support(verts)
                assert h.edge_lengths() == _vertex_edge_lengths(verts)


def test_pairing():
    assert pairing((1, 0, 0), {1}) == 1
    assert pairing((2, 1, -1), {1, 2}) == 3
    assert all(pairing((0, 0, 0), S) == 0 for S in CHAMBERS)


def test_two_triangle_vertex_set():
    fam = P((2, 1, 1), base=(-1, 1, 1))
    assert set(fam.vertices) == {(0, 2, -1), (2, 0, -1), (-1, 2, 0),
                                 (2, -1, 0), (-1, 1, 1), (1, -1, 1)}
    # reconstruct from its own support numbers
    assert family_from_support(fam.support, fam.nu) == fam


def test_zero_family():
    fam = family_from_support([0] * 6, 0)
    assert set(fam.vertices) == {(0, 0, 0)}


def test_infeasible_support_rejected():
    W = weyl_family((1, 0, 0))
    M = list(W.support)
    M[3] -= 1  # dent the {1,2} half-space below feasibility
    with pytest.raises(InconsistentFamily):
        family_from_support(M, W.nu)
    # brute-force oracle: no positive orthogonal family over a small box
    # attains exactly these support numbers
    box = [v for v in itertools.product(range(-1, 3), repeat=3) if sum(v) == W.nu]
    found = False
    for verts in itertools.product(box, repeat=6):
        try:
            fam = GTFamily.from_vertices(W.nu, verts)
        except InconsistentFamily:
            continue
        if list(fam.support) == M:
            found = True
            break
    assert not found


def test_inconsistent_family_messages():
    # the message is formatted when read, from the fields the error keeps
    W = weyl_family((1, 0, 0))
    with pytest.raises(InconsistentFamily) as e:
        family_from_support((1, 1, 1, 0, 1, 1), W.nu)
    assert str(e.value) == ("support (1, 1, 1, 0, 1, 1) on the nu=1 fiber gives the edge "
                            "between chambers 0,1 the negative length -1")
    with pytest.raises(InconsistentFamily) as e:
        GTFamily.from_vertices(1, ((1, 0, 0),) * 5 + ((0, 1, 0),))
    assert e.value.args[1:] == ((1, 0, 0), 4, (1, 1, -1), 1)
    assert str(e.value) == ("vertex (1, 0, 0) at chamber 4 is not (1, 1, -1), where the "
                            "support puts it: not a positive orthogonal family on the nu=1 fiber")
    assert str(InconsistentFamily("a {plain} message")) == "a {plain} message"


def test_family_from_support_reads_back_its_support():
    # each support number is read back from a vertex built from it, so a
    # support vector either fails the family invariants or comes back unchanged
    feasible = 0
    for nu in (-1, 0, 2):
        for M in itertools.product((-1, 0, 1), repeat=6):
            try:
                fam = family_from_support(M, nu)
            except InconsistentFamily:
                continue
            assert fam.support == M
            feasible += 1
    assert feasible > 0


def test_contains():
    f = P((1, 0, 0))
    assert contains(f, f)
    big = P((2, 0, 0), base=f.vertex(3))
    assert contains(big, f) and not contains(f, big)
    with pytest.raises(ValueError):
        contains(f, weyl_family((1, 0, 0)))


def test_contains_partial_order():
    pool = [P((1, 0, 0)), P((1, 0, 1)), P((1, 1, 1)), P((2, 1, 1))]
    base = pool[0].vertex(3)
    pool = [f.translate(tuple(b - a for a, b in zip(f.vertex(3), base)))
            for f in pool]
    for f in pool:
        assert contains(f, f)
    for f, g in itertools.product(pool, repeat=2):
        if contains(f, g) and contains(g, f):
            assert f.support == g.support
    for f, g, h in itertools.product(pool, repeat=3):
        if contains(f, g) and contains(g, h):
            assert contains(f, h)


def test_lattice_points_examples():
    fam = P((1, 0, 0), base=(0, 1, 0))  # the two-triangle anchoring
    assert fam.lattice_points() == [(0, 1, 0), (1, 0, 0)]
    assert family_from_support([0] * 6, 0).lattice_points() == [(0, 0, 0)]
    W = weyl_family((1, 0, 0))
    assert set(W.lattice_points()) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_lattice_points_against_plain_enumeration():
    fam = P((2, 1, 1))
    M = fam.support
    brute = []
    for v in itertools.product(range(-6, 7), repeat=3):
        if sum(v) != fam.nu:
            continue
        if all(pairing(v, S) <= M[ci] for ci, S in enumerate(CHAMBERS)):
            brute.append(v)
    assert sorted(brute) == fam.lattice_points()
    for b in range(6):
        assert fam.vertex(b) in brute


def test_lattice_points_match_box_scan():
    # the closed form reads the six facets as bounds on v1 and v2: the same
    # sorted list as the box scan on every consistent family with support in
    # {-1..3}^6 and nu in {-1..2}, and the points of the nu plane around it
    # that contains_point accepts
    plane = {nu: [(a, b, nu - a - b) for a in range(-5, 5) for b in range(-5, 5)]
             for nu in range(-1, 3)}
    fams = 0
    for nu in range(-1, 3):
        for M in itertools.product(range(-1, 4), repeat=6):
            try:
                f = GTFamily(nu, M)
            except InconsistentFamily:
                continue
            fams += 1
            assert f.lattice_points() == lattice_points_by_scan(f), (nu, M)
            assert [v for v in plane[nu] if f.contains_point(v)] == f.lattice_points(), (nu, M)
    assert fams == 6928


def test_tighten_support_matches_lattice_points():
    # every facet drop of MV polytopes with n_i <= 3 under all Weyl twists and
    # of Weyl-polytope supports each lowered by 0 to 2: the tightened support is
    # the largest pairings of the lattice points off the facet, and no point is
    # left exactly when m_S + m_{S^c} = nu
    fams = [P(n).weyl(w) for n in itertools.product(range(4), repeat=3) for w in BORELS]
    for lam in ((2, 1, 0), (3, 1, 0), (4, 2, 0), (3, 0, 0), (4, 1, -1)):
        top = weyl_family(lam).support
        for drop in itertools.product(range(3), repeat=6):
            try:
                fams.append(family_from_support([m - k for m, k in zip(top, drop)], sum(lam)))
            except InconsistentFamily:
                pass
    drops = 0
    for f in fams:
        pts, m = f.lattice_points(), f.support
        for ci, S in enumerate(CHAMBERS):
            rest = [v for v in pts if pairing(v, S) < m[ci]]
            lowered = m[:ci] + (m[ci] - 1,) + m[ci + 1:]
            assert (m[ci] + m[5 - ci] == f.nu) == (not rest), (m, ci)
            if rest:
                want = tuple(max(pairing(v, T) for v in rest) for T in CHAMBERS)
                assert tighten_support(lowered, f.nu) == want, (m, ci)
                drops += 1
            else:
                with pytest.raises(InconsistentFamily):
                    tighten_support(lowered, f.nu)
    assert (len(fams), drops) == (1309, 7518)


def test_tighten_support_matches_passes():
    # one pass against the loop to a fixed point on every support in {-2..3}^6
    # with nu in {-2..2}: the same tuple, or both raise (None)
    def outcome(tighten, M, nu):
        try:
            return tighten(M, nu)
        except InconsistentFamily:
            return None

    raised = 0
    for nu in range(-2, 3):
        for M in itertools.product(range(-2, 4), repeat=6):
            want = outcome(tighten_support_by_passes, M, nu)
            assert outcome(tighten_support, M, nu) == want, (M, nu)
            raised += want is None
    assert raised == 152312


def test_weyl_act_and_translate():
    fam = P((2, 1, 1), base=(-1, 1, 1))
    assert fam.weyl(IDENT) is fam
    flipped = fam.weyl(W0)
    assert sorted(flipped.vertices) == sorted(tuple(reversed(v))
                                              for v in fam.vertices)
    assert fam.translate((1, -2, 0)).translate((-1, 2, 0)) == fam


def test_weyl_act_composes_on_supports():
    fam = P((2, 1, 0))
    g = fam.weyl(S1)
    assert sorted(g.vertices) == sorted(tuple((v[1], v[0], v[2]))
                                        for v in fam.vertices)


def test_adjacent_gap_positivity_enforced():
    with pytest.raises(InconsistentFamily):
        GTFamily.from_vertices(0, tuple([(1, -1, 0), (0, 0, 0), (0, 0, 0),
                                         (0, 0, 0), (0, 0, 0), (0, 0, 0)]))


def test_iota_vs_datum_reversal():
    # transpose-inverse reverses each edge path, so it reverses the 212-datum
    # read as a 121-datum: datum121(iota P(n)) = braid(reverse(n))
    from affgrass.mvcomb import braid, LusztigDatum, MVPolytope
    for n in ((2, 1, 0), (1, 1, 1), (2, 1, 1), (0, 2, 1)):
        flipped = iota_family(P(n))
        rev = braid(LusztigDatum("121", tuple(reversed(n))))
        Q = MVPolytope.from_family(flipped)
        assert Q.datum121.n == rev.n
        assert Q.datum212.n == tuple(reversed(n))
        assert eq_up_to_translation(flipped, P(rev.n))

"""Reference constructions the tests compare the library against.

No library code calls these: each is the slow, direct form of something the
library computes another way (series matrices in place of the integer
kernels, vertices in place of supports).
"""
import itertools

from affgrass.errors import PrecisionLoss
from affgrass.grass import (GrassPoint, canonicalize_point, mat, mat_diag_eps, mat_identity,
                            mat_inv, mat_mul, minor, root_elem)
from affgrass.laurent import INF, LaurentSeries, PrimeField, eps, zero
from affgrass.rootdata import CHAMBERS, pairing, sub_cw

_SUBSETS = {1: ((1,), (2,), (3,)), 2: ((1, 2), (1, 3), (2, 3))}


def dprofile_matrix(g):
    """D_S for all six chamber weights, computed from minors of g^-1."""
    gi = mat_inv(g)
    out = []
    for S in CHAMBERS:
        cols = sorted(S)
        leads, bounds = [], []
        for J in _SUBSETS[len(cols)]:
            m = minor(gi, J, cols)
            if m.nonzero:
                leads.append(m.lead)
            elif not m.is_exact_zero:
                bounds.append(m.prec)
        best = min(leads) if leads else INF
        if any(b <= best for b in bounds):
            raise PrecisionLoss(f"D for columns {cols} undetermined at working precision")
        out.append(best)
    return tuple(out)


def translate_point(x, chi):
    """The point eps^chi . x, canonicalized through the series Hermite form."""
    return canonicalize_point(mat_mul(mat_diag_eps(x.field, chi), x.h))


def curve_point(field, a, k, v):
    """A nonfixed point of the 1-dimensional orbit joining v and v - k.coroot(a)."""
    n = pairing(v, (a[0],)) - pairing(v, (a[1],)) - k
    g = mat_mul(root_elem(field, a, eps(field, n)), mat_diag_eps(field, v))
    return canonicalize_point(g)


def member_springer_matrix(g, gamma):
    """Springer membership of an arbitrary representative: g^-1 gamma g integral."""
    field = gamma.field
    z = zero(field)
    gm = ((gamma.gamma[0], z, z), (z, gamma.gamma[1], z), (z, z, gamma.gamma[2]))
    conj = mat_mul(mat_mul(mat_inv(g), gm), g)
    return all(conj[i][j].effval() >= 0 for i in range(3) for j in range(3))


def eq_up_to_translation(f, g):
    chi = sub_cw(g.vertices[0], f.vertices[0])
    return f.translate(chi) == g


def cell_points_by_matrices(field, diag, windows, inverted=False):
    """Canonical forms of u . eps^diag by LaurentSeries matrices and _hnf_lower."""
    # Hermite reduction inverts unit pivots to work.prec terms; one more than
    # the exponent range of g's entries (windows shifted by diag) was enough
    # on every contracting cell with n_i <= 3, dim <= 7 (most need 1 to 4).
    # Too little precision raises PrecisionLoss; it cannot give a wrong point.
    exps = list(diag) + [e + diag[c - 1] for (_r, c, lo, hi) in windows for e in (lo, hi)]
    work = PrimeField(field.p, max(exps) - min(exps) + 1)
    ranges = [max(0, hi - lo) for (_r, _c, lo, hi) in windows]
    pts = set()
    for coeff_sets in itertools.product(
            *[itertools.product(range(field.p), repeat=k) for k in ranges]):
        u = [list(r) for r in mat_identity(work)]
        for (r, c, lo, _hi), cs in zip(windows, coeff_sets):
            u[r - 1][c - 1] = LaurentSeries(work, lo, cs)
        m = mat_inv(mat(u)) if inverted else mat(u)
        x = canonicalize_point(mat_mul(m, mat_diag_eps(work, diag)))
        pts.add(GrassPoint(field, x.d, x.entries))
    return pts

"""Integer Hermite form of exact Laurent-polynomial matrices over F_p.

Entries are the (lead, coeffs) normal forms of ``laurent``, as in
``grass.GrassPoint``, and every sum, product and unit inverse is a ``laurent``
kernel.  Every point built from a matrix is built here, with no
``LaurentSeries``: explicit cell coordinates (``paving._cell_points``),
``grass.point_from_y`` from y_word(t)^-1 cut below the exponents its precision
rule says the coset reads, and ``grass.canonicalize_point`` from the known
terms of a series matrix, its precision rule read off ``_adjugate``.
"""
from __future__ import annotations

from typing import Sequence, Tuple

from .errors import PreconditionViolated, SingularMatrix
from .laurent import INF, ONE_ENTRY, ZERO_ENTRY, Entry, _add, _entry, _inv, _mul


def _times(x: Entry, y: Entry, p: int, top=INF) -> Entry:
    """x * y in normal form, its coefficients below exponent top."""
    if not (x[1] and y[1]):
        return ZERO_ENTRY
    if x[1] == (1,) or y[1] == (1,):
        # a monomial eps^k only shifts the other factor
        (k, _one), (lead, cs) = (x, y) if x[1] == (1,) else (y, x)
        if k + lead + len(cs) <= top:
            return (k + lead, cs)
    return _entry(*_mul(x, y, p, top))


def _over_unit(x: Entry, u: Tuple[int, ...], top: int, p: int) -> Entry:
    """x / u below exponent top, u the coefficients of a unit of O."""
    if not x[1] or x[0] >= top:
        return ZERO_ENTRY
    # a one-term unit has a one-term inverse
    return _times(x, _entry(0, _inv(u, top - x[0] if len(u) > 1 else 1, p)), p, top)


def hermite_entries(g: Sequence[Sequence[Entry]], p: int):
    """The canonical data (d, (h21, h31, h32)) of the coset gK, g a nonsingular
    matrix of exact Laurent polynomials over F_p given by its entries.

    Fraction-free column elimination: column j is cleared in row i against the
    pivot eps^v U by col_j := col_j U - col_i (g_ji / eps^v), a right
    multiplication by GL3(O), so every entry stays a polynomial.  The diagonal
    ends as eps^(d_r) U_r, and the only series inverses are of the units U_r,
    cut where the reduction modulo eps^d stops reading: h32 and h31 below
    eps^d3, and h21 with its quotient below eps^(d2 + max(0, d3 - lead h32)).
    """
    cols = [[g[r][c] for r in range(3)] for c in range(3)]
    for i in range(3):
        piv = [j for j in range(i, 3) if cols[j][i][1]]
        if not piv:
            raise SingularMatrix("no pivot: matrix is singular")
        j = min(piv, key=lambda j: cols[j][i][0])
        cols[i], cols[j] = cols[j], cols[i]
        v, unit = cols[i][i]
        for j in range(i + 1, 3):
            lead, cs = cols[j][i]
            if cs:
                cols[j] = [ZERO_ENTRY] * (i + 1) + [
                    _add(a if unit == (1,) else _times(a, (0, unit), p),
                         _times(b, (lead - v, cs), p), p, -1)
                    for a, b in zip(cols[j][i + 1:], cols[i][i + 1:])]
    (d1, u1), (d2, u2), (d3, _u3) = cols[0][0], cols[1][1], cols[2][2]
    h32 = _over_unit(cols[1][2], u2, d3, p)
    n21 = _over_unit(cols[0][1], u1, d2 + (d3 - h32[0] if h32[1] else 0), p)
    # h21 is n21 below eps^d2; the rest, over eps^d2, is the multiple q of
    # column 2 taken off column 1, and q h32 enters h31
    k = max(0, d2 - n21[0])
    h21, q = _entry(n21[0], n21[1][:k]), _entry(n21[0] + k - d2, n21[1][k:])
    h31 = _add(_over_unit(cols[0][2], u1, d3, p), _times(q, h32, p, d3), p, -1)
    return (d1, d2, d3), (h21, h31, h32)


def _adjugate(g: Sequence[Sequence[Entry]], p: int):
    """adj(g) as entries, so that g adj(g) = det(g)."""
    def cof(i, j):  # signed, by cyclic indices
        r0, r1, c0, c1 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        return _add(_times(g[r0][c0], g[r1][c1], p), _times(g[r0][c1], g[r1][c0], p), p, -1)
    return [[cof(j, i) for j in range(3)] for i in range(3)]


def unipotent_inverse(u: Sequence[Sequence[Entry]], p: int):
    """u^-1 as entries: the adjugate, u being of determinant 1."""
    adj = _adjugate(u, p)
    det = ZERO_ENTRY
    for j in range(3):
        det = _add(det, _times(u[0][j], adj[j][0], p), p)
    if det != ONE_ENTRY:
        raise PreconditionViolated(f"u has determinant {det}, not 1")
    return adj

import random

import pytest

from affgrass.errors import DivisionByZero, PrecisionLoss
from affgrass.laurent import (INF, ZERO_ENTRY, LaurentSeries, PrimeField, _SHORT, _add, _entry,
                              _inv, _mul, eps, one, random_with_val, series_from_json, val, zero)

from reference import agrees, coeff, exact, inv_schoolbook, mul_schoolbook

F2 = PrimeField(2, 16)
F5 = PrimeField(5, 32)
FBIG = PrimeField(10007, 64)


def test_val_examples():
    assert val(eps(F5, 2) + eps(F5, 3)) == 2
    assert val(zero(F5)) == INF
    assert val(eps(F5) - eps(F5)) == INF  # exact cancellation


def test_val_truncated_zero_raises():
    x = LaurentSeries(F5, 0, (), prec=8)
    with pytest.raises(PrecisionLoss):
        val(x)


def test_add_mul_examples():
    x = one(F5) + eps(F5)
    assert x + LaurentSeries(F5, 0, (-1,)) == eps(F5)
    assert eps(F5) * eps(F5, 2) == eps(F5, 3)
    y = one(F2) + eps(F2)
    assert (y + y).is_exact_zero  # characteristic 2


def test_inv_examples():
    assert eps(F5).inv() == eps(F5, -1)
    g = (one(F2) + eps(F2)).inv()
    assert [coeff(g, k) for k in range(4)] == [1, 1, 1, 1]
    with pytest.raises(DivisionByZero):
        zero(F2).inv()


def test_inv_precision_default():
    x = one(FBIG) + eps(FBIG)
    y = x.inv()
    assert y.prec == FBIG.prec
    assert agrees(x * y, one(FBIG))


def test_random_with_val():
    rng = random.Random(1)
    x = random_with_val(F2, 0, rng)
    assert coeff(x, 0) == 1  # only unit in F_2
    y = random_with_val(F5, 3, rng)
    assert y.lead == 3 and y.coeffs[0] != 0
    draws = {random_with_val(FBIG, 1, rng).coeffs for _ in range(10)}
    assert len(draws) > 1


def test_random_with_val_needs_room():
    with pytest.raises(PrecisionLoss):
        random_with_val(F2, 20, random.Random(0))


def test_ultrametric_bulk():
    rng = random.Random(2)
    for _ in range(10_000):
        a = random_with_val(F5, rng.randrange(-5, 6), rng)
        b = random_with_val(F5, rng.randrange(-5, 6), rng)
        s = a + b
        lo = min(val(a), val(b))
        assert s.effval() >= lo
        if val(a) != val(b):
            assert val(s) == lo
        assert val(a * b) == val(a) + val(b)


def test_inv_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        x = random_with_val(FBIG, rng.randrange(-4, 5), rng)
        assert agrees(x.inv().inv(), x)


def test_precision_soundness_stress():
    # exact bounded-degree inputs at the default precision never lose track
    # while intermediate valuations stay below half the precision
    rng = random.Random(4)
    for _ in range(200):
        vals = [LaurentSeries(FBIG, rng.randrange(-3, 4),
                              [rng.randrange(1, FBIG.p)] +
                              [rng.randrange(FBIG.p) for _ in range(6)])
                for _ in range(3)]
        acc = vals[0]
        for _ in range(12):
            op = rng.randrange(4)
            other = rng.choice(vals)
            if op == 0:
                acc = acc + other
            elif op == 1:
                acc = acc * other
            elif op == 2:
                acc = -acc
            elif acc.nonzero and abs(acc.lead) < FBIG.prec // 2:
                acc = acc.inv()
        assert acc.effval() > -FBIG.prec


def test_exact_flags_propagate():
    a, b = eps(F5, 2), one(F5)
    assert exact(a * b) and exact(a + b)
    c = LaurentSeries(F5, 0, (1, 1), prec=10)
    assert not exact(a * c)


def test_json_round_trip():
    x = LaurentSeries(F5, -2, (3, 0, 1), prec=9)
    assert series_from_json(F5, x.to_json()) == x
    y = eps(F5, 4)
    assert series_from_json(F5, y.to_json()) == y
    assert y.to_json()["prec"] == "exact"


def _fields(x):
    return x.lead, x.coeffs, x.prec


def _series(field, rng, length, truncated, top=None):
    """Nonzero series with ``length`` stored coefficients, exact or truncated
    at most two places past its last one; ``top`` fixes every coefficient."""
    lead = rng.randrange(-3, 4)
    cs = [top or rng.randrange(field.p) for _ in range(length)]
    cs[0] = top or rng.randrange(1, field.p)
    cs[-1] = top or rng.randrange(1, field.p)
    prec = lead + length + rng.randrange(3) if truncated else None
    return LaurentSeries(field, lead, cs, prec)


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_mul_and_inv_match_schoolbook(p):
    # operand lengths 1..70 against short, equal and random partners cross the
    # plain-loop threshold from both sides, exact and truncated
    field = PrimeField(p, 72)
    rng = random.Random(f"conv:{p}")
    for la in range(1, 71):
        for lb in (1, 7, 8, la, rng.randrange(1, 71)):
            for ta, tb in ((False, False), (True, False), (False, True), (True, True)):
                a, b = _series(field, rng, la, ta), _series(field, rng, lb, tb)
                assert _fields(a * b) == _fields(mul_schoolbook(a, b))
        for truncated in (False, True):
            a = _series(field, rng, la, truncated)
            assert _fields(a.inv()) == _fields(inv_schoolbook(a))


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_truncated_zero_products_and_inverses_match_schoolbook(p):
    field = PrimeField(p, 64)
    rng = random.Random(f"zero:{p}")
    for k in (-2, 0, 5):
        z = LaurentSeries(field, 0, (), prec=k)
        for length in (1, 8, 40):
            a = _series(field, rng, length, length % 2 == 0)
            assert _fields(z * a) == _fields(mul_schoolbook(z, a))
            assert _fields(a * z) == _fields(mul_schoolbook(a, z))
        with pytest.raises(PrecisionLoss):
            z.inv()
        with pytest.raises(PrecisionLoss):
            inv_schoolbook(z)


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_widest_slots_match_schoolbook(p):
    # every coefficient p - 1 at length 64: each product coefficient reaches
    # its largest value, so a slot too narrow would carry into the next
    field = PrimeField(p, 64)
    rng = random.Random(f"carry:{p}")
    for ta, tb in ((False, False), (True, False), (True, True)):
        a = _series(field, rng, 64, ta, top=p - 1)
        b = _series(field, rng, 64, tb, top=p - 1)
        assert _fields(a * b) == _fields(mul_schoolbook(a, b))
        assert _fields(a.inv()) == _fields(inv_schoolbook(a))


# The entry kernels against term-by-term references on exponent -> coefficient
# maps.  Entries are exact Laurent polynomials (lead, coeffs), coeffs in [0, p).

def _entry_of(terms, p, top=INF):
    """The normal form of the polynomial sum c eps^k over terms {k: c}, below top."""
    ks = [k for k, c in terms.items() if c % p and k < top]
    if not ks:
        return ZERO_ENTRY
    return min(ks), tuple(terms.get(k, 0) % p for k in range(min(ks), max(ks) + 1))


def _terms(x):
    return {x[0] + i: c for i, c in enumerate(x[1])}


def _random_entry(rng, p, length):
    if not length:
        return ZERO_ENTRY
    cs = [rng.randrange(p) for _ in range(length)]
    cs[0], cs[-1] = rng.randrange(1, p), rng.randrange(1, p)
    return rng.randrange(-4, 5), tuple(cs)


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_entry_inv_matches_schoolbook(p):
    # units of 1..12 terms to n = 0..20 terms cross _SHORT in both arguments;
    # n <= 1 is what hermite._over_unit asks of a one-term unit
    field = PrimeField(p)
    rng = random.Random(f"inv:{p}")
    assert 12 > _SHORT and 20 > _SHORT
    for length in range(1, 13):
        for n in range(21):
            f = _random_entry(rng, p, length)[1]
            g = _inv(f, n, p)
            assert len(g) == n and all(0 <= c < p for c in g)
            if n:
                want = inv_schoolbook(LaurentSeries(field, 0, f, prec=n))
                assert _entry(0, g) == (want.lead, want.coeffs)


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_entry_add_matches_schoolbook(p):
    rng = random.Random(f"add:{p}")
    for _ in range(400):
        x = _random_entry(rng, p, rng.randrange(6))
        y = _random_entry(rng, p, rng.randrange(6))
        for sign in (1, -1):
            terms = _terms(x)
            for k, c in _terms(y).items():
                terms[k] = terms.get(k, 0) + sign * c
            assert _add(x, y, p, sign) == _entry_of(terms, p)
        # full cancellation, either way round
        assert _add(x, x, p, -1) == ZERO_ENTRY
        neg = (x[0], tuple(-c % p for c in x[1])) if x[1] else x
        assert _add(x, neg, p) == _add(neg, x, p) == ZERO_ENTRY


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_entry_mul_matches_schoolbook(p):
    # top above, at and below the product's lead; below it nothing is kept
    rng = random.Random(f"mul:{p}")
    for _ in range(300):
        x = _random_entry(rng, p, rng.randrange(1, 12))
        y = _random_entry(rng, p, rng.randrange(1, 12))
        lead = x[0] + y[0]
        terms = {}
        for i, a in _terms(x).items():
            for j, b in _terms(y).items():
                terms[i + j] = terms.get(i + j, 0) + a * b
        for top in (INF, lead + len(x[1]) + len(y[1]) + 1, lead + rng.randrange(1, 6),
                    lead + 1, lead, lead - 3):
            m = _mul(x, y, p, top)
            assert m[0] == lead and all(0 <= c < p for c in m[1])
            assert len(m[1]) == max(0, min(len(x[1]) + len(y[1]) - 1, top - lead))
            assert _entry(*m) == _entry_of(terms, p, top)

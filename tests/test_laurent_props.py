"""Ring laws of exact Laurent polynomials, and products against sympy."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from affgrass.laurent import LaurentSeries, PrimeField  # noqa: E402

PRIMES = (2, 3, 5, 7, 10007)

# a fixed example sequence keeps the suite reproducible
laws = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def polys(draw, n):
    """n exact Laurent polynomials over one prime field."""
    field = PrimeField(draw(st.sampled_from(PRIMES)))
    out = []
    for _ in range(n):
        lead = draw(st.integers(-6, 6))
        # lengths up to 40 reach both sides of the plain-loop threshold of products
        size = draw(st.integers(0, 40))
        coeffs = draw(st.lists(st.integers(0, field.p - 1), min_size=size, max_size=40))
        out.append(LaurentSeries(field, lead, coeffs))
    return out


@laws
@given(polys(2))
def test_commutative(ab):
    a, b = ab
    assert a + b == b + a
    assert a * b == b * a


@laws
@given(polys(3))
def test_associative(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@laws
@given(polys(3))
def test_distributive(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c


@laws
@given(polys(1))
def test_additive_inverse_is_exact_zero(a):
    (a,) = a
    assert (a + (-a)).is_exact_zero


@laws
@given(polys(2))
def test_product_matches_sympy(ab):
    a, b = ab
    p = a.field.p
    x = sympy.symbols("x")

    def poly(s):
        # eps^lead * (c0 + c1 x + ...), highest degree first for sympy
        return sympy.Poly(list(reversed(s.coeffs)) or [0], x, modulus=p)

    want = [int(c) % p for c in reversed((poly(a) * poly(b)).all_coeffs())]
    assert a * b == LaurentSeries(a.field, a.lead + b.lead, want)

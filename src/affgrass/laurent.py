"""Exact Laurent polynomials and truncated Laurent series over a prime field.

A ``LaurentSeries`` is an element of F_p((eps)) known modulo eps^prec, its
coefficients stored densely from the lead exponent; ``prec is None`` means an
exact Laurent polynomial.  An entry ``(lead, coeffs)`` is the normal form of
an exact Laurent polynomial (coeffs in [0, p), first and last nonzero, zero is
``(0, ())``); points and cells work on entries.  Series and entries share one
kernel per operation: ``_entry`` (normal form), ``_add`` (aligned sum),
``_conv`` (products, not reduced mod p) and ``_inv`` (unit inverses).  Below
``_SHORT`` terms ``_conv`` is a plain loop and ``_inv`` solves f g = 1 term by
term.  Longer products use Kronecker substitution: each coefficient list is
packed into one integer whose byte-aligned slots are wide enough that no
product coefficient carries into the next, so one big-integer multiply gives
them all.  Longer inverses are Newton iteration on ``_conv``,
g <- g (2 - f g) mod eps^k, with k doubling up to the wanted length.
"""
from __future__ import annotations

import math
import random
from itertools import repeat, zip_longest
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import DivisionByZero, PrecisionLoss

INF = math.inf

Entry = Tuple[int, Tuple[int, ...]]
ZERO_ENTRY: Entry = (0, ())
ONE_ENTRY: Entry = (0, (1,))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


_SHORT = 8  # below this many terms the plain loops are faster


def _entry(lead: int, cs: Sequence[int]) -> Entry:
    """The normal form of sum cs[i] eps^(lead + i), each cs[i] in [0, p)."""
    i, j = 0, len(cs)
    while i < j and not cs[i]:
        i += 1
    while j > i and not cs[j - 1]:
        j -= 1
    return (lead + i, tuple(cs[i:j])) if i < j else ZERO_ENTRY


def _add(x: Entry, y: Entry, p: int, sign: int = 1) -> Entry:
    """x + sign * y in normal form."""
    if not y[1]:
        return x
    if not x[1]:
        return y if sign == 1 else (y[0], tuple(-c % p for c in y[1]))
    lead = min(x[0], y[0])
    out = [0] * (max(x[0] + len(x[1]), y[0] + len(y[1])) - lead)
    out[x[0] - lead:x[0] - lead + len(x[1])] = x[1]
    for i, c in enumerate(y[1], y[0] - lead):
        out[i] = (out[i] + sign * c) % p
    return _entry(lead, out)


def _mul(x: Entry, y: Entry, p: int, top=INF) -> Entry:
    """Product of two nonzero entries, its coefficients below exponent top;
    trailing zeros are not stripped."""
    (lx, cx), (ly, cy) = x, y
    n = max(0, min(len(cx) + len(cy) - 1, top - lx - ly))
    return lx + ly, tuple([c % p for c in _conv(cx, cy, n, p)])


def _val_diff(x: Entry, y: Entry) -> Union[int, float]:
    """val(x - y) for two nonzero entries with the same lead."""
    pairs = zip_longest(x[1], y[1], fillvalue=0)
    return next((x[0] + k for k, (a, b) in enumerate(pairs) if a != b), INF)


def _conv(x, y, n: int, p: int) -> list:
    """The first n coefficients of the product of coefficient lists x and y,
    not reduced mod p.  Both lists hold residues in [0, p), which bounds the
    slot width below."""
    if len(x) > len(y):
        x, y = y, x
    x = x[:n]
    if len(x) < _SHORT:
        cs = [0] * n
        for i, a in enumerate(x):
            if a:
                for k, b in enumerate(y[:n - i], i):
                    cs[k] += a * b
        return cs
    y = y[:n]
    # a product coefficient is a sum of at most len(x) terms below p^2
    w = (2 * (p - 1).bit_length() + len(x).bit_length() + 7) // 8

    def pack(cs):
        return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(w), repeat("little"))),
                              "little")
    z = (pack(x) * pack(y)).to_bytes(w * (len(x) + len(y)), "little")
    return [int.from_bytes(z[i:i + w], "little") for i in range(0, w * n, w)]


def _inv(f: Sequence[int], n: int, p: int) -> list:
    """The first n coefficients of 1/f, f a coefficient list with f[0] a unit,
    as residues mod p."""
    g = [pow(f[0], p - 2, p)]
    if len(f) < _SHORT or n < _SHORT:
        for k in range(1, n):
            g.append(-g[0] * sum(f[j] * g[k - j] for j in range(1, min(k + 1, len(f)))) % p)
        return g[:n]
    k = 1
    while k < n:
        # f g = 1 + eps^k h mod eps^k2, so g (2 - f g) = g - eps^k g h
        k2 = min(2 * k, n)
        h = [c % p for c in _conv(f, g, k2, p)[k:]]
        g += [-c % p for c in _conv(g, h, k2 - k, p)]
        k = k2
    return g


class PrimeField:
    """GF(p) together with a default working precision for series inverses."""

    __slots__ = ("p", "prec")

    def __init__(self, p: int, prec: int = 64):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if prec < 1:
            raise ValueError("precision must be positive")
        self.p = p
        self.prec = prec

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DivisionByZero("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p}, prec={self.prec})"


class LaurentSeries:
    """Immutable normalized series: lead coefficient nonzero, trailing zeros stripped."""

    __slots__ = ("field", "lead", "coeffs", "prec")

    def __init__(self, field: PrimeField, lead: int, coeffs: Iterable[int],
                 prec: Optional[int] = None):
        p = field.p
        cs = [c % p for c in coeffs]
        if prec is not None:
            # keep only coefficients below the absolute precision
            cs = cs[:max(0, prec - lead)]
        lead, cs = _entry(lead, cs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- basic structure ---------------------------------------------------
    @property
    def is_exact_zero(self) -> bool:
        return self.prec is None and not self.coeffs

    @property
    def nonzero(self) -> bool:
        """Known nonzero (some stored coefficient is nonzero)."""
        return bool(self.coeffs)

    def effval(self) -> Union[int, float]:
        """Known valuation, or a lower bound for a truncated zero."""
        if self.coeffs:
            return self.lead
        return INF if self.prec is None else self.prec

    def _prec_inf(self) -> Union[int, float]:
        return INF if self.prec is None else self.prec

    # -- ring operations ---------------------------------------------------
    def _plus(self, other: "LaurentSeries", sign: int) -> "LaurentSeries":
        """self + sign * other."""
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed prime fields")
        prec = min(self._prec_inf(), other._prec_inf())
        lead, cs = _add((self.lead, self.coeffs), (other.lead, other.coeffs), self.field.p, sign)
        return LaurentSeries(self.field, lead, cs, None if math.isinf(prec) else int(prec))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._plus(other, 1)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.field, self.lead, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._plus(other, -1)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed prime fields")
        prec = min(self.effval() + other._prec_inf(),
                   other.effval() + self._prec_inf())
        if not self.coeffs or not other.coeffs:
            return LaurentSeries(self.field, 0, (), None if math.isinf(prec) else int(prec))
        lead = self.lead + other.lead
        n = len(self.coeffs) + len(other.coeffs) - 1
        if not math.isinf(prec):
            n = min(n, int(prec) - lead)
        cs = _conv(self.coeffs, other.coeffs, n, self.field.p)
        return LaurentSeries(self.field, lead, cs, None if math.isinf(prec) else int(prec))

    def inv(self) -> "LaurentSeries":
        if not self.coeffs:
            if self.is_exact_zero:
                raise DivisionByZero("inverse of exact zero series")
            raise PrecisionLoss("inverse of a value that is zero up to precision")
        v = self.lead
        if self.prec is None and len(self.coeffs) == 1:
            return LaurentSeries(self.field, -v, (self.field.inv(self.coeffs[0]),), None)
        absprec = self.prec if self.prec is not None else v + self.field.prec
        rel = absprec - v
        if rel < 1:
            raise PrecisionLoss("no known coefficients to invert")
        return LaurentSeries(self.field, -v, _inv(self.coeffs, rel, self.field.p),
                             absprec - 2 * v)

    # -- precision helpers ---------------------------------------------------
    def as_exact_below(self, top: int) -> "LaurentSeries":
        """Truncate to exponents < top and certify the result exact.

        Valid when the true value is known to be a polynomial supported below
        ``top``; requires the stored precision to reach ``top``.
        """
        if self.prec is not None and self.prec < top:
            raise PrecisionLoss(f"need precision {top}, have {self.prec}")
        cs = [c for i, c in enumerate(self.coeffs) if self.lead + i < top]
        return LaurentSeries(self.field, self.lead, cs, None)

    # -- dunder plumbing -----------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, LaurentSeries) and self.field == other.field
                and self.lead == other.lead and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.field.p, self.lead, self.coeffs, self.prec))

    def __repr__(self):
        if not self.coeffs:
            return "0" if self.prec is None else f"O(eps^{self.prec})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                k = self.lead + i
                terms.append(f"{c}" if k == 0 else (f"{c}*eps^{k}" if c != 1 else f"eps^{k}"))
        s = " + ".join(terms)
        return s if self.prec is None else f"{s} + O(eps^{self.prec})"

    def to_json(self):
        return {"lead": self.lead, "coeffs": list(self.coeffs),
                "prec": "exact" if self.prec is None else self.prec}


def series_from_json(field: PrimeField, data) -> LaurentSeries:
    prec = data["prec"]
    return LaurentSeries(field, data["lead"], data["coeffs"],
                         None if prec == "exact" else int(prec))


def zero(field: PrimeField) -> LaurentSeries:
    return LaurentSeries(field, 0, (), None)


def one(field: PrimeField) -> LaurentSeries:
    return LaurentSeries(field, 0, (1,), None)


def eps(field: PrimeField, k: int = 1) -> LaurentSeries:
    return LaurentSeries(field, k, (1,), None)


def val(x: LaurentSeries) -> Union[int, float]:
    """Valuation; +inf for the exact zero; PrecisionLoss for a truncated zero."""
    if x.coeffs:
        return x.lead
    if x.prec is None:
        return INF
    raise PrecisionLoss("all stored coefficients vanish but the value is truncated")


def random_with_val(field: PrimeField, n: int, rng: random.Random,
                    exact: bool = False, tail: Optional[int] = None) -> LaurentSeries:
    """Uniform series with valuation exactly n (nonzero lead coefficient).

    With ``exact`` the result is a random Laurent polynomial with ``tail``
    extra coefficients; otherwise it is truncated at the field precision.
    """
    if not exact and field.prec <= n:
        raise PrecisionLoss(f"working precision {field.prec} too small for valuation {n}")
    length = (tail if tail is not None else 6) + 1 if exact else field.prec - n
    cs = [rng.randrange(1, field.p)]
    cs.extend(rng.randrange(field.p) for _ in range(length - 1))
    return LaurentSeries(field, n, cs, None if exact else field.prec)

"""Exact truncated Laurent series over a prime field.

A value represents an element of F_p((eps)).  Coefficients are stored densely
from the lead exponent.  ``prec`` is the absolute precision: the series is
known modulo eps^prec.  ``prec is None`` means the value is an exact Laurent
polynomial (no truncation anywhere).

Every product goes through ``_conv``, which returns the coefficients of the
integer product; the ``LaurentSeries`` constructor takes each of them mod p
once.  When the shorter operand has fewer than ``_SHORT`` (8) terms ``_conv``
is a plain loop; longer operands use Kronecker substitution, packing each
coefficient list into one integer whose byte-aligned slots are wide enough
that no coefficient of the product carries into the next, so one big-integer
multiply gives them all.  ``inv`` is Newton iteration on ``_conv``:
g <- g (2 - f g) mod eps^k, with k doubling up to the relative precision.
"""
from __future__ import annotations

import math
import operator
import random
from itertools import repeat
from typing import Iterable, Optional, Union

from .errors import DivisionByZero, PrecisionLoss

INF = math.inf


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


_SHORT = 8  # below this many terms in the shorter operand the plain loop is faster


def _conv(x, y, n: int, p: int) -> list:
    """The first n coefficients of the product of coefficient lists x and y,
    not reduced mod p.  Both lists hold residues in [0, p), which bounds the
    slot width below."""
    x, y = x[:n], y[:n]
    if len(x) > len(y):
        x, y = y, x
    if len(x) < _SHORT:
        cs = [0] * n
        for i, a in enumerate(x):
            if a:
                for k, b in enumerate(y[:n - i], i):
                    cs[k] += a * b
        return cs
    # a product coefficient is a sum of at most len(x) terms below p^2
    w = (2 * (p - 1).bit_length() + len(x).bit_length() + 7) // 8

    def pack(cs):
        return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(w), repeat("little"))),
                              "little")
    z = (pack(x) * pack(y)).to_bytes(w * (len(x) + len(y)), "little")
    return [int.from_bytes(z[i:i + w], "little") for i in range(0, w * n, w)]


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
        if prec is not None and cs:
            # keep only coefficients below the absolute precision
            keep = prec - lead
            if keep <= 0:
                cs = []
            elif keep < len(cs):
                cs = cs[:keep]
        while cs and cs[0] == 0:
            cs.pop(0)
            lead += 1
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lead", lead if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs))
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
    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.field != other.field:
            raise ValueError("mixed prime fields")
        prec = min(self._prec_inf(), other._prec_inf())
        if not self.coeffs and not other.coeffs:
            return LaurentSeries(self.field, 0, (), None if math.isinf(prec) else int(prec))
        lo = min([x.lead for x in (self, other) if x.coeffs])
        hi = max([x.lead + len(x.coeffs) for x in (self, other) if x.coeffs])
        if not math.isinf(prec):
            hi = min(hi, int(prec))
        cs = [0] * max(hi - lo, 0)
        for x in (self, other):
            if x.coeffs:
                i = x.lead - lo
                j = min(i + len(x.coeffs), len(cs))
                cs[i:j] = map(operator.add, cs[i:j], x.coeffs)
        return LaurentSeries(self.field, lo, cs, None if math.isinf(prec) else int(prec))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.field, self.lead, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.field != other.field:
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

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by eps^k."""
        return LaurentSeries(self.field, self.lead + k, self.coeffs,
                             None if self.prec is None else self.prec + k)

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
        p, f = self.field.p, self.coeffs
        g, k = [self.field.inv(f[0])], 1
        while k < rel:
            # f g = 1 + eps^k h mod eps^k2, so g (2 - f g) = g - eps^k g h
            k2 = min(2 * k, rel)
            h = [c % p for c in _conv(f, g, k2, p)[k:]]
            g += [-c % p for c in _conv(g, h, k2 - k, p)]
            k = k2
        return LaurentSeries(self.field, -v, g, absprec - 2 * v)

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

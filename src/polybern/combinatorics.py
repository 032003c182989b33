"""Stirling numbers, binomials, falling factorials, and basis conversion.

Stirling numbers of the second kind S2(n, l) expand monomials in the
falling-factorial basis (x^n = sum_l S2(n, l) (x)_l); signed Stirling
numbers of the first kind S1(n, l) go the other way ((x)_n =
sum_l S1(n, l) x^l). Only the signed first-kind convention is exposed.
Values are memoized row by row and returned as ``Fraction`` (denominator 1)
so they flow straight into series arithmetic.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Union

from .polynomial import Polynomial, X

Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> Fraction:
    """C(n, k) for n >= 0; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def falling_factorial(x: Scalar | Polynomial, n: int):
    """(x)_n = x (x-1) ... (x-n+1), with (x)_0 = 1.

    Works for rational and polynomial arguments alike.
    """
    if n < 0:
        raise ValueError("falling factorial requires n >= 0")
    result = Fraction(1)
    for i in range(n):
        result = result * (x - i)
    return result


def falling_factorial_at(x: Scalar, n: int) -> Fraction:
    """Exact value of (x)_n at a rational point."""
    return falling_factorial(Fraction(x), n)


def falling_factorial_poly(n: int) -> Polynomial:
    """The polynomial x (x-1) ... (x-n+1); (x)_0 = 1."""
    result = falling_factorial(X, n)
    if isinstance(result, Polynomial):
        return result
    return Polynomial.constant(result)


class StirlingTriangle:
    """Memoized triangle of Stirling numbers.

    ``kind`` is ``"second"`` or ``"first-signed"``. Rows are immutable once
    computed; extension is serialized by a lock, so concurrent readers are
    safe and always see identical values.
    """

    KINDS = ("second", "first-signed")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown Stirling triangle kind {kind!r}")
        self.kind = kind
        self._rows: list[tuple[Fraction, ...]] = [(Fraction(1),)]
        self._lock = threading.Lock()

    def _extend(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                m = len(self._rows)
                prev = self._rows[m - 1]
                row = []
                for l in range(m + 1):
                    above_left = prev[l - 1] if l >= 1 else Fraction(0)
                    above = prev[l] if l < m else Fraction(0)
                    if self.kind == "second":
                        row.append(above_left + l * above)
                    else:
                        row.append(above_left - (m - 1) * above)
                self._rows.append(tuple(row))

    def row(self, n: int) -> tuple[Fraction, ...]:
        if n < 0:
            raise ValueError("Stirling numbers require n >= 0")
        if n >= len(self._rows):
            self._extend(n)
        return self._rows[n]

    def value(self, n: int, l: int) -> Fraction:
        if n < 0:
            raise ValueError("Stirling numbers require n >= 0")
        if l < 0 or l > n:
            return Fraction(0)
        return self.row(n)[l]


_SECOND = StirlingTriangle("second")
_FIRST_SIGNED = StirlingTriangle("first-signed")


def stirling2(n: int, l: int) -> Fraction:
    """Stirling number of the second kind S2(n, l)."""
    return _SECOND.value(n, l)


def stirling1(n: int, l: int) -> Fraction:
    """Signed Stirling number of the first kind S1(n, l)."""
    return _FIRST_SIGNED.value(n, l)


def to_falling_basis(p: Polynomial) -> list[Fraction]:
    """Coefficients d_l with p(x) = sum_l d_l (x)_l; length = degree + 1."""
    size = len(p.coeffs)
    out = []
    for l in range(size):
        total = Fraction(0)
        for n in range(l, size):
            total += p.coeffs[n] * stirling2(n, l)
        out.append(total)
    return out


def to_monomial_basis(d: list[Fraction]) -> Polynomial:
    """Expand sum_l d_l (x)_l back to monomial coefficients."""
    size = len(d)
    out = []
    for i in range(size):
        total = Fraction(0)
        for l in range(i, size):
            total += d[l] * stirling1(l, i)
        out.append(total)
    return Polynomial(tuple(out))

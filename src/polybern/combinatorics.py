"""Stirling numbers, binomials, falling factorials, and basis conversion.

Stirling numbers of the second kind S2(n, l) expand monomials in the
falling-factorial basis (x^n = sum_l S2(n, l) (x)_l); signed Stirling
numbers of the first kind S1(n, l) go the other way ((x)_n =
sum_l S1(n, l) x^l). Only the signed first-kind convention is exposed.
Every reader takes the rows in rising n, so each recurrence keeps only the
last row it reached: a row past it steps on from there, an earlier one walks
again from row 0. ``stirling1_row``/``stirling2_row`` hand out a row of
ints, and ``stirling1``/``stirling2`` one entry as a ``Fraction``
(denominator 1), so it flows straight into series arithmetic. The basis
change back from falling factorials reads no row at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, Union

from .polynomial import Polynomial, X, common_denominator, exact, normalize_point

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

    Works for rational and polynomial arguments alike; a ``float`` raises
    ``TypeError``.
    """
    if n < 0:
        raise ValueError("falling factorial requires n >= 0")
    x = normalize_point(x)
    result = Fraction(1)
    for i in range(n):
        result = result * (x - i)
    return result


def falling_factorial_at(x: Scalar, n: int) -> Fraction:
    """Exact value of (x)_n at a rational point."""
    return falling_factorial(exact(x, "a point must be an int or Fraction"), n)


def falling_factorial_poly(n: int) -> Polynomial:
    """The polynomial x (x-1) ... (x-n+1); (x)_0 = 1."""
    result = falling_factorial(X, n)
    if isinstance(result, Polynomial):
        return result
    return Polynomial.constant(result)


def _next_stirling2_row(m: int, prev: tuple[int, ...]) -> tuple[int, ...]:
    """S2 row m from row m - 1: S2(m, l) = S2(m-1, l-1) + l S2(m-1, l)."""
    pairs = zip((0,) + prev, prev + (0,))
    return tuple(left + l * above for l, (left, above) in enumerate(pairs))


def _next_stirling1_row(m: int, prev: tuple[int, ...]) -> tuple[int, ...]:
    """S1 row m from row m - 1: S1(m, l) = S1(m-1, l-1) - (m-1) S1(m-1, l)."""
    return tuple(left - (m - 1) * above for left, above in zip((0,) + prev, prev + (0,)))


# The last row each recurrence reached, as (m, row m), under its kind.
_LAST_ROW: dict[str, tuple[int, tuple[int, ...]]] = {}


def _row(kind: str, step: Callable, n: int) -> tuple[int, ...]:
    """Row n of the recurrence ``step``: stepped on from the stored row m
    when n >= m, else from row 0. Only the whole walk's (n, row n) is stored,
    by one assignment, so an interrupted walk stores nothing."""
    if n < 0:
        raise ValueError("Stirling numbers require n >= 0")
    m, row = _LAST_ROW.get(kind, (0, (1,)))
    if n < m:
        m, row = 0, (1,)
    for i in range(m + 1, n + 1):
        row = step(i, row)
    _LAST_ROW[kind] = n, row
    return row


def stirling2(n: int, l: int) -> Fraction:
    """Stirling number of the second kind S2(n, l)."""
    row = stirling2_row(n)
    return Fraction(row[l]) if 0 <= l <= n else Fraction(0)


def stirling1(n: int, l: int) -> Fraction:
    """Signed Stirling number of the first kind S1(n, l)."""
    row = stirling1_row(n)
    return Fraction(row[l]) if 0 <= l <= n else Fraction(0)


def stirling2_row(n: int) -> tuple[int, ...]:
    """S2(n, 0..n) as ints."""
    return _row("S2", _next_stirling2_row, n)


def stirling1_row(n: int) -> tuple[int, ...]:
    """S1(n, 0..n) as ints."""
    return _row("S1", _next_stirling1_row, n)


def to_falling_basis(p: Polynomial) -> list[Fraction]:
    """Coefficients d_l with p(x) = sum_l d_l (x)_l; length = degree + 1."""
    out = [Fraction(0)] * len(p.coeffs)
    for n, c in enumerate(p.coeffs):
        for l, s in enumerate(stirling2_row(n)):
            out[l] += c * s
    return out


def _from_falling(nums: Sequence[int], den: int) -> Polynomial:
    """sum_l (nums[l] / den) (x)_l in the monomial basis, by nested
    multiplication nums[0] + x (nums[1] + (x - 1) (nums[2] + ...)) in ints,
    reduced once."""
    acc: list[int] = []
    for l in range(len(nums) - 1, -1, -1):
        # acc (x - l) + nums[l]
        acc = [left - l * above for left, above in zip([nums[l], *acc], [*acc, 0])]
    return Polynomial(tuple(Fraction(c, den) for c in acc))


def to_monomial_basis(d: list[Fraction]) -> Polynomial:
    """Expand sum_l d_l (x)_l back to monomial coefficients, with the d_l
    over their common denominator."""
    return _from_falling(*common_denominator(d))


def binomial_falling_poly(row: tuple[Sequence[int], int], n: int) -> Polynomial:
    """sum_j C(n, j) v_(n-j) (x)_j in the monomial basis, for the values
    v_m = nums[m] / den of ``row`` = (nums, den): the egf coefficient n of
    V(t) (1+t)^x, where V has egf coefficients v. The products
    C(n, j) nums[n-j] stay ints, so each coefficient is reduced once."""
    nums, den = row
    return _from_falling([math.comb(n, j) * nums[n - j] for j in range(n + 1)], den)

"""Stirling numbers, binomials, falling factorials, and basis conversion.

Stirling numbers of the second kind S2(n, l) expand monomials in the
falling-factorial basis (x^n = sum_l S2(n, l) (x)_l); signed Stirling
numbers of the first kind S1(n, l) go the other way ((x)_n =
sum_l S1(n, l) x^l). Only the signed first-kind convention is exposed.
Rows are memoized as int tuples (``polynomial.grown``);
``stirling1``/``stirling2`` return ``Fraction`` (denominator 1) so they flow
straight into series arithmetic, and ``stirling1_row``/``stirling2_row``
hand out a cached row of ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from .polynomial import Polynomial, X, common_denominator, exact, grown, normalize_point

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


def _more_stirling2_rows(rows: tuple, n: int) -> Iterator[tuple[int, ...]]:
    """S2 rows len(rows)..n: S2(m, l) = S2(m-1, l-1) + l S2(m-1, l)."""
    prev = rows[-1] if rows else ()
    for m in range(len(rows), n + 1):
        pairs = zip((0,) + prev, prev + (0,))
        prev = tuple(left + l * above for l, (left, above) in enumerate(pairs)) if m else (1,)
        yield prev


def _more_stirling1_rows(rows: tuple, n: int) -> Iterator[tuple[int, ...]]:
    """S1 rows len(rows)..n: S1(m, l) = S1(m-1, l-1) - (m-1) S1(m-1, l)."""
    prev = rows[-1] if rows else ()
    for m in range(len(rows), n + 1):
        pairs = zip((0,) + prev, prev + (0,))
        prev = tuple(left - (m - 1) * above for left, above in pairs) if m else (1,)
        yield prev


# The rows 0..n of each triangle, under the key None (``grown``).
_STIRLING2_ROWS: dict[None, tuple[tuple[int, ...], ...]] = {}
_STIRLING1_ROWS: dict[None, tuple[tuple[int, ...], ...]] = {}


def _rows(cache: dict, more: Callable, n: int) -> tuple[tuple[int, ...], ...]:
    if n < 0:
        raise ValueError("Stirling numbers require n >= 0")
    return grown(cache, None, n, more)


def stirling2(n: int, l: int) -> Fraction:
    """Stirling number of the second kind S2(n, l)."""
    row = stirling2_row(n)
    return Fraction(row[l]) if 0 <= l <= n else Fraction(0)


def stirling1(n: int, l: int) -> Fraction:
    """Signed Stirling number of the first kind S1(n, l)."""
    row = stirling1_row(n)
    return Fraction(row[l]) if 0 <= l <= n else Fraction(0)


def stirling2_row(n: int) -> tuple[int, ...]:
    """S2(n, 0..n) as ints, the cached row itself."""
    return _rows(_STIRLING2_ROWS, _more_stirling2_rows, n)[n]


def stirling1_row(n: int) -> tuple[int, ...]:
    """S1(n, 0..n) as ints, the cached row itself."""
    return _rows(_STIRLING1_ROWS, _more_stirling1_rows, n)[n]


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


def _from_falling(nums: Sequence[int], den: int) -> Polynomial:
    """sum_l (nums[l] / den) (x)_l in the monomial basis: each coefficient
    sum_l nums[l] S1(l, i) is summed in ints and reduced once."""
    rows = grown(_STIRLING1_ROWS, None, len(nums) - 1, _more_stirling1_rows)
    out = [0] * len(nums)
    for l, c in enumerate(nums):
        if c:
            for i, s in enumerate(rows[l]):
                out[i] += c * s
    return Polynomial(tuple(Fraction(c, den) for c in out))


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

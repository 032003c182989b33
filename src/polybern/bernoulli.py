"""Bernoulli numbers, Bernoulli numbers/polynomials of the second kind, and
higher-order Bernoulli polynomials.

Conventions. Classical Bernoulli numbers B_n are the egf coefficients of
t/(e^t - 1), so B_1 = -1/2. Bernoulli numbers of the second kind b_n are the
egf coefficients of t/log(1+t); the raw t^n coefficients of the same series
are the Gregory coefficients G_n = b_n / n!. Both readings are exposed
(`bernoulli2nd_numbers` / `gregory_coefficients`) because the literature
mixes them freely: the familiar small values 1, 1/2, -1/12, 1/24, -19/720,
3/160 are the Gregory reading, while the egf reading gives
1, 1/2, -1/6, 1/4, -19/30, 9/4.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul, truediv
from typing import Iterator, Union

from .combinatorics import binomial, binomial_falling_poly, stirling1_row
from .polynomial import MAX_CACHED_K, Polynomial, X, common_denominator, exact, grown
from .series import TruncatedSeries, pow1p_row

Scalar = Union[int, Fraction]


# The grow-only prefix (``polynomial.grown``) of the egf coefficients of
# t/log(1+t), under the key None.
_B2ND: dict[None, tuple[Fraction, ...]] = {}


def _more_b2nd(prefix: tuple, n: int) -> Iterator[Fraction]:
    """b_m for m = len(prefix)..n: b_m = sum_l S1(m, l) / (l+1), from
    t/log(1+t) = integral_0^1 (1+t)^x dx and (1+t)^x = sum_m (x)_m t^m / m!,
    one int sum over lcm(1..m+1) on S1 row m."""
    for m in range(len(prefix), n + 1):
        den = math.lcm(*range(1, m + 2))
        yield Fraction(sum(s * (den // l) for l, s in enumerate(stirling1_row(m), 1)), den)


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max}: the egf coefficients of t/(e^t - 1), built afresh by
    Brent and Harvey's recurrence for the tangent numbers T_1..T_h, h =
    n_max // 2 (arXiv:1108.0286): from T_j = (j-1)!, the passes k = 2..h take
    T_j <- (j-k) T_(j-1) + (j-k+2) T_j for j = k..h in place, small-int
    multipliers only. Then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and
    B_n = 0 at odd n > 1."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    half = n_max // 2
    t = [math.factorial(j) for j in range(half)]  # t[j-1] = T_j
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j - 1] = (j - k) * t[j - 2] + (j - k + 2) * t[j - 1]
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n_max - 1)
    for k, tangent in enumerate(t, 1):
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent, 4**k * (4**k - 1))
    return out[: n_max + 1]


def bernoulli2nd_numbers(n_max: int) -> list[Fraction]:
    """b_0..b_{n_max} of the second kind: the egf coefficients of t/log(1+t)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(grown(_B2ND, None, n_max, _more_b2nd)[: n_max + 1])


def gregory_coefficients(n_max: int) -> list[Fraction]:
    """Raw t^n coefficients G_0..G_{n_max} of t/log(1+t): G_n = b_n / n!."""
    factorials = accumulate(range(1, n_max + 1), mul, initial=1)
    return list(map(truediv, bernoulli2nd_numbers(n_max), factorials))


def bernoulli2nd_values(n_max: int, x: Scalar) -> tuple[Fraction, ...]:
    """b_0(x)..b_{n_max}(x) at a rational x: the egf coefficients of
    t/log(1+t) * (1+t)^x, from one ``bernoulli2nd_numbers`` call. A ``float``
    or ``Polynomial`` x raises ``TypeError``."""
    x = exact(x, "a point must be an int or Fraction")
    b = TruncatedSeries.from_egf(*common_denominator(bernoulli2nd_numbers(n_max)))
    return pow1p_row(b, x)


@lru_cache(maxsize=MAX_CACHED_K)
def bernoulli2nd_poly(n: int) -> Polynomial:
    """b_n(x) = sum_l C(n, l) b_l (x)_{n-l}, assembled in the monomial basis,
    kept for the ``MAX_CACHED_K`` latest n."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return binomial_falling_poly(common_denominator(bernoulli2nd_numbers(n)), n)


def bernoulli_values(n_max: int, x: Scalar) -> list[Fraction]:
    """B_0(x)..B_{n_max}(x), B_n(x) = sum_j C(n, j) B_{n-j} x^j: the egf
    coefficients of t/(e^t - 1) * e^(x t), from one ``bernoulli_numbers``
    call and the x-shift ``pow1p_row`` on the row a^j = x^j c^j for
    x = a/c. A ``float`` or ``Polynomial`` x raises ``TypeError``."""
    x = exact(x, "a point must be an int or Fraction")
    b = TruncatedSeries.from_egf(*common_denominator(bernoulli_numbers(n_max)))
    return list(pow1p_row(b, x, [x.numerator**j for j in range(n_max + 1)]))


def higher_order_bernoulli_poly(n: int, alpha: int, x: Scalar | Polynomial = X):
    """B_n^(alpha)(x): egf coefficient n of (t/(e^t - 1))^alpha * e^(x t).

    The power is a rational series (Miller's recurrence, see
    ``TruncatedSeries.__pow__``) of t/(e^t - 1) to order n; with p
    its egf coefficients, B_n^(alpha)(x) is the polynomial
    sum_j C(n, j) p_{n-j} x^j, substituted at ``x``. A rational ``x`` returns
    a ``Fraction``, a polynomial one a ``Polynomial``, and a ``float`` raises
    ``TypeError``. Only non-negative integer orders are supported.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if not isinstance(alpha, int) or alpha < 0:
        raise ValueError("negative order unsupported")
    powered = TruncatedSeries.from_egf(*common_denominator(bernoulli_numbers(n))) ** alpha
    return Polynomial(tuple(binomial(n, j) * powered.egf_coefficient(n - j) for j in range(n + 1)))(x)

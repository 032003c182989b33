"""The generating function of the poly-Bernoulli polynomials of the second kind,

    Li_k(1 - e^(-t)) / log(1+t) * (1+t)^x.

Its inner series f = 1 - e^(-t) never changes, so the egf ints
L_n = n! [t^n] Li_k(f) have a closed form that the general polylog
(``series.polylog_series``) cannot use: L_n = a_n^(k) =
sum_(m=1..n) (-1)^(n+m) m! S2(n, m) m^(-k), from
f^m = m! sum_n (-1)^(n-m) S2(n, m) t^n / n!, taken for every n at once in
O(N^2) small-int steps whatever k.

At import this module loads no computing module of polybern but ``series``
(and the ``polynomial`` it rests on), so ``table --kind poly2nd`` loads
nothing else; ``combinatorics`` comes in only for a symbolic x.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .caps import check_k
from .polynomial import MAX_CACHED_K, Polynomial, normalize_point
from .series import Row, TruncatedSeries, log1p_series, pow1p_row


def _inverse_powers(k: int, n: int) -> tuple[list[int], int]:
    """m^(-k) for m = 1..n as ints over one denominator: lcm(1..n)^k for
    k > 0, where 1/m^k = (lcm(1..n)/m)^k / lcm(1..n)^k, and 1 for k <= 0,
    where m^(-k) is an integer."""
    if k > 0:
        root = math.lcm(*range(1, n + 1))
        return [(root // m) ** k for m in range(1, n + 1)], root**k
    return [m**-k for m in range(1, n + 1)], 1


def _s2_sum(order: int, k: int) -> Row:
    """a_0^(k)..a_order^(k) by the S2 sum a_n = sum_m U(n, m) w_m, with
    U(n, m) = (-1)^(n+m) m! S2(n, m) and w_m = m^(-k), every n at once. The
    recurrence U(n+1, m) = m (U(n, m-1) - U(n, m)) moves onto the weights:
    a_(n+1) is the same sum over U(n, .) with w'_m = (m+1) w_(m+1) - m w_m,
    and U(0, .) picks w_0, so a_n is w_0 after n such steps. Each step
    multiplies by small ints only, whatever the size of the weights."""
    powers, den = _inverse_powers(k, order)
    w, out = [0, *powers], []
    for _ in range(order + 1):
        out.append(w[0])
        w = [(m + 1) * b - m * a for m, (a, b) in enumerate(zip(w, w[1:]))]
    return out, den


@lru_cache(maxsize=MAX_CACHED_K)
def _gf_values(n_max: int, k: int) -> TruncatedSeries:
    """Li_k(1 - e^(-t)) / log(1+t) at order n_max: the x-free part of the gf,
    kept for the ``MAX_CACHED_K`` latest (n_max, k)."""
    order = n_max + 1
    return TruncatedSeries.from_egf(*_s2_sum(order, k)) / log1p_series(order)


def poly_b2nd_values(
    n_max: int, k: int, x: int | Fraction | Polynomial = 0
) -> tuple[Fraction | Polynomial, ...]:
    """b_0^(k)(x)..b_{n_max}^(k)(x) via the generating-function route.

    With q_m the egf coefficients of the x-free quotient, the gf gives
    b_n^(k)(x) = sum_j C(n, j) q_{n-j} (x)_j. A rational x takes one series
    product; a symbolic x takes that sum to the monomial basis, and any
    point other than X itself is then substituted into it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    quotient = _gf_values(n_max, check_k(k))
    x = normalize_point(x)
    if not isinstance(x, Polynomial):
        return pow1p_row(quotient, x)
    from .combinatorics import binomial_falling_poly

    return tuple(binomial_falling_poly(quotient._egf, n)(x) for n in range(n_max + 1))

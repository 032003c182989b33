"""The generating function of the poly-Bernoulli polynomials of the second kind,

    Li_k(1 - e^(-t)) / log(1+t) * (1+t)^x.

Its inner series f = 1 - e^(-t) never changes, so Li_k(f) has closed forms
that the general polylog (``series.polylog_series``) cannot use. On
the egf ints L_n = n! [t^n] Li_k(f):

* Li_1(f) = t, and Li_0(f) = f / (1 - f) = e^t - 1, all ones past L_0;
* u d/du Li_j(u) = Li_(j-1)(u) and f / f' = e^t - 1 give
  Li_(j-1)(f) = (e^t - 1) d/dt Li_j(f): a down rung is the binomial sum
  c_m = sum_(i=1..m) C(m, i) L_(m-i+1), which Pascal's rule gives in int
  additions alone;
* the same equation read upward is an up rung, solved forward with one exact
  division by m per term and its binomial sums again by Pascal's rule;
* a_n^(k) = sum_(m=1..n) (-1)^(n+m) m! S2(n, m) m^(-k), from
  f^m = m! sum_n (-1)^(n-m) S2(n, m) t^n / n!, takes O(N^2) steps whatever
  k, so it replaces |k| rungs from ``S2_SUM_ABS_K`` on.

At import this module loads no computing module of polybern but ``series``
(and the ``polynomial`` it rests on), so ``table --kind poly2nd`` loads
nothing else; ``combinatorics`` comes in only for a symbolic x and for
``_li_coeff``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add

from .caps import check_k
from .polynomial import Polynomial, normalize_point
from .series import Row, TruncatedSeries, log1p_series, pow1p_row

#: Li_k(f) comes from the S2 sum from |k| = S2_SUM_ABS_K on, and from |k|
#: rungs below it. Each route alone on a 2-vCPU VM, in CPU time, the sum
#: ties the down rungs near |k| = 3 and beats the up rungs from k = 3 at
#: orders 26-401 (order 401: k = -6 15 against 30 ms, k = 6 54 against
#: 202 ms). The threshold is the least that keeps the default k of
#: ``verify`` (-5..5) on the rungs, which read no Stirling number, so that
#: Theorem 2, whose weights ``_li_coeff`` sums over the Stirling triangle,
#: checks the gf independently.
S2_SUM_ABS_K = 6


def _inverse_powers(k: int, n: int) -> tuple[list[int], int]:
    """m^(-k) for m = 1..n as ints over one denominator: lcm(1..n)^k for
    k > 0, where 1/m^k = (lcm(1..n)/m)^k / lcm(1..n)^k, and 1 for k <= 0,
    where m^(-k) is an integer."""
    if k > 0:
        root = math.lcm(*range(1, n + 1))
        return [(root // m) ** k for m in range(1, n + 1)], root**k
    return [m**-k for m in range(1, n + 1)], 1


def _down_rung(li: Row) -> Row:
    """Li_(j-1)(f) = (e^t - 1) d/dt Li_j(f) = e^t g - g for g = d/dt Li_j(f),
    whose egf ints are G_i = L_(i+1): c_m = H_m - G_m with H_m =
    sum_(i<=m) C(m, i) G_i, that is c_m = sum_(i=1..m) C(m, i) L_(m-i+1).
    H_m is the first entry of the m-th row of Pascal's rule applied to G
    (each row adds neighbours), so a rung takes additions only. G_N is
    beyond the order, and cancels from c_N; it enters as 0."""
    nums, den = li
    g = [*nums[1:], 0]
    h, out = g, [0]
    for m in range(1, len(nums)):
        h = list(map(add, h, h[1:]))
        out.append(h[0] - g[m])
    return out, den


def _up_rung(li: Row, root: int) -> Row:
    """Li_(j+1)(f) from Li_j(f) by the down rung solved forward: with
    g_i = G_(i+1), L_m = sum_(i<m) C(m, i) g_i, so m g_(m-1) = L_m - S_m,
    S_m = sum_(i<=m-2) C(m, i) g_i. S_m comes from Pascal's rule in additions:
    ``diagonal`` holds the last antidiagonal of the neighbour-sum table of
    g_0..g_(m-2); its prefix sums are the next one with g_(m-1) = 0, and S_m
    is their sum. g_(m-1) enters every entry of that antidiagonal once.
    With Li_j(f) over lcm(1..N)^j and ``root`` = lcm(1..N), Li_(j+1)(f)
    goes over lcm(1..N)^(j+1), where the S2 sum shows its numerators are
    ints, so each division by m is exact."""
    nums, den = li
    diagonal, out = [], [0]
    for m in range(1, len(nums)):
        diagonal = list(accumulate(diagonal, initial=0))
        g = (root * nums[m] - sum(diagonal)) // m
        diagonal = list(map(add, diagonal, repeat(g)))
        out.append(g)
    return out, den * root


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


def _rungs(order: int, k: int) -> Row:
    """The egf ints of Li_k(f) to t^order by -k down rungs from Li_0 or
    k - 1 up rungs from Li_1 = t."""
    if k <= 0:
        li: Row = ([0] + [1] * order, 1)
        for _ in range(-k):
            li = _down_rung(li)
        return li
    root = math.lcm(*range(1, order + 1))
    li = ([0, root, *[0] * (order - 1)][: order + 1], root)
    for _ in range(k - 1):
        li = _up_rung(li, root)
    return li


def _polylog(order: int, k: int) -> Row:
    """The egf ints of Li_k(1 - e^(-t)) to t^order: by the S2 sum from
    ``S2_SUM_ABS_K`` on, by rungs below it."""
    return _s2_sum(order, k) if abs(k) >= S2_SUM_ABS_K else _rungs(order, k)


def _li_coeff(n: int, k: int) -> Fraction:
    """a_n^(k), the egf coefficient of t^n in Li_k(1 - e^(-t)), by the S2 sum
    over the cached row ``combinatorics.stirling2_row(n)``: the weights of
    Theorems 2 and 3, which read the Stirling triangle and not the series."""
    from .combinatorics import stirling2_row

    powers, den = _inverse_powers(k, n)
    s2 = stirling2_row(n)
    total, factorial = 0, 1
    for m, power in enumerate(powers, 1):
        factorial *= m
        term = factorial * s2[m] * power
        total += -term if (n + m) % 2 else term
    return Fraction(total, den)


@lru_cache(maxsize=None)
def _gf_values(n_max: int, k: int) -> TruncatedSeries:
    """Li_k(1 - e^(-t)) / log(1+t) at order n_max: the x-free part of the gf."""
    order = n_max + 1
    return TruncatedSeries.from_egf(*_polylog(order, k)).div_valuation(log1p_series(order), 1)


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

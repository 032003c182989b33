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
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .combinatorics import binomial, to_monomial_basis
from .polynomial import Polynomial, X
from .series import TruncatedSeries, constant_series, log1p_series, t_series

Scalar = Union[int, Fraction]

_lock = threading.Lock()
_classical: list[Fraction] = []
_gregory: list[Fraction] = []


@lru_cache(maxsize=None)
def _t_over_expm1(order: int) -> TruncatedSeries:
    """t/(e^t - 1) as a rational-ring series of the given order."""
    den = TruncatedSeries.from_coeffs(
        [Fraction(1, math.factorial(j + 1)) for j in range(order + 1)], order
    )
    return constant_series(Fraction(1), order).div_unit(den)


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max}, read off the series inverse of (e^t - 1)/t."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with _lock:
        if len(_classical) <= n_max:
            q = _t_over_expm1(n_max)
            _classical[:] = [q.egf_coefficient(n) for n in range(n_max + 1)]
        return list(_classical[: n_max + 1])


def gregory_coefficients(n_max: int) -> list[Fraction]:
    """Raw t^n coefficients G_0..G_{n_max} of t/log(1+t)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with _lock:
        if len(_gregory) <= n_max:
            num = t_series(n_max + 1)
            q = num.div_valuation(log1p_series(n_max + 1), 1)
            _gregory[:] = list(q.coeffs)
        return list(_gregory[: n_max + 1])


def bernoulli2nd_numbers(n_max: int) -> list[Fraction]:
    """b_0..b_{n_max} of the second kind, exponential convention (n! * G_n)."""
    return [math.factorial(n) * g for n, g in enumerate(gregory_coefficients(n_max))]


@lru_cache(maxsize=None)
def bernoulli2nd_poly(n: int) -> Polynomial:
    """b_n(x) = sum_l C(n, l) b_l (x)_{n-l}, assembled in the monomial basis."""
    if n < 0:
        raise ValueError("index must be >= 0")
    b = bernoulli2nd_numbers(n)
    return to_monomial_basis([binomial(n, j) * b[n - j] for j in range(n + 1)])


def _appell(p: Sequence[Fraction], n: int) -> Polynomial:
    """sum_j C(n, j) p_{n-j} x^j: the egf coefficient n of P(t) e^(x t),
    where p_0..p_n are the egf coefficients of P."""
    return Polynomial(tuple(binomial(n, j) * p[n - j] for j in range(n + 1)))


def bernoulli_values(n_max: int, x: Scalar) -> list[Fraction]:
    """B_0(x)..B_{n_max}(x), B_n(x) = sum_j C(n, j) B_{n-j} x^j, from one
    ``bernoulli_numbers`` call."""
    b = bernoulli_numbers(n_max)
    return [_appell(b, n)(Fraction(x)) for n in range(n_max + 1)]


def higher_order_bernoulli_poly(n: int, alpha: int, x: Scalar | Polynomial = X):
    """B_n^(alpha)(x): egf coefficient n of (t/(e^t - 1))^alpha * e^(x t).

    The power is a rational series (Miller's recurrence, see
    ``TruncatedSeries.__pow__``); with p its egf coefficients, B_n^(alpha)(x)
    is the polynomial sum_j C(n, j) p_{n-j} x^j, substituted at ``x``. A
    rational ``x`` returns a ``Fraction``, a polynomial one a ``Polynomial``.
    Only non-negative integer orders are supported.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if not isinstance(alpha, int) or alpha < 0:
        raise ValueError("negative order unsupported")
    powered = _t_over_expm1(n) ** alpha
    if not isinstance(x, Polynomial):
        x = Fraction(x)
    return _appell([powered.egf_coefficient(m) for m in range(n + 1)], n)(x)

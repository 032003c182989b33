"""Exact truncated formal power series.

A series of order N stores the rational coefficients c_0..c_N of
``sum_j c_j t^j + O(t^(N+1))`` as ``Fraction`` values. Everything is exact; no
operation ever reads or produces a coefficient beyond index N, and binary
operations demand that both operands share the same order — a mismatch
raises instead of silently re-truncating. A symbolic x never enters a series:
it is a change of basis on the rational coefficients (see
``polybernoulli.poly_b2nd_values``).

Coefficients can be read in two conventions: ``coeffs[n]`` is the raw t^n
coefficient, while :meth:`TruncatedSeries.egf_coefficient` returns n!*c_n,
the value attached to t^n/n! in an exponential generating function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polynomial import common_denominator


@dataclass(frozen=True)
class TruncatedSeries:
    """Immutable fixed-order power series with ``Fraction`` coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[object], order: int) -> "TruncatedSeries":
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must equal order+1")
        return cls(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        if order < 0 or order > self.order:
            raise ValueError("truncation order out of range")
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(tuple(c * Fraction(other) for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out))

    def __rmul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """self^a by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

        With self = t^v u and u_0 invertible, g = u^a solves
        u * theta(g) = a * theta(u) * g, that is
        n u_0 g_n = sum_{i=1}^{n} ((a+1) i - n) u_i g_{n-i}, g_0 = u_0^a:
        one series product in all. The result is g shifted by v*a.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative integer")
        n = self.order
        if exponent == 0:
            return constant_series(Fraction(1), n)
        v = self.valuation()
        if v is None or v * exponent > n:
            return constant_series(Fraction(0), n)
        u = self.coeffs[v:]
        a1 = exponent + 1
        g = [u[0] ** exponent]
        for j in range(1, n - v * exponent + 1):
            acc = Fraction(0)
            for i in range(1, j + 1):
                if u[i] != 0:
                    acc = acc + (a1 * i - j) * u[i] * g[j - i]
            g.append(acc / (j * u[0]))
        return TruncatedSeries((Fraction(0),) * (v * exponent) + tuple(g))

    def div_unit(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient by a series with invertible constant term.

        Forward substitution: q_j = (num_j - sum_{i<j} q_i den_{j-i}) / den_0.
        """
        if not isinstance(den, TruncatedSeries):
            raise TypeError("denominator must be a TruncatedSeries")
        self._check_compatible(den)
        if den.coeffs[0] == 0:
            raise ValueError("denominator not a unit; use div_valuation")
        inv = 1 / den.coeffs[0]
        n = self.order
        q: list[Fraction] = []
        for j in range(n + 1):
            acc = self.coeffs[j]
            for i in range(j):
                acc = acc - q[i] * den.coeffs[j - i]
            q.append(acc * inv)
        return TruncatedSeries(tuple(q))

    def div_valuation(self, den: "TruncatedSeries", v: int) -> "TruncatedSeries":
        """Quotient of two series that both vanish to order ``v``.

        Both operands must have c_0 = ... = c_{v-1} = 0 and the denominator
        must have a nonzero coefficient at index v. The result has order
        ``self.order - v``.
        """
        if not isinstance(den, TruncatedSeries):
            raise TypeError("denominator must be a TruncatedSeries")
        self._check_compatible(den)
        if v < 0:
            raise ValueError("valuation must be non-negative")
        if v > self.order:
            raise ValueError(
                f"valuation {v} exceeds series order {self.order}"
            )
        for i in range(v):
            if self.coeffs[i] != 0:
                raise ValueError(
                    f"numerator has nonzero coefficient at index {i}, "
                    f"expected valuation {v}"
                )
            if den.coeffs[i] != 0:
                raise ValueError(
                    f"denominator has nonzero coefficient at index {i}, "
                    f"expected valuation {v}"
                )
        if den.coeffs[v] == 0:
            raise ValueError(
                f"denominator coefficient at index {v} is zero; not a unit after shift"
            )
        num = TruncatedSeries(self.coeffs[v:])
        return num.div_unit(TruncatedSeries(den.coeffs[v:]))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficients of self(inner(t)), truncated at the common order.

        ``inner`` must have zero constant term; evaluation is Horner's rule
        over truncated series, N series products in all. The production paths
        solve differential equations instead (``exp``, ``log1p``,
        ``polylog_series``); this stays as their independent oracle.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("inner must be a TruncatedSeries")
        self._check_compatible(inner)
        inner._require_no_constant_term()
        acc = constant_series(self.coeffs[-1], self.order)
        for j in range(self.order - 1, -1, -1):
            acc = acc * inner + constant_series(self.coeffs[j], self.order)
        return acc

    def _require_no_constant_term(self) -> None:
        if self.coeffs[0] != 0:
            raise ValueError("composition requires inner series with zero constant term")

    # -- differential equations -----------------------------------------
    # theta = t d/dt keeps the order, so an ODE in theta form is solved
    # without losing a coefficient.

    def theta(self) -> "TruncatedSeries":
        """t * d/dt: c_n -> n c_n."""
        return TruncatedSeries(tuple(n * c for n, c in enumerate(self.coeffs)))

    def theta_inverse(self) -> "TruncatedSeries":
        """The inverse of theta on series with zero constant term: c_n -> c_n / n."""
        if self.coeffs[0] != 0:
            raise ValueError("theta_inverse needs a zero constant term")
        return TruncatedSeries(
            (self.coeffs[0],) + tuple(c / n for n, c in enumerate(self.coeffs[1:], 1))
        )

    def exp(self) -> "TruncatedSeries":
        """exp(self) for zero constant term, from theta(g) = theta(self) * g
        with g_0 = 1: n g_n = sum_{i=1}^{n} i c_i g_{n-i}."""
        self._require_no_constant_term()
        d = self.theta().coeffs
        g = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                if d[i] != 0:
                    acc = acc + d[i] * g[n - i]
            g.append(acc / n)
        return TruncatedSeries(tuple(g))

    def log1p(self) -> "TruncatedSeries":
        """log(1 + self) for zero constant term: theta^-1(theta(self) / (1 + self))."""
        self._require_no_constant_term()
        one = constant_series(Fraction(1), self.order)
        return self.theta().div_unit(one + self).theta_inverse()

    # -- coefficient access ---------------------------------------------

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c_n, the coefficient attached to t^n/n!."""
        if n < 0 or n > self.order:
            raise ValueError(f"coefficient index {n} out of range 0..{self.order}")
        return math.factorial(n) * self.coeffs[n]

    @cached_property
    def _egf_ints(self) -> tuple[list[int], int]:
        """The egf coefficients n! c_n as ints over their least common
        denominator, computed once per series (see ``pow1p_row``)."""
        return common_denominator([self.egf_coefficient(n) for n in range(self.order + 1)])

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None


# -- stock series -------------------------------------------------------


def constant_series(value: object, order: int) -> TruncatedSeries:
    """The constant ``value`` as a series of the given order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries((value,) + (Fraction(0),) * order)


def t_series(order: int) -> TruncatedSeries:
    """The identity series t (just [0, 1, 0, ...] at the given order)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return TruncatedSeries(tuple(coeffs))


def exp_series(a: object, order: int) -> TruncatedSeries:
    """e^(a*t) for a rational a: coefficients a^j / j!."""
    if order < 0:
        raise ValueError("order must be non-negative")
    a = Fraction(a)
    coeffs = [Fraction(1)]
    for j in range(1, order + 1):
        coeffs.append(coeffs[-1] * a / j)
    return TruncatedSeries(tuple(coeffs))


def log1p_series(order: int) -> TruncatedSeries:
    """log(1+t): coefficients [0, 1, -1/2, 1/3, -1/4, ...]."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [Fraction(0)]
    for j in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (j + 1), j))
    return TruncatedSeries(tuple(coeffs))


def pow1p_series(x: object, order: int) -> TruncatedSeries:
    """(1+t)^x for a rational x: coefficients (x)_j / j! with (x)_j the
    falling factorial. At an integer x >= 0 they vanish past index x."""
    if order < 0:
        raise ValueError("order must be non-negative")
    x = Fraction(x)
    coeffs = [Fraction(1)]
    for j in range(1, order + 1):
        # (x)_j / j! = (x)_{j-1}/(j-1)! * (x - (j-1)) / j
        coeffs.append(coeffs[-1] * (x - (j - 1)) / j)
    return TruncatedSeries(tuple(coeffs))


def pow1p_row(series: TruncatedSeries, x: object) -> tuple[Fraction, ...]:
    """The egf coefficients of series * (1+t)^x at a rational x: the values
    at x of a family whose generating function depends on x only through
    the factor (1+t)^x.

    With q_m = Q_m / L the series' egf coefficients over their common
    denominator (once per series) and x = a/c, (x)_j c^j = prod_{i<j} (a - i c),
    so b_n = sum_j C(n, j) q_{n-j} (x)_j is the int sum
    sum_j C(n, j) Q_{n-j} c^(n-j) prod_{i<j} (a - i c) over L c^n, reduced once.
    The products stop at the first zero factor: at an integer x >= 0 only
    j <= x contribute.
    """
    x = Fraction(x)
    a, c = x.numerator, x.denominator
    nums, den = series._egf_ints
    falling = [1]  # falling[j] = (x)_j c^j, up to the first zero
    for i in range(series.order):
        nxt = falling[-1] * (a - i * c)
        if not nxt:
            break
        falling.append(nxt)
    scaled, power = [], 1  # scaled[m] = Q_m c^m
    for q in nums:
        scaled.append(q * power)
        power *= c
    out, scale = [], den  # scale = L c^n
    for n in range(len(nums)):
        top = min(n, len(falling) - 1)
        total = sum(math.comb(n, j) * falling[j] * scaled[n - j] for j in range(top + 1))
        out.append(Fraction(total, scale))
        scale *= c
    return tuple(out)

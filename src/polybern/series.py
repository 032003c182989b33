"""Exact truncated formal power series.

A series of order N stands for ``sum_j c_j t^j + O(t^(N+1))`` with rational
c_0..c_N. Everything is exact; no operation reads or produces a coefficient
beyond index N, and binary operations demand that both operands share the
same order. A symbolic x never enters a series: it is a change of basis on
the rational coefficients (see ``gf.poly_b2nd_values``).

``coeffs[n]`` is the raw t^n coefficient c_n. The arithmetic runs on the egf
coefficients n! c_n, held as ints over their least common denominator (where
1 - e^(-t) has coefficients +-1): a product is the binomial convolution
sum_i C(m, i) a_i b_(m-i), a quotient forward substitution with the same
binomials, and theta = t d/dt is n c_n in both readings. ``polylog_series``
is Li_k(f) for any inner series f, by Horner's rule or a ladder of products
and quotients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, mul
from typing import Iterator, Sequence

from .caps import check_k
from .polynomial import appended, common_denominator, exact

Row = tuple[tuple[int, ...], int]  # (nums, L): the values nums[i] / L


def _lowest(nums: Sequence[int], den: int) -> Row:
    """nums[i] / den, den > 0, over the least common denominator."""
    g = math.gcd(den, *nums)
    return (tuple(c // g for c in nums) if g > 1 else tuple(nums)), den // g


def _pascal_rows(m: int) -> Iterator[list[int]]:
    """Rows m, m + 1, ... of Pascal's triangle."""
    row = [math.comb(m, i) for i in range(m + 1)]
    while True:
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _dot(row: Sequence[int], xs: Sequence[int], ys: Sequence[int]) -> int:
    """sum_i row[i] xs[i] ys[i] over the shortest of the three, skipping the
    terms where xs[i] or ys[i] is zero: the inner sum of every product."""
    return sum(r * x * y for r, x, y in zip(row, xs, ys) if x and y)


def _quotient_term(a_m: int, la: int, q: Row, b: Sequence[int], lb: int, row: Sequence[int]) -> Fraction:
    """Term m of the egf quotient a / b: b_0 q_m = a_m - sum_{i<m} C(m, i) q_i b_(m-i),
    with a_m / la, b / lb, q_0..q_(m-1) in q and row starting C(m, 0..m-1).
    The sum runs in ints and the term is reduced once."""
    qs, lq = q
    m = len(qs)
    s = _dot(row, qs, b[m:0:-1])
    return Fraction(a_m * lq * lb - la * s, la * lq * b[0])


class TruncatedSeries:
    """Immutable fixed-order power series with rational coefficients. The
    raw ``coeffs`` and the kernel's egf ints (``_egf``) are each derived from
    the other on first use, so a series read only one way is never converted."""

    def __init__(self, coeffs: Sequence[object]) -> None:
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        self.coeffs = tuple(map(exact, coeffs))
        self.order = len(self.coeffs) - 1

    @classmethod
    def from_egf(cls, nums: Sequence[int], den: int) -> "TruncatedSeries":
        """The series with egf coefficients nums[n] / den, den > 0."""
        self = cls.__new__(cls)
        self._egf, self.order = _lowest(nums, den), len(nums) - 1
        return self

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The raw coefficients c_0..c_N."""
        nums, den = self._egf
        return tuple(map(Fraction, nums, accumulate(range(1, len(nums)), mul, initial=den)))

    @cached_property
    def _egf(self) -> Row:
        """The egf coefficients n! c_n as ints over their least common denominator."""
        nums, den = common_denominator(self.coeffs)
        return _lowest(list(map(mul, nums, accumulate(range(1, len(nums)), mul, initial=1))), den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        if order < 0 or order > self.order:
            raise ValueError("truncation order out of range")
        if "coeffs" in self.__dict__:  # keep a raw series raw
            return TruncatedSeries(self.coeffs[: order + 1])
        nums, den = self._egf
        return TruncatedSeries.from_egf(nums[: order + 1], den)

    # -- arithmetic ----------------------------------------------------

    def _linear(self, other: object, sign: int) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        (a, la), (b, lb) = self._egf, other._egf
        den = math.lcm(la, lb)
        sa, sb = den // la, sign * (den // lb)
        return TruncatedSeries.from_egf([x * sa + y * sb for x, y in zip(a, b)], den)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._linear(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._linear(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        nums, den = self._egf
        return TruncatedSeries.from_egf([-c for c in nums], den)

    def __mul__(self, other: object) -> "TruncatedSeries":
        """A scalar multiple, or the product: egf coefficient m is the
        binomial convolution sum_i C(m, i) a_i b_(m-i)."""
        nums, den = self._egf
        if isinstance(other, (int, Fraction)):
            p, q = Fraction(other).as_integer_ratio()
            return TruncatedSeries.from_egf([c * p for c in nums], den * q)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        b, lb = other._egf
        out = [_dot(row, nums, b[m::-1]) for m, row in zip(range(len(b)), _pascal_rows(0))]
        return TruncatedSeries.from_egf(out, den * lb)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """self^a by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
        g = self^a solves self * theta(g) = a * theta(self) * g. With self =
        t^v u, u_0 invertible, and s, G the egf coefficients of self and g,
        G_j = 0 below j = v a, G_(va) = (va)! (s_v/v!)^a and, for m > v a,
        (m - v a) C(m + v, v) s_v G_m
            = sum_{i>v} ((a + 1) i - m - v) C(m + v, i) s_i G_(m+v-i).
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a non-negative integer")
        n = self.order
        if exponent == 0:
            return constant_series(Fraction(1), n)
        v = self.valuation()
        if v is None or v * exponent > n:
            return constant_series(Fraction(0), n)
        s, ls = self._egf  # ls cancels from the recurrence, not from G_(va)
        a1, start = exponent + 1, v * exponent
        lead = Fraction(math.factorial(start) * s[v] ** exponent, (math.factorial(v) * ls) ** exponent)
        g = appended(((0,) * start, 1), [lead])
        for m, row in zip(range(start + 1, n + 1), _pascal_rows(start + 1 + v)):
            gs, lg = g
            mv = m + v
            terms = range(v + 1, mv - start + 1)
            total = sum((a1 * i - mv) * row[i] * s[i] * gs[mv - i] for i in terms if s[i])
            g = appended(g, [Fraction(total, lg * (m - start) * row[v] * s[v])])
        return TruncatedSeries.from_egf(*g)

    def div_unit(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient by a series with invertible constant term, by forward
        substitution on the egf coefficients (``_quotient_term``): the kernel
        of ``/``."""
        if not isinstance(den, TruncatedSeries):
            raise TypeError("denominator must be a TruncatedSeries")
        self._check_compatible(den)
        (a, la), (b, lb) = self._egf, den._egf
        if b[0] == 0:
            raise ValueError("denominator not a unit; use /")
        q: Row = ((), 1)
        for a_m, row in zip(a, _pascal_rows(0)):
            q = appended(q, [_quotient_term(a_m, la, q, b, lb, row)])
        return TruncatedSeries.from_egf(*q)

    def __truediv__(self, den: object) -> "TruncatedSeries":
        """The quotient self / den, den = t^v u with u_0 nonzero: ``div_unit``
        at v = 0, else both operands divided by t^v first, and the quotient has
        order N - v. ``ZeroDivisionError`` if den has no nonzero coefficient,
        ``ValueError`` if self has one below index v."""
        if not isinstance(den, TruncatedSeries):
            return NotImplemented
        self._check_compatible(den)
        v = den.valuation()
        if v is None:
            raise ZeroDivisionError("series division by zero")
        if v == 0:
            return self.div_unit(den)
        if any(self._egf[0][:v]):
            raise ValueError("series quotient not a power series")
        # Egf coefficient n of s / t^v is s_(n+v) n! / (n+v)!; both operands
        # are also scaled by lcm((n+v)!/n!), which cancels in the quotient.
        rising = [math.perm(n + v, v) for n in range(self.order + 1 - v)]
        scale = math.lcm(*rising)
        num, den = (
            TruncatedSeries.from_egf([c * (scale // r) for c, r in zip(nums[v:], rising)], d)
            for nums, d in (self._egf, den._egf)
        )
        return num.div_unit(den)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)) for ``inner`` with zero constant term: Horner's rule
        on the raw coefficients, outside the kernel, over the nonzero terms of
        inner. It is the test oracle of ``exp``, ``log1p`` and the polylog
        ladder, and the polylog of ``polylog_series`` at large |k|."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("inner must be a TruncatedSeries")
        self._check_compatible(inner)
        inner._require_no_constant_term()
        n = self.order
        terms = [(j, c) for j, c in enumerate(inner.coeffs) if c]
        acc = [Fraction(0)] * (n + 1)
        for c in reversed(self.coeffs):
            nxt = [c] + [Fraction(0)] * n  # acc * inner + c
            for i, x in enumerate(acc):
                if x:
                    for j, y in terms:
                        if i + j > n:
                            break
                        nxt[i + j] += x * y
            acc = nxt
        return TruncatedSeries(acc)

    def _nonzero_terms(self) -> int:
        """The number of nonzero coefficients, counted in whichever reading
        the series already holds."""
        held = self.__dict__["coeffs"] if "coeffs" in self.__dict__ else self._egf[0]
        return len(held) - held.count(0)

    def _require_no_constant_term(self) -> None:
        if self._egf[0][0] != 0:
            raise ValueError("composition requires inner series with zero constant term")

    # -- differential equations -----------------------------------------
    # theta = t d/dt keeps the order, so an ODE in theta form is solved
    # without losing a coefficient.

    def theta(self) -> "TruncatedSeries":
        """t * d/dt: c_n -> n c_n."""
        nums, den = self._egf
        return TruncatedSeries.from_egf([n * c for n, c in enumerate(nums)], den)

    def theta_inverse(self) -> "TruncatedSeries":
        """The inverse of theta on series with zero constant term: c_n -> c_n / n,
        over the denominator L lcm(1..N)."""
        nums, den = self._egf
        if nums[0] != 0:
            raise ValueError("theta_inverse needs a zero constant term")
        scale = math.lcm(*range(1, len(nums)))
        return TruncatedSeries.from_egf(
            [0] + [c * (scale // n) for n, c in enumerate(nums[1:], 1)], den * scale
        )

    def exp(self) -> "TruncatedSeries":
        """exp(self) for zero constant term, from theta(g) = theta(self) * g
        with g_0 = 1; on egf coefficients, g_m = sum_{j<m} C(m-1, j) g_j f_(m-j)."""
        self._require_no_constant_term()
        f, lf = self._egf
        g: Row = ((1,), 1)
        for m, row in zip(range(1, len(f)), _pascal_rows(0)):
            gs, lg = g
            g = appended(g, [Fraction(_dot(row, gs, f[m:0:-1]), lg * lf)])
        return TruncatedSeries.from_egf(*g)

    def log1p(self) -> "TruncatedSeries":
        """log(1 + self) for zero constant term: theta^-1(theta(self) / (1 + self))."""
        self._require_no_constant_term()
        one = constant_series(Fraction(1), self.order)
        return (self.theta() / (one + self)).theta_inverse()

    # -- coefficient access ---------------------------------------------

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c_n, the coefficient attached to t^n/n!."""
        if n < 0 or n > self.order:
            raise ValueError(f"coefficient index {n} out of range 0..{self.order}")
        nums, den = self._egf
        return Fraction(nums[n], den)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        return next((i for i, c in enumerate(self._egf[0]) if c), None)


# -- stock series -------------------------------------------------------


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be non-negative")


def _falling(a: int, c: int, n: int) -> list[int]:
    """(x)_j c^j = prod_{i<j} (a - i c) for x = a/c and j = 0..n, up to the
    first zero."""
    out = list(accumulate((a - i * c for i in range(n)), mul, initial=1))
    return out[: out.index(0)] if 0 in out else out


def _over_powers(nums: Sequence[int], c: int, order: int) -> TruncatedSeries:
    """The series with egf coefficients nums[j] / c^j (zero past nums)."""
    scaled = [x * c ** (order - j) for j, x in enumerate(nums)]
    return TruncatedSeries.from_egf(scaled + [0] * (order + 1 - len(scaled)), c**order)


def constant_series(value: object, order: int) -> TruncatedSeries:
    """The constant ``value`` as a series of the given order."""
    _check_order(order)
    value = exact(value)
    return TruncatedSeries.from_egf((value.numerator,) + (0,) * order, value.denominator)


def t_series(order: int) -> TruncatedSeries:
    """The identity series t (just [0, 1, 0, ...] at the given order)."""
    _check_order(order)
    return TruncatedSeries.from_egf(((0, 1) + (0,) * order)[: order + 1], 1)


def exp_series(a: object, order: int) -> TruncatedSeries:
    """e^(a*t) for a rational a: egf coefficients a^j."""
    _check_order(order)
    a = exact(a)
    return _over_powers([a.numerator**j for j in range(order + 1)], a.denominator, order)


def log1p_series(order: int) -> TruncatedSeries:
    """log(1+t): raw coefficients [0, 1, -1/2, 1/3, ...], egf (-1)^(j+1) (j-1)!."""
    _check_order(order)
    nums = [0, 1][: order + 1]
    for j in range(2, order + 1):
        nums.append(-(j - 1) * nums[-1])
    return TruncatedSeries.from_egf(nums, 1)


def pow1p_series(x: object, order: int) -> TruncatedSeries:
    """(1+t)^x for a rational x: egf coefficients the falling factorials (x)_j,
    which vanish past index x at an integer x >= 0."""
    _check_order(order)
    x = exact(x, "a point must be an int or Fraction")
    return _over_powers(_falling(x.numerator, x.denominator, order), x.denominator, order)


def pow1p_nums(series: TruncatedSeries, x: object, basis: Sequence[int] | None = None) -> list[int]:
    """The egf coefficients of series * (1+t)^x at a rational x = a/c, as
    ints: b_n = nums[n] / (L c^n), L the series' egf denominator. With the
    series' egf coefficients Q_m / L, b_n = sum_j C(n, j) q_(n-j) (x)_j is
    the int sum of C(n, j) Q_(n-j) c^(n-j) (x)_j c^j over L c^n, where
    (x)_j c^j = prod_{i<j} (a - i c) vanishes past j = x at an integer x >= 0.
    A ``basis`` row u_j replaces (x)_j c^j: the series times the egf u_j / c^j,
    so a^j = x^j c^j gives series * e^(x t).
    """
    x = exact(x, "a point must be an int or Fraction")
    c = x.denominator
    nums = series._egf[0]
    if basis is None:
        basis = _falling(x.numerator, c, series.order)
    scaled = [q * c**m for m, q in enumerate(nums)]  # Q_m c^m
    # A falling row ends at its first zero, so each sum stops there.
    rows = zip(range(len(nums)), _pascal_rows(0))
    return [sum(map(mul, map(mul, row, basis), scaled[n::-1])) for n, row in rows]


def pow1p_row(
    series: TruncatedSeries, x: object, basis: Sequence[int] | None = None
) -> tuple[Fraction, ...]:
    """The egf coefficients of series * (1+t)^x at a rational x, reduced:
    ``pow1p_nums`` over L c^n, with its ``basis``."""
    x = exact(x, "a point must be an int or Fraction")
    den, c = series._egf[1], x.denominator
    return tuple(Fraction(b, den * c**n) for n, b in enumerate(pow1p_nums(series, x, basis)))


# -- the polylog ---------------------------------------------------------

#: Horner's rule computes Li_k(f) when k >= HORNER_PER_TERM_POS_K * s or
#: k <= -HORNER_PER_TERM_NEG_K * s, s the number of nonzero terms of f.
#: Horner's weights 1/m^k grow with k > 0, while m^|k| for k < 0 are ints,
#: so k > 0 stays on the ladder longer. Each route alone on a 2-vCPU VM, the
#: ladder from Li_0, the two tied near |k| / s of: for k > 0, 10-15 on t at
#: N = 30-200, 20-40 on t + t^3, 24 on a five-term series at N = 30 (and
#: past 60 at N = 100) and 30-35 on the dense 1 - e^(-t) at N = 30; for
#: k < 0, 10-20 on t, 13-15 on t + t^3, 12-27 on five terms and 8-10 on
#: 1 - e^(-t).
HORNER_PER_TERM_POS_K = 35
HORNER_PER_TERM_NEG_K = 15


def polylog_series(k: int, inner: TruncatedSeries) -> TruncatedSeries:
    """Li_k(f) = sum_{m>=1} f^m / m^k for a series f with zero constant term.

    Terms with m > N = f.order cannot contribute, because f has positive
    valuation v. The polylog is solved from its differential equation in
    theta = t d/dt, with D = theta(f) / f:

        Li_0(f) = f / (1 - f),
        theta Li_{j+1}(f) = Li_j(f) * D,    Li_{j-1}(f) = theta Li_j(f) / D,

    one series product or quotient per rung (Brent and Kung, J. ACM 1978).
    D = theta(f) / f is known only to order N - v, but Li_j(f) has valuation
    v and D is a unit, so neither step reads D beyond that and zeros pad it
    back to order N. Horner's rule on the N terms is used instead when
    |k| >= c s, s the number of nonzero terms of f and c one of
    ``HORNER_PER_TERM_POS_K`` and ``HORNER_PER_TERM_NEG_K`` by the sign of k:
    each of its steps multiplies by those s terms in raw ``Fraction``s, while
    the ladder takes |k| dense rungs.

    It serves ``Li(k, f)`` in ``eval``; the gf's own 1 - e^(-t) takes the
    closed-form route of ``gf``. A ``k`` that is not an ``int`` of at most
    ``MAX_ABS_K`` in absolute value raises before any work (``caps.check_k``).
    """
    check_k(k)
    n = inner.order
    per_term = HORNER_PER_TERM_POS_K if k > 0 else HORNER_PER_TERM_NEG_K
    if abs(k) >= per_term * inner._nonzero_terms():
        weights = [Fraction(0)] + [Fraction(m) ** (-k) for m in range(1, n + 1)]
        return TruncatedSeries(weights).compose(inner)
    inner._require_no_constant_term()
    nums, den = (inner.theta() / inner)._egf
    d = TruncatedSeries.from_egf(nums + (0,) * (n + 1 - len(nums)), den)
    li = inner / (constant_series(Fraction(1), n) - inner)
    for _ in range(k):
        li = (li * d).theta_inverse()
    for _ in range(-k):
        li = li.theta() / d
    return li

"""Poly-Bernoulli numbers and polynomials of the second kind.

The central family b_n^(k)(x) is read off the exponential generating function

    Li_k(1 - e^(-t)) / log(1+t) * (1+t)^x,

where Li_k is the polylogarithm series sum_{m>=1} u^m / m^k for any integer
k (non-positive k just means positive integer weights m^|k|). Three routes
compute the family:

* ``poly_b2nd_values`` — the truncated-series route, used as the oracle
  (it lives in ``gf`` with the rest of the gf, and is re-exported here);
* ``poly_b2nd_theorem1`` — a closed sum over classical Bernoulli numbers,
  valid at k = 2;
* ``poly_b2nd_theorem2`` — a closed sum with Stirling-number weights, valid
  for every integer k.

``theorem3_rhs`` and ``theorem4_rhs`` provide the right-hand sides of the
forward-difference and argument-addition identities. ``verify_identity``
checks any of the built-in identities point by point with exact comparison
and returns a report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .bernoulli import (
    bernoulli2nd_numbers,
    bernoulli2nd_poly,
    bernoulli_numbers,
    higher_order_bernoulli_poly,
)
from .caps import MAX_ABS_K, check_k  # MAX_ABS_K stays readable here
from .combinatorics import binomial_falling_poly, stirling1, stirling2, stirling2_row
from .gf import _gf_values, poly_b2nd_values  # noqa: F401 (re-exported)
from .polynomial import (
    Polynomial,
    X,
    appended,
    common_denominator,
    normalize_point,
)
from .series import log1p_series, polylog_series, t_series  # noqa: F401 (re-exported)

Scalar = Union[int, Fraction]
Value = Union[Fraction, Polynomial]


# -- closed sums -------------------------------------------------------------
# Theorems 1-3 are sum_l C(n, l) w_l b_{n-l}(x) and differ only in their
# weights w_l, which depend on n and k alone: B_l/(l+1) (Theorem 1, k = 2),
# a_{l+1}^(k)/(l+1) (Theorem 2) and a_l^(k) (Theorem 3, where a_0^(k) = 0
# turns the sum over p = 1..n into a convolution from 0).


def _li_coeff(n: int, k: int) -> Fraction:
    """a_n^(k), the egf coefficient of t^n in Li_k(1 - e^(-t)), by the S2 sum
    sum_(m=1..n) (-1)^(n+m) m! S2(n, m) m^(-k) over the cached row
    ``stirling2_row(n)``: the weights of Theorems 2 and 3 read the Stirling
    triangle, and nothing of the gf. For k > 0 the m^(-k) go over
    lcm(1..n)^k, as (lcm(1..n)/m)^k."""
    root = math.lcm(*range(1, n + 1)) if k > 0 else 1
    s2 = stirling2_row(n)
    total, factorial = 0, 1
    for m in range(1, n + 1):
        factorial *= m
        term = factorial * s2[m] * ((root // m) ** k if k > 0 else m**-k)
        total += -term if (n + m) % 2 else term
    return Fraction(total, root ** max(k, 0))


_WEIGHT_TERMS: dict[str, Callable[[int | None, int, int], list[Fraction]]] = {
    "thm1": lambda k, lo, hi: [b / (l + 1) for l, b in enumerate(bernoulli_numbers(hi)[lo:], lo)],
    "thm2": lambda k, lo, hi: [_li_coeff(l + 1, k) / (l + 1) for l in range(lo, hi + 1)],
    "thm3": lambda k, lo, hi: [_li_coeff(l, k) for l in range(lo, hi + 1)],
}
_WEIGHTS: dict[tuple[str, int | None], tuple[tuple[int, ...], int]] = {}


def _weights(family: str, k: int | None, n: int) -> tuple[tuple[int, ...], int]:
    """At least w_0..w_n of a closed sum's weights, as ints over one common
    denominator: a grow-only prefix per (family, k), replaced whole when it
    grows, so a reader never sees it half-built."""
    row = _WEIGHTS.get((family, k), ((), 1))
    if len(row[0]) <= n:
        row = appended(row, _WEIGHT_TERMS[family](k, len(row[0]), n))
        _WEIGHTS[family, k] = row
    return row


def _x_free_sums(family: str, n: int, k: int | None) -> tuple[list[int], int]:
    """v_0..v_n, the closed sum of ``family`` at x = 0 for each m <= n, as
    ints over one common denominator: the egf convolution
    v_m = sum_l C(m, l) w_l b_(m-l) of the weights with the numbers
    ``bernoulli2nd_numbers(n)``, that is, the coefficients of W(t) t/log(1+t).
    The closed sum at any x is then V(t) (1+t)^x, the gf's shape."""
    w, w_den = _weights(family, k, n)
    b, b_den = common_denominator(bernoulli2nd_numbers(n))
    sums = [sum(math.comb(m, l) * w[l] * b[m - l] for l in range(m + 1) if w[l]) for m in range(n + 1)]
    return sums, w_den * b_den


def _shift_sum(nums: list[int], n: int, a: int, c: int) -> int:
    """sum_l C(n, l) nums[n-l] c^(n-l) (x)_l c^l at x = a/c: c^n times the egf
    coefficient n of V(t) (1+t)^x, where V has egf coefficients nums[m] (over
    any one denominator). (x)_l c^l = prod_{i<l} (a - i c), so it is one int
    sum."""
    total, falling = 0, 1  # falling = (x)_l c^l
    for l in range(n + 1):
        total += math.comb(n, l) * nums[n - l] * falling * c ** (n - l)
        falling *= a - l * c
    return total


def _closed_form(family: str, n: int, k: int | None, x: Scalar | Polynomial, row=None) -> Value:
    """The closed sum of ``family`` at x: its x-free sums v_m = nums[m] / den
    (``_x_free_sums``, at least n + 1 of them), built here unless the caller
    passes them as ``row``, moved to x as the gf is, sum_l C(n, l) v_(n-l) (x)_l.
    A rational x takes one int sum, a symbolic x the basis change to x^j."""
    x = normalize_point(x)
    nums, den = row or _x_free_sums(family, n, k)
    if isinstance(x, Polynomial):
        return binomial_falling_poly((nums, den), n)(x)
    return Fraction(_shift_sum(nums, n, x.numerator, x.denominator), den * x.denominator**n)


def poly_b2nd_theorem1(n: int, x: Scalar | Polynomial = 0) -> Value:
    """The k = 2 closed sum: sum_l C(n, l) B_l b_{n-l}(x) / (l+1)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return _closed_form("thm1", n, None, x)


def poly_b2nd_theorem2(n: int, k: int, x: Scalar | Polynomial = 0) -> Value:
    """The all-k closed sum with Stirling weights a_{l+1}^(k) / (l+1) applied
    to b_{n-l}(x)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return _closed_form("thm2", n, check_k(k), x)


def theorem3_rhs(n: int, k: int, x: Scalar | Polynomial = 0) -> Value:
    """Double sum equal to the forward difference b_n^(k)(x+1) - b_n^(k)(x).

    The identity's domain is n >= 1; n = 0 raises rather than silently
    extending it.
    """
    if n < 1:
        raise ValueError("thm3 requires n >= 1")
    return _closed_form("thm3", n, check_k(k), x)


def _addition_sum(row: tuple[list[int], int], n: int, y: Fraction) -> Fraction:
    """sum_l C(n, l) b_{n-l}(x) (y)_l for a row b_m(x) = nums[m] / den.

    With y = a/c, (y)_l c^l = prod_{i<l} (a - i c), so the sum is one int
    sum over den c^n."""
    nums, den = row
    a, c = y.numerator, y.denominator
    return Fraction(_shift_sum(nums, n, a, c), den * c**n)


def theorem4_rhs(n: int, k: int, x: Scalar, y: Scalar) -> Fraction:
    """sum_l C(n, l) b_{n-l}^(k)(x) (y)_l — equals b_n^(k)(x+y).

    x and y must be rational; a ``Polynomial`` or ``float`` raises
    ``TypeError``."""
    if n < 0:
        raise ValueError("index must be >= 0")
    x, y = normalize_point(x), normalize_point(y)
    if isinstance(x, Polynomial) or isinstance(y, Polynomial):
        raise TypeError("theorem4_rhs takes rational x and y, not a Polynomial")
    return _addition_sum(common_denominator(poly_b2nd_values(n, k, x)), n, y)


# -- identity verification -----------------------------------------------


class VerificationReport:
    """Outcome of checking one identity over a finite parameter range.

    Each checked point is kept as one tuple, its parameter values (named by
    ``params``) and whether it held; ``checked`` builds the dict form of the
    points when it is read. A failure also keeps both sides, as text."""

    def __init__(self, identity: str, range_spec: dict[str, str], params: tuple[str, ...]) -> None:
        self.identity = identity
        self.range_spec = range_spec
        self.params = params
        self.points: list[tuple] = []
        self.failures: list[dict] = []

    def add(self, values: tuple, lhs: object, rhs: object) -> None:
        """Record the point with parameter values ``values`` and its two sides."""
        ok = lhs == rhs
        self.points.append((*values, ok))
        if not ok:
            params = dict(zip(self.params, values))
            self.failures.append({"params": params, "lhs": _show(lhs), "rhs": _show(rhs)})

    @property
    def checked(self) -> list[dict]:
        """Every point as ``{"params": {...}, "ok": ...}``, in check order."""
        return [{"params": dict(zip(self.params, p)), "ok": p[-1]} for p in self.points]

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def first_counterexample(self) -> dict | None:
        return self.failures[0] if self.failures else None


Point = tuple[tuple, object, object]
Checker = Callable[[int, "tuple[int, ...] | None", "tuple[Value, ...] | None"], Iterator[Point]]


class IdentitySpec(NamedTuple):
    """A built-in identity. Its checker yields (values, lhs, rhs) per point,
    the values named by ``params``; ``ks``/``xs`` are its default k range and
    x points, and ``None`` means the identity takes no such parameter."""

    name: str
    checker: Checker
    params: tuple[str, ...]
    ks: tuple[int, ...] | None = None
    xs: tuple[Value, ...] | None = None


_DEFAULT_POINTS: tuple[Value, ...] = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), X)


def _point_label(x: Value) -> str:
    return "x" if isinstance(x, Polynomial) and x == X else str(x)


def _sorted_points(xs: Iterable[Value]) -> tuple[Value, ...]:
    """Each distinct point once: the rationals in order, then the symbolic ones."""
    xs = dict.fromkeys(xs)
    numeric = sorted(x for x in xs if not isinstance(x, Polynomial))
    symbolic = [x for x in xs if isinstance(x, Polynomial)]
    return tuple(numeric + symbolic)


def _check_thm1(n_max, ks, xs):
    rows = {x: poly_b2nd_values(n_max, 2, x) for x in xs}
    sums = _x_free_sums("thm1", n_max, None)
    for n in range(n_max + 1):
        for x in xs:
            lhs = _closed_form("thm1", n, None, x, sums)
            yield (n, _point_label(x)), lhs, rows[x][n]


def _check_thm2(n_max, ks, xs):
    rows = {(k, x): poly_b2nd_values(n_max, k, x) for k in ks for x in xs}
    sums = {k: _x_free_sums("thm2", n_max, k) for k in ks}
    for n in range(n_max + 1):
        for k in ks:
            for x in xs:
                lhs = _closed_form("thm2", n, k, x, sums[k])
                yield (n, k, _point_label(x)), lhs, rows[k, x][n]


def _check_thm3(n_max, ks, xs):
    points = set(xs) | {x + 1 for x in xs}
    rows = {(k, x): poly_b2nd_values(n_max, k, x) for k in ks for x in points}
    sums = {k: _x_free_sums("thm3", n_max, k) for k in ks}
    for n in range(1, n_max + 1):
        for k in ks:
            for x in xs:
                lhs = rows[k, x + 1][n] - rows[k, x][n]
                rhs = _closed_form("thm3", n, k, x, sums[k])
                yield (n, k, _point_label(x)), lhs, rhs


def _check_thm4(n_max, ks, xs):
    # Equality on an (n+1) x (n+1) grid of distinct rational points pins the
    # two-variable polynomial identity (degree <= n in each variable).
    # x = i/3 and x + y = i/3 + j/5; j = 0 gives the x points themselves.
    thirds = [Fraction(i, 3) for i in range(n_max + 1)]
    fifths = [Fraction(j, 5) for j in range(n_max + 1)]
    points = {x + y for x in thirds for y in fifths}
    rows = {(k, x): poly_b2nd_values(n_max, k, x) for k in ks for x in points}
    # Each x row goes over its common denominator once, not once per (n, y),
    # and each label is made once, not once per point.
    scaled = {(k, i): common_denominator(rows[k, x]) for k in ks for i, x in enumerate(thirds)}
    x_labels, y_labels = list(map(str, thirds)), list(map(str, fifths))
    for n in range(n_max + 1):
        for k in ks:
            for i in range(n + 1):
                x = thirds[i]
                for j in range(n + 1):
                    y = fifths[j]
                    lhs = rows[k, x + y][n]
                    rhs = _addition_sum(scaled[k, i], n, y)
                    yield (n, k, x_labels[i], y_labels[j]), lhs, rhs


def _values_at_0_to_n(row0: Iterable[Fraction]) -> Iterator[tuple[list[Fraction], list[Fraction]]]:
    """For n = 0..N, the values at x = 0..n of b_n(x) from a gf G(t) (1+t)^x,
    given the egf coefficients b_n(0) of G, and of ``bernoulli2nd_poly(n)``.

    The gf at x + 1 is the gf at x times (1+t), so b_n(x+1) = b_n(x) +
    n b_{n-1}(x) gives the gf side without a symbolic x. Both sides have
    degree n, so they agree at these n + 1 points exactly when they are the
    same polynomial.
    """
    rows = [tuple(row0)]
    for _ in range(len(rows[0]) - 1):
        prev = rows[-1]
        rows.append(prev[:1] + tuple(prev[n] + n * prev[n - 1] for n in range(1, len(prev))))
    for n in range(len(rows)):
        b = bernoulli2nd_poly(n)
        yield [row[n] for row in rows[: n + 1]], [b(x) for x in range(n + 1)]


def _check_eq9(n_max, ks, xs):
    # The gf side never leaves the rationals, so it shares no basis change
    # with bernoulli2nd_poly.
    values = _values_at_0_to_n(poly_b2nd_values(n_max, 1, 0))
    for n, (lhs, rhs) in enumerate(values):
        yield (n, "x"), lhs, rhs


def _check_eq2(n_max, ks, xs):
    # Independent route: t/log(1+t) * (1+t)^x built directly, without going
    # through the polylog. Its series quotient shares no code with the
    # Stirling sum behind bernoulli2nd_poly, so it checks that too.
    order = n_max + 1
    quotient = t_series(order).div_valuation(log1p_series(order), 1)
    values = _values_at_0_to_n([quotient.egf_coefficient(n) for n in range(n_max + 1)])
    for n, (rhs, lhs) in enumerate(values):
        yield (n, "x"), lhs, rhs


def _check_b_equals_higher_order(n_max, ks, xs):
    for n in range(n_max + 1):
        lhs = bernoulli2nd_poly(n)
        rhs = higher_order_bernoulli_poly(n, n, X + 1)
        yield (n,), lhs, rhs


def _check_stirling_inversion(n_max, ks, xs):
    for n in range(n_max + 1):
        for m in range(n + 1):
            total = Fraction(0)
            for l in range(m, n + 1):
                total += stirling2(n, l) * stirling1(l, m)
            yield (n, m), total, Fraction(1 if n == m else 0)


IDENTITIES: dict[str, IdentitySpec] = {
    spec.name: spec
    for spec in (
        IdentitySpec("thm1", _check_thm1, ("n", "x"), xs=_DEFAULT_POINTS),
        IdentitySpec("thm2", _check_thm2, ("n", "k", "x"), ks=tuple(range(-5, 6)), xs=_DEFAULT_POINTS),
        IdentitySpec(
            "thm3",
            _check_thm3,
            ("n", "k", "x"),
            ks=tuple(range(-3, 4)),
            xs=(Fraction(0), Fraction(1, 2), Fraction(-2)),
        ),
        IdentitySpec("thm4", _check_thm4, ("n", "k", "x", "y"), ks=tuple(range(-2, 4))),
        IdentitySpec("eq9", _check_eq9, ("n", "x")),
        IdentitySpec("eq2", _check_eq2, ("n", "x")),
        IdentitySpec("b-equals-higher-order", _check_b_equals_higher_order, ("n",)),
        IdentitySpec("stirling-inversion", _check_stirling_inversion, ("n", "m")),
    )
}


def _describe_range(spec: IdentitySpec, n_max: int) -> dict[str, str]:
    desc = {"n_max": str(n_max)}
    if spec.ks is not None:
        desc["k"] = ",".join(str(k) for k in spec.ks)
    if spec.xs is not None:
        desc["x"] = ",".join(_point_label(x) for x in spec.xs)
    if spec.name == "thm4":
        desc["grid"] = "(n+1)x(n+1) distinct rationals per n"
    return desc


def _show(value) -> str:
    """A value as exact text, and a list of values (eq9, eq2) as [v_0, v_1, ...]."""
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def verify_identity(
    name: str,
    n_max: int,
    ks: Iterable[int] | None = None,
    xs: Iterable[Scalar | Polynomial] | None = None,
) -> VerificationReport:
    """Check one built-in identity exactly over a finite range.

    ``ks``/``xs`` restrict the default parameter sets where the identity
    accepts them; passing them for an identity that has no such parameter is
    an error. A repeated k or x is checked once. Points are reported in
    lexicographic (n, k, x, y) order.
    """
    spec = IDENTITIES.get(name)
    if spec is None:
        raise ValueError(f"unknown identity name {name!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if ks is not None and spec.ks is None:
        raise ValueError(f"identity {name!r} does not take a k range")
    if xs is not None and spec.xs is None:
        raise ValueError(f"identity {name!r} does not take x points")
    if spec.ks is not None:
        ks = tuple(sorted({check_k(k) for k in (spec.ks if ks is None else ks)}))
    if spec.xs is not None:
        xs = _sorted_points(normalize_point(x) for x in (spec.xs if xs is None else xs))
    spec = spec._replace(ks=ks, xs=xs)
    report = VerificationReport(name, _describe_range(spec, n_max), spec.params)
    for values, lhs, rhs in spec.checker(n_max, spec.ks, spec.xs):
        report.add(values, lhs, rhs)
    return report

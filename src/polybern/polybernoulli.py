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
from functools import partial
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .caps import MAX_ABS_K, check_k  # noqa: F401 (MAX_ABS_K re-exported for tests)
from .gf import _gf_values, poly_b2nd_values
from .polynomial import MAX_CACHED_K, Polynomial, X, common_denominator, grown, normalize_point  # noqa: F401 (MAX_CACHED_K re-exported for tests)
from .series import Row, log1p_series, polylog_series, pow1p_nums, t_series  # noqa: F401 (polylog_series re-exported for bench/trace_shim.py)

# ``bernoulli`` and ``combinatorics`` are imported by the functions that use
# them, so ``verify --identity thm4``, which runs neither, compiles neither.

Scalar = Union[int, Fraction]
Value = Union[Fraction, Polynomial]


# -- closed sums -------------------------------------------------------------
# Theorems 1-3 are sum_l C(n, l) w_l b_{n-l}(x) and differ only in their
# weights w_l, which depend on n and k alone: B_l/(l+1) (Theorem 1, k = 2),
# a_{l+1}^(k)/(l+1) (Theorem 2) and a_l^(k) (Theorem 3, where a_0^(k) = 0
# turns the sum over p = 1..n into a convolution from 0).


def _li_coeff(n: int, k: int) -> Fraction:
    """a_n^(k), the egf coefficient of t^n in Li_k(1 - e^(-t)), by the S2 sum
    sum_(m=1..n) (-1)^(n+m) m! S2(n, m) m^(-k) over ``stirling2_row(n)``:
    the weights of Theorems 2 and 3 read the S2 rows, and nothing of the gf.
    For k > 0 the m^(-k) go over lcm(1..n)^k, as (lcm(1..n)/m)^k."""
    from .combinatorics import stirling2_row

    root = math.lcm(*range(1, n + 1)) if k > 0 else 1
    s2 = stirling2_row(n)
    total, factorial = 0, 1
    for m in range(1, n + 1):
        factorial *= m
        term = factorial * s2[m] * ((root // m) ** k if k > 0 else m**-k)
        total += -term if (n + m) % 2 else term
    return Fraction(total, root ** max(k, 0))


def _weight_terms(family: str, k: int | None, lo: int, hi: int) -> list[Fraction]:
    """w_lo..w_hi of the weights of ``family``."""
    if family == "thm1":
        from .bernoulli import bernoulli_numbers

        return [b / (l + 1) for l, b in enumerate(bernoulli_numbers(hi)[lo:], lo)]
    if family == "thm2":
        return [_li_coeff(l + 1, k) / (l + 1) for l in range(lo, hi + 1)]
    return [_li_coeff(l, k) for l in range(lo, hi + 1)]


# The grow-only prefixes (``polynomial.grown``) of the pairs (w_m, v_m) per
# (family, k): the weights and the x-free sums they give.
_CLOSED_SUMS: dict[tuple[str, int | None], tuple[tuple[Fraction, Fraction], ...]] = {}


def _more_closed_sums(family: str, k: int | None, prefix: tuple, hi: int) -> list[tuple[Fraction, Fraction]]:
    """(w_m, v_m) for m = len(prefix)..hi: the weights of ``family`` and
    their egf convolution v_m = sum_l C(m, l) w_l b_(m-l) with the numbers
    ``bernoulli2nd_numbers(hi)``, that is, the coefficients of W(t) t/log(1+t)."""
    from .bernoulli import bernoulli2nd_numbers

    lo = len(prefix)
    weights = [w for w, _ in prefix] + _weight_terms(family, k, lo, hi)
    w, w_den = common_denominator(weights)
    b, b_den = common_denominator(bernoulli2nd_numbers(hi))
    den = w_den * b_den
    return [
        (weights[m], Fraction(sum(math.comb(m, l) * w[l] * b[m - l] for l in range(m + 1) if w[l]), den))
        for m in range(lo, hi + 1)
    ]


def _x_free_sums(family: str, n: int, k: int | None) -> Row:
    """v_0..v_n, the closed sum of ``family`` at x = 0 for each m <= n, over
    one common denominator. The closed sum at any x is then V(t) (1+t)^x, the
    gf's shape."""
    pairs = grown(_CLOSED_SUMS, (family, k), n, lambda have, hi: _more_closed_sums(family, k, have, hi))
    return common_denominator([v for _, v in pairs[: n + 1]])


def _falling_products(a: int, c: int, n: int) -> list[int]:
    """(x)_l c^l = prod_{i<l} (a - i c) at x = a/c, for l = 0..n: the falling
    factorials of every closed sum and of thm4's y-shift, which share no code
    with the gf's x-shift ``series.pow1p_nums``."""
    out = [1]
    for l in range(n):
        out.append(out[-1] * (a - l * c))
    return out


def _scaled(nums: Sequence[int], c: int, n: int) -> list[int]:
    """nums[m] c^m for m = 0..n."""
    return [v * c**m for m, v in enumerate(nums[: n + 1])]


def _binomial_rows(n: int) -> list[list[int]]:
    """C(m, 0..m) for m = 0..n."""
    rows = [[1]]
    for _ in range(n):
        rows.append([1, *map(add, rows[-1], rows[-1][1:]), 1])
    return rows


def _shift_sum(binomials: Sequence[int], scaled: Sequence[int], falling: Sequence[int]) -> int:
    """sum_l C(n, l) scaled[n-l] falling[l] for binomials = C(n, 0..n). With
    scaled = ``_scaled(nums, c, n)`` and falling = ``_falling_products(a, c,
    n)``, it is c^n times the egf coefficient n of V(t) (1+t)^x at x = a/c,
    where V has egf coefficients nums[m] (over any one denominator)."""
    n = len(binomials) - 1
    return sum(map(mul, map(mul, binomials, scaled[n::-1]), falling))


def _addition_sum(row: Row, n: int, y: Fraction) -> Fraction:
    """sum_l C(n, l) v_{n-l} (y)_l for a row v_m = nums[m] / den: one int
    sum over den c^n at y = a/c."""
    nums, den = row
    c = y.denominator
    scaled, falling = _scaled(nums, c, n), _falling_products(y.numerator, c, n)
    return Fraction(_shift_sum([math.comb(n, l) for l in range(n + 1)], scaled, falling), den * c**n)


def _closed_form(family: str, n: int, k: int | None, x: Scalar | Polynomial) -> Value:
    """The closed sum of ``family`` at x: its x-free sums v_m
    (``_x_free_sums``) moved to x as the gf is, sum_l C(n, l) v_(n-l) (x)_l.
    A rational x takes one int sum, a symbolic x the basis change to x^j."""
    x = normalize_point(x)
    row = _x_free_sums(family, n, k)
    if isinstance(x, Polynomial):
        from .combinatorics import binomial_falling_poly

        return binomial_falling_poly(row, n)(x)
    return _addition_sum(row, n, x)


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
    the values named by ``params``, and the point holds when lhs == rhs;
    ``ks``/``xs`` are its default k range and x points, and ``None`` means
    the identity takes no such parameter."""

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


# A checker that decides a point without building its two sides yields these
# equal placeholders for a point that holds: a report keeps only a failing
# point's sides.
_HELD = (None, None)


def _closed_sum_sides(family: str, binomials: list, row: Row, quotient, x: Value) -> list:
    """For n = 0..n_max, None where the closed sum of ``family`` at x equals
    the gf side of its identity, else the identity's two sides as the public
    functions give them. ``row`` holds the closed sum's x-free sums
    (``_x_free_sums``) and ``quotient`` the gf's x-free factor, both at one
    k, and ``binomials`` the rows C(n, 0..n).

    At a rational x = a/c both sides are ints over known denominators, so a
    point is one int comparison: the gf side is the series x-shift
    ``pow1p_nums`` (at x and x + 1 for thm3), the closed side the falling
    products of ``_shift_sum``. At a non-constant polynomial x both sides are
    V(t) (1+t)^x for x-free egf rows V, equal as polynomials in x exactly
    when the two rows agree at indices 0..n; thm3's gf row is t Q(t), with
    entries m q_(m-1). Substituting a non-constant polynomial keeps a nonzero
    polynomial nonzero, so from the first index where the rows differ the
    sides are built and differ. At a constant polynomial they are built there
    too and decide the point by value.
    """
    n_max = len(binomials) - 1
    gf, gf_den = quotient._egf
    nums, den = row

    def pair(closed, gf_side):
        return (gf_side, closed) if family == "thm3" else (closed, gf_side)

    if not isinstance(x, Polynomial):
        c = x.denominator
        scaled, falling = _scaled(nums, c, n_max), _falling_products(x.numerator, c, n_max)
        closed = [_shift_sum(row, scaled, falling) for row in binomials]
        shifted = pow1p_nums(quotient, x)
        if family == "thm3":
            shifted = [u - v for u, v in zip(pow1p_nums(quotient, x + 1), shifted)]
        return [
            None if s * gf_den == g * den else pair(Fraction(s, den * c**n), Fraction(g, gf_den * c**n))
            for n, (s, g) in enumerate(zip(closed, shifted))
        ]
    from .combinatorics import binomial_falling_poly

    def sides(n):
        poly = binomial_falling_poly((gf, gf_den), n)
        gf_side = poly(x + 1) - poly(x) if family == "thm3" else poly(x)
        return pair(binomial_falling_poly((nums, den), n)(x), gf_side)

    row = (0, *(m * q for m, q in enumerate(gf[:n_max], 1))) if family == "thm3" else gf
    first = next((m for m in range(n_max + 1) if nums[m] * gf_den != row[m] * den), n_max + 1)
    return [None] * first + [sides(n) for n in range(first, n_max + 1)]


def _check_closed_sum(family, n_max, ks, xs):
    # thm1 takes no k: its gf is the one at k = 2, and its points carry no k.
    ks = (None,) if ks is None else ks
    binomials = _binomial_rows(n_max)
    sides = []  # per k, per x
    for k in ks:
        quotient = _gf_values(n_max, 2 if k is None else k)
        row = _x_free_sums(family, n_max, k)
        sides.append([_closed_sum_sides(family, binomials, row, quotient, x) for x in xs])
    labels = list(map(_point_label, xs))
    for n in range(family == "thm3", n_max + 1):
        for k, at_k in zip(ks, sides):
            for label, at_x in zip(labels, at_k):
                values = (n, label) if k is None else (n, k, label)
                yield values, *(at_x[n] or _HELD)


def _thm4_sides(binomials: list, k: int) -> list[list]:
    """For each n, None or both sides of thm4 at each grid point (i, j),
    i, j <= n, in order. Both sides are ints over L 15^n, L the gf's egf
    denominator: the gf at x + y = i/3 + j/5 = (5i + 3j)/15 is the series
    x-shift ``pow1p_nums`` at that point, which at j = 0 gives the row at x
    itself; the right side moves that row by y with ``_falling_products``. A
    wrong x-shift on either side fails the identity. ``binomials`` are the
    rows C(n, 0..n)."""
    n_max = len(binomials) - 1
    quotient = _gf_values(n_max, k)
    den = quotient._egf[1]
    at = {}  # 5i + 3j -> b_n((5i + 3j)/15) L 15^n for n = 0..n_max
    for s in {5 * i + 3 * j for i in range(n_max + 1) for j in range(n_max + 1)}:
        point = Fraction(s, 15)
        at[s] = _scaled(pow1p_nums(quotient, point), 15 // point.denominator, n_max)
    falling = [_falling_products(3 * j, 15, n_max) for j in range(n_max + 1)]  # (j/5)_l 15^l
    out = [[] for _ in binomials]
    for i in range(n_max + 1):
        for j in range(n_max + 1):
            lhs = at[5 * i + 3 * j]
            for n in range(max(i, j), n_max + 1):
                rhs = _shift_sum(binomials[n], at[5 * i], falling[j])
                if lhs[n] == rhs:
                    out[n].append(None)
                else:
                    out[n].append((Fraction(lhs[n], den * 15**n), Fraction(rhs, den * 15**n)))
    return out


def _check_thm4(n_max, ks, xs):
    # Equality on an (n+1) x (n+1) grid of distinct rational points pins the
    # two-variable polynomial identity (degree <= n in each variable).
    binomials = _binomial_rows(n_max)
    sides = {k: _thm4_sides(binomials, k) for k in ks}
    x_labels = [str(Fraction(i, 3)) for i in range(n_max + 1)]
    y_labels = [str(Fraction(j, 5)) for j in range(n_max + 1)]
    for n in range(n_max + 1):
        for k in ks:
            grid = iter(sides[k][n])
            for i in range(n + 1):
                for j in range(n + 1):
                    yield (n, k, x_labels[i], y_labels[j]), *(next(grid) or _HELD)


def _values_at_0_to_n(row0: Iterable[Fraction]) -> Iterator[tuple[list[Fraction], list[Fraction]]]:
    """For n = 0..N, the values at x = 0..n of b_n(x) from a gf G(t) (1+t)^x,
    given the egf coefficients b_n(0) of G, and of ``bernoulli2nd_poly(n)``.

    The gf at x + 1 is the gf at x times (1+t), so b_n(x+1) = b_n(x) +
    n b_{n-1}(x) gives the gf side without a symbolic x. Both sides have
    degree n, so they agree at these n + 1 points exactly when they are the
    same polynomial.
    """
    from .bernoulli import bernoulli2nd_poly

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
    quotient = t_series(order) / log1p_series(order)
    values = _values_at_0_to_n([quotient.egf_coefficient(n) for n in range(n_max + 1)])
    for n, (rhs, lhs) in enumerate(values):
        yield (n, "x"), lhs, rhs


def _check_b_equals_higher_order(n_max, ks, xs):
    from .bernoulli import bernoulli2nd_poly, higher_order_bernoulli_poly

    for n in range(n_max + 1):
        lhs = bernoulli2nd_poly(n)
        rhs = higher_order_bernoulli_poly(n, n, X + 1)
        yield (n,), lhs, rhs


def _check_stirling_inversion(n_max, ks, xs):
    # Every row in rising n, so that each kind is walked once.
    from .combinatorics import stirling1_row, stirling2_row

    s1 = [stirling1_row(l) for l in range(n_max + 1)]
    for n in range(n_max + 1):
        s2 = stirling2_row(n)
        for m in range(n + 1):
            total = sum(s2[l] * s1[l][m] for l in range(m, n + 1))
            yield (n, m), Fraction(total), Fraction(1 if n == m else 0)


IDENTITIES: dict[str, IdentitySpec] = {
    spec.name: spec
    for spec in (
        IdentitySpec("thm1", partial(_check_closed_sum, "thm1"), ("n", "x"), xs=_DEFAULT_POINTS),
        IdentitySpec(
            "thm2",
            partial(_check_closed_sum, "thm2"),
            ("n", "k", "x"),
            ks=tuple(range(-5, 6)),
            xs=_DEFAULT_POINTS,
        ),
        IdentitySpec(
            "thm3",
            partial(_check_closed_sum, "thm3"),
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
    lexicographic (n, k, x, y) order. A range that holds no point (an empty
    ``ks`` or ``xs``, or thm3, whose domain starts at n = 1, at n_max = 0)
    raises ``ValueError`` rather than passing on nothing.
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
    if not report.total:
        text = "; ".join(f"{k}={v}" for k, v in report.range_spec.items())
        raise ValueError(f"identity {name!r} has no point in the range {text}")
    return report

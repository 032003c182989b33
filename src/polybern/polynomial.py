"""Univariate polynomials over exact rationals.

Deliberately minimal: addition, multiplication, scalar division, and exact
evaluation and substitution. There is no polynomial division.

``common_denominator`` puts rationals over their least common denominator,
so a sum of products runs in ``int``s and reduces once per result rather
than once per term. Evaluation at a rational point uses it (a homogeneous
Horner rule), and so do the closed sums in ``polybernoulli`` and the basis
change in ``combinatorics``.

``grown`` is how every growing cache of polybern grows: the Bernoulli
numbers of both kinds and the closed sums' weights and x-free sums are
grow-only prefixes that it extends, under one lock.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class Polynomial:
    """Polynomial in x with ``Fraction`` coefficients, lowest power first.

    Canonical form: no trailing zero coefficients are stored; the zero
    polynomial stores an empty tuple. Instances are immutable by convention
    (no method changes one after construction), hashable, and compare equal
    to plain numbers when they are constant.
    """

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        cleaned = list(map(exact, coeffs))
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    @cached_property
    def int_row(self) -> tuple[tuple[int, ...], int]:
        """The coefficients as ints over their least common denominator,
        worked out on first use."""
        nums, den = common_denominator(self.coeffs)
        return tuple(nums), den

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x^i (zero beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @staticmethod
    def _coerce(value: object) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial((Fraction(value),))
        return None

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + o.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Polynomial":
        """Division by a nonzero scalar (or constant polynomial) only."""
        if isinstance(other, Polynomial):
            if other.degree > 0:
                raise ValueError("polynomial division is not supported")
            other = other.constant_term
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        inv = Fraction(1, 1) / Fraction(other)
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial((Fraction(1),))
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, point: "Polynomial | Scalar") -> "Polynomial | Fraction":
        """Evaluate exactly by Horner's rule.

        At a rational point a/b the rule is homogeneous: with the coefficients
        c_i = C_i / L over their common denominator (``int_row``), p(a/b) is
        sum_i C_i a^i b^(n-i) over L b^n, summed in ints and reduced once.
        ``point`` may itself be a polynomial, in which case the result is the
        substituted polynomial (e.g. ``p(X + 1)`` shifts the argument);
        ``p(X)`` is ``p`` itself. A ``float`` raises ``TypeError``.
        """
        point = normalize_point(point)
        if isinstance(point, Polynomial):
            if point == X:
                return self
            result: Polynomial | Fraction = Fraction(0)
            for c in reversed(self.coeffs):
                result = result * point + c
            return result
        if not self.coeffs:
            return Fraction(0)
        nums, den = self.int_row
        a, b = point.numerator, point.denominator
        return Fraction(homogeneous_horner(nums, a, b), den * b ** (len(nums) - 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) <= 1 and self.constant_term == other
        return NotImplemented

    def __hash__(self) -> int:
        # Constant polynomials hash like their value so that x == y implies
        # hash(x) == hash(y) across Polynomial/Fraction/int.
        if len(self.coeffs) <= 1:
            return hash(self.constant_term)
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                base = "x" if i == 1 else f"x^{i}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def exact(value: object, must: str = "a coefficient must be an int or Fraction") -> Fraction:
    """An int or a ``Fraction`` as a ``Fraction``; anything else, a ``float``
    included, raises ``TypeError`` rather than becoming its binary fraction."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError(f"{must}, not {type(value).__name__}")
    return Fraction(value)


def normalize_point(x: "Polynomial | Scalar") -> "Polynomial | Fraction":
    """A point as a ``Polynomial`` or a ``Fraction``; anything else, a ``float``
    included, raises ``TypeError`` (``exact``)."""
    if isinstance(x, Polynomial):
        return x
    return exact(x, "a point must be an int, Fraction or Polynomial")


def common_denominator(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integers ``nums`` and the least ``L > 0`` with values[i] == nums[i] / L.

    ``L`` is the lcm of the denominators (1 for no values).
    """
    values = list(values)
    # Star-arguments from a list, not a generator: CPython sizes the argument
    # tuple of a generator by resizing it, and the resized tuples pile up in
    # the interpreter's tuple free lists (half a megabyte in one ``verify``).
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def appended(
    row: tuple[tuple[int, ...], int], values: Iterable[Scalar]
) -> tuple[tuple[int, ...], int]:
    """``row`` = (nums, L), values nums[i] / L, with ``values`` appended and
    every numerator rescaled to the new least common denominator."""
    nums, den = row
    values = list(values)
    new = math.lcm(den, *[v.denominator for v in values])
    if new != den:
        nums = tuple(c * (new // den) for c in nums)
    return nums + tuple(v.numerator * (new // v.denominator) for v in values), new


#: The most keys each keyed cache keeps, the latest ones: the gf's
#: ``_gf_values``, ``bernoulli2nd_poly`` and each cache of ``grown``. One per k
#: of verify's default thm2, thm3 and thm4 ranges together (24), so that
#: checking them in turn in one process builds nothing twice.
MAX_CACHED_K = 32

_lock = threading.Lock()


def grown(cache: dict, key: Hashable, n: int, more: Callable[[tuple, int], Iterable]) -> tuple:
    """The grow-only prefix ``cache[key]``, a tuple of at least n + 1 terms.

    ``more(prefix, n)`` gives the terms after the stored prefix up to index n.
    It runs outside the lock, so it may grow any cache, this one included.
    The longer prefix is then stored whole under the one lock, unless a longer
    one was stored meanwhile, and the cache keeps its ``MAX_CACHED_K`` latest
    keys. A stored prefix never changes, so readers take no lock, and an
    interrupted ``more`` stores nothing, so no cache holds a half-built prefix.
    """
    prefix = cache.get(key, ())
    if len(prefix) > n:
        return prefix
    prefix += tuple(more(prefix, n))
    with _lock:
        stored = cache.get(key, ())
        if len(stored) >= len(prefix):
            return stored
        cache[key] = prefix
        while len(cache) > MAX_CACHED_K:
            del cache[next(iter(cache))]
    return prefix


def homogeneous_horner(nums: Sequence[int], a: int, b: int) -> int:
    """sum_i nums[i] a^i b^(d-i), d = len(nums) - 1: b^d p(a/b) for the
    polynomial p with coefficients ``nums``, by Horner's rule in ints."""
    acc, scale = nums[-1], 1  # scale = b^(steps taken)
    for c in reversed(nums[:-1]):
        scale *= b
        acc = acc * a + c * scale
    return acc


ZERO = Polynomial(())
ONE = Polynomial((Fraction(1),))
#: The indeterminate x, the usual entry point for symbolic computations.
X = Polynomial((Fraction(0), Fraction(1)))

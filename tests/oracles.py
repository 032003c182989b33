"""Independent reference computations for the test suite.

Everything here works on plain lists of Fractions and deliberately avoids
the library's series/polynomial classes, so an implementation bug cannot
hide behind a matching bug in the expected values.
"""

from __future__ import annotations

from fractions import Fraction


def naive_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    """Cauchy product of coefficient lists, truncated at ``order``."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def naive_div(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    """Forward-substitution quotient, one Fraction per term; den[0] must be
    nonzero."""
    assert den[0] != 0
    q: list[Fraction] = []
    for j in range(order + 1):
        acc = num[j]
        for i in range(j):
            acc -= q[i] * den[j - i]
        q.append(acc / den[0])
    return q


def naive_theta_inverse(f: list[Fraction]) -> list[Fraction]:
    """c_n -> c_n / n for a list with zero constant term."""
    assert f[0] == 0
    return [Fraction(0)] + [c / n for n, c in enumerate(f[1:], 1)]


def naive_exp(f: list[Fraction], order: int) -> list[Fraction]:
    """exp(f) for f_0 = 0 by n g_n = sum_{i=1}^{n} i f_i g_{n-i}, term by term."""
    assert f[0] == 0
    g = [Fraction(1)]
    for n in range(1, order + 1):
        g.append(sum((i * f[i] * g[n - i] for i in range(1, n + 1)), Fraction(0)) / n)
    return g


def naive_log1p(f: list[Fraction], order: int) -> list[Fraction]:
    """log(1 + f) for f_0 = 0: the integral of f' / (1 + f), term by term."""
    assert f[0] == 0
    theta = [n * c for n, c in enumerate(f[: order + 1])]
    one_plus = [Fraction(1) + f[0]] + list(f[1 : order + 1])
    return naive_theta_inverse(naive_div(theta, one_plus, order))


def naive_pow(f: list[Fraction], a: int, order: int) -> list[Fraction]:
    """f^a by repeated naive products."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(a):
        out = naive_mul(out, f, order)
    return out


def naive_polylog(k: int, inner: list[Fraction], order: int) -> list[Fraction]:
    """Term-by-term sum of inner^m / m^k for m = 1..order."""
    total = [Fraction(0)] * (order + 1)
    power = list(inner[: order + 1])
    for m in range(1, order + 1):
        weight = Fraction(m) ** (-k)
        for idx in range(order + 1):
            total[idx] += weight * power[idx]
        power = naive_mul(power, inner, order)
    return total


def pascal_row(n: int) -> list[int]:
    """Row n of Pascal's triangle by the additive recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def set_partition_count(n: int, k: int) -> int:
    """Count partitions of an n-set into exactly k nonempty blocks by
    enumerating restricted growth strings (each string is one partition)."""
    if n == 0:
        return 1 if k == 0 else 0

    def grow(prefix: list[int], top: int):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))

    return sum(1 for s in grow([0], 0) if len(set(s)) == k)


def falling_coeffs(n: int) -> list[Fraction]:
    """Monomial coefficients of x (x-1) ... (x-n+1) by direct expansion."""
    coeffs = [Fraction(1)]
    for i in range(n):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= i * c
        coeffs = nxt
    return coeffs


def one_minus_exp_neg_coeffs(order: int) -> list[Fraction]:
    """Coefficients of 1 - e^(-t)."""
    out = [Fraction(0)]
    fact = 1
    for j in range(1, order + 1):
        fact *= j
        out.append(-Fraction((-1) ** j, fact))
    return out


# The loops below are the term-by-term Fraction sums that the library now
# runs in ints over a common denominator; each reduces once per term.


def monomial_from_falling(d: list[Fraction]) -> list[Fraction]:
    """Monomial coefficients of sum_l d_l (x)_l, one Fraction product per term."""
    out = [Fraction(0)] * len(d)
    for l, c in enumerate(d):
        for i, f in enumerate(falling_coeffs(l)):
            out[i] += c * f
    return out


def horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    """Horner's rule over Fractions, lowest power first."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def addition_sum(row: list[Fraction], n: int, y: Fraction) -> Fraction:
    """sum_l C(n, l) row[n - l] (y)_l with a running falling factorial."""
    binomials = pascal_row(n)
    total = Fraction(0)
    falling = Fraction(1)
    for l in range(n + 1):
        total += binomials[l] * row[n - l] * falling
        falling *= y - l
    return total


def pow1p_row(coeffs: list[Fraction], x: Fraction) -> list[Fraction]:
    """The egf coefficients of sum_j coeffs[j] t^j times (1+t)^x: one series
    product with the raw coefficients (x)_j / j! of (1+t)^x."""
    order = len(coeffs) - 1
    shift = [Fraction(1)]
    for j in range(1, order + 1):
        shift.append(shift[-1] * (x - (j - 1)) / j)
    product = naive_mul(coeffs, shift, order)
    fact, out = 1, []
    for n, c in enumerate(product):
        fact *= n or 1
        out.append(fact * c)
    return out


def stirling2_explicit(n: int, m: int) -> int:
    """S2(n, m) = (1/m!) sum_j (-1)^j C(m, j) (m - j)^n, no recurrence."""
    row = pascal_row(m)
    total = sum((-1) ** j * row[j] * (m - j) ** n for j in range(m + 1))
    fact = 1
    for i in range(2, m + 1):
        fact *= i
    return total // fact


def li_coeff(n: int, k: int) -> Fraction:
    """a_n^(k) = sum_{m=1}^{n} (-1)^(n+m) m! S2(n, m) / m^k, term by term."""
    total = Fraction(0)
    fact = 1
    for m in range(1, n + 1):
        fact *= m
        total += (-1) ** (n + m) * fact * stirling2_explicit(n, m) * Fraction(m) ** (-k)
    return total

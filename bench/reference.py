"""Reference values for checking polybern's output, computed independently.

Everything here works on plain ``int``/``Fraction`` lists and imports nothing
from ``polybern``, so a fault in the package cannot hide itself by also
corrupting the values it is checked against. The routes are deliberately
different from the package's production routes:

* ``poly_bernoulli2nd(n_max, k, x)`` gets the coefficients of
  ``Li_k(1 - e^(-t))`` from the Stirling expansion
  ``(1 - e^(-t))^m = m! sum_n (-1)^(n-m) S2(n, m) t^n / n!`` (no series
  composition), divides the list by ``log(1+t)/t`` and multiplies by
  ``(1+t)^x``;
* ``bernoulli2nd(n_max, x)`` gets ``b_n(x)`` from the Gregory coefficients,
  ``b_n(x) = n! sum_j G_j C(x, n-j)``;
* ``higher_order_diagonal(n_max, x)`` gets ``B_n^(n)(x)`` from successive
  list products of ``t/(e^t - 1)`` (no binary powering, unlike polybern);
* ``eval_series(text, order)`` is a naive evaluator for the ``eval``
  grammar: lists of coefficients, ``exp`` and ``log1p`` by their
  differential equations and ``Li`` by a plain power sum;
* ``verify_points(identity, n_max, n_xs)`` is the number of points that
  ``verify`` must report, derived from the range alone.

Run ``python3 bench/reference.py`` to print the small tables quoted in the
benchmark's README.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

Series = list  # list[Fraction], index j holds the t^j coefficient


def stirling2_rows(n_max: int) -> list[list[int]]:
    """S2(n, m) for 0 <= m <= n <= n_max, by S2(n, m) = S2(n-1, m-1) + m S2(n-1, m)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([(prev[m - 1] if m else 0) + m * prev[m] for m in range(n + 1)])
    return rows


def mul(a: Series, b: Series, n: int) -> Series:
    """Product of two coefficient lists, truncated after t^n."""
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def div(a: Series, b: Series, n: int) -> Series:
    """Quotient a/b truncated after t^n; b[0] must be nonzero."""
    q: Series = []
    for j in range(n + 1):
        acc = a[j] if j < len(a) else Fraction(0)
        for i in range(max(0, j - len(b) + 1), j):
            acc -= q[i] * b[j - i]
        q.append(acc / b[0])
    return q


def binomial_series(x: Fraction, n: int) -> Series:
    """(1+t)^x = sum_j C(x, j) t^j."""
    out = [Fraction(1)]
    for j in range(1, n + 1):
        out.append(out[-1] * (x - j + 1) / j)
    return out


def log1p_over_t(n: int) -> Series:
    """log(1+t)/t = sum_j (-1)^j t^j / (j+1)."""
    return [Fraction((-1) ** j, j + 1) for j in range(n + 1)]


def gregory(n_max: int) -> list[Fraction]:
    """Gregory coefficients G_0..G_{n_max}: the t^n coefficients of t/log(1+t)."""
    return div([Fraction(1)], log1p_over_t(n_max), n_max)


def bernoulli2nd(n_max: int, x: Fraction) -> list[Fraction]:
    """b_0(x)..b_{n_max}(x), the Bernoulli polynomials of the second kind."""
    g = gregory(n_max)
    c = binomial_series(Fraction(x), n_max)
    return [factorial(n) * sum(g[j] * c[n - j] for j in range(n + 1)) for n in range(n_max + 1)]


def higher_order_diagonal(n_max: int, x: Fraction) -> list[Fraction]:
    """B_0^(0)(x)..B_{n_max}^(n_max)(x): n! [t^n] (t/(e^t - 1))^n e^(x t)."""
    base = div([Fraction(1)], [Fraction(1, factorial(j + 1)) for j in range(n_max + 1)], n_max)
    shift = [Fraction(x) ** j / factorial(j) for j in range(n_max + 1)]
    out, power = [], [Fraction(1)] + [Fraction(0)] * n_max
    for n in range(n_max + 1):
        out.append(factorial(n) * sum(power[j] * shift[n - j] for j in range(n + 1)))
        power = mul(power, base, n_max)
    return out


def polylog_of_one_minus_exp(k: int, n: int) -> Series:
    """Li_k(1 - e^(-t)) through t^n, from the Stirling expansion of (1 - e^(-t))^m."""
    s2 = stirling2_rows(n)
    weights = [Fraction(0)] + [Fraction(m) ** (-k) for m in range(1, n + 1)]
    out = [Fraction(0)]
    for j in range(1, n + 1):
        total = sum(
            weights[m] * factorial(m) * s2[j][m] * (-1 if (j - m) % 2 else 1)
            for m in range(1, j + 1)
        )
        out.append(total / factorial(j))
    return out


def poly_bernoulli2nd(n_max: int, k: int, x: Fraction = Fraction(0)) -> list[Fraction]:
    """b_0^(k)(x)..b_{n_max}^(k)(x) from Li_k(1-e^(-t))/log(1+t) * (1+t)^x."""
    li = polylog_of_one_minus_exp(k, n_max + 1)
    quotient = div(li[1:], log1p_over_t(n_max), n_max)  # both sides divided by t
    series = mul(quotient, binomial_series(Fraction(x), n_max), n_max)
    return [factorial(n) * c for n, c in enumerate(series)]


# -- verify point counts ----------------------------------------------------

DEFAULT_KS = {"thm2": 11, "thm3": 7, "thm4": 6}  # sizes of -5..5, -3..3, -2..3
DEFAULT_XS = {"thm2": 5, "thm3": 3}  # {-1, 0, 1/2, 1, symbolic x}; {-2, 0, 1/2}


def verify_points(identity: str, n_max: int, n_xs: int | None = None) -> int:
    """Number of points ``verify`` checks on a range, counted from the range.

    thm2 checks every (n, k, x) with 0 <= n <= n_max; thm3 starts at n = 1
    (its domain); thm4 checks an (n+1) x (n+1) grid per (n, k); eq9 and eq2
    check one symbolic polynomial per n. The k are the defaults; ``n_xs``
    replaces the default number of x points. ``thm4 -n 10`` with its six
    default k is 6 * sum_{n=0}^{10} (n+1)^2 = 3036.
    """
    ks = DEFAULT_KS.get(identity, 1)
    xs = n_xs if n_xs is not None else DEFAULT_XS.get(identity, 1)
    if identity == "thm2":
        return (n_max + 1) * ks * xs
    if identity == "thm3":
        return n_max * ks * xs
    if identity == "thm4":
        return ks * sum((n + 1) ** 2 for n in range(n_max + 1))
    if identity in ("eq9", "eq2"):
        return n_max + 1
    raise ValueError(f"no point count for identity {identity!r}")


# -- the eval grammar -------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokens(text: str) -> list[str]:
    out = []
    for m in _TOKEN.finditer(text):
        tok = m.group(1) or m.group(2) or m.group(3)
        if tok:
            out.append(tok)
    return out + [""]


def _exp(u: Series, n: int) -> Series:
    """exp(u) for u[0] == 0, from e' = u' e: j e_j = sum_i i u_i e_{j-i}."""
    e = [Fraction(1)]
    for j in range(1, n + 1):
        e.append(sum(i * u[i] * e[j - i] for i in range(1, j + 1)) / j)
    return e


def _log1p(u: Series, n: int) -> Series:
    """log(1+u) for u[0] == 0, by integrating u' / (1+u)."""
    one_plus = [Fraction(1)] + u[1 : n + 1]
    du = [i * u[i] for i in range(1, n + 1)]
    d = div(du, one_plus, n - 1) if n else []
    return [Fraction(0)] + [d[j] / (j + 1) for j in range(n)]


def _polylog(k: int, u: Series, n: int) -> Series:
    """Li_k(u) = sum_{m>=1} u^m / m^k for u[0] == 0, by plain powers of u."""
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        power = mul(power, u, n)
        w = Fraction(m) ** (-k)
        for j in range(m, n + 1):
            out[j] += w * power[j]
    return out


def _valuation(a: Series) -> int | None:
    return next((i for i, c in enumerate(a) if c), None)


class _Evaluator:
    """Recursive descent over the eval grammar, one series list per node.

    A list's length is one more than the number of coefficients it knows:
    dividing by a series of valuation v shortens both operands by v.
    """

    def __init__(self, text: str, order: int) -> None:
        self.toks = _tokens(text)
        self.pos = 0
        self.n = order

    def next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def peek(self, ahead: int = 0) -> str:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, tok: str) -> None:
        if self.next() != tok:
            raise ValueError(f"expected {tok!r} at token {self.pos}")

    def expr(self) -> Series:
        a = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            b = self.term()
            m = min(len(a), len(b))
            a = [p + q if op == "+" else p - q for p, q in zip(a[:m], b[:m])]
        return a

    def term(self) -> Series:
        a = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            b = self.factor()
            m = min(len(a), len(b))
            a, b = a[:m], b[:m]
            if op == "*":
                a = mul(a, b, m - 1)
            else:
                v = _valuation(b)
                if v is None or (v and any(a[:v])):
                    raise ValueError("quotient is not a power series")
                a = div(a[v:], b[v:], m - 1 - v)
        return a

    def factor(self) -> Series:
        if self.peek() == "-":
            self.next()
            return [-c for c in self.factor()]
        a = self.atom()
        if self.peek() == "^":
            self.next()
            e = int(self.next())
            out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
            for _ in range(e):
                out = mul(out, a, len(a) - 1)
            a = out
        return a

    def sign(self) -> int:
        """-1 after consuming a leading '-', else 1."""
        if self.peek() == "-":
            self.next()
            return -1
        return 1

    def rational(self) -> Fraction:
        value = Fraction(int(self.next()))
        if self.peek() == "/" and self.peek(1).isdigit():
            self.next()
            value /= int(self.next())
        return value

    def atom(self) -> Series:
        tok = self.peek()
        zero = [Fraction(0)] * (self.n + 1)
        if tok.isdigit():
            return [self.rational()] + zero[1:]
        self.next()
        if tok == "(":
            a = self.expr()
            self.take(")")
            return a
        if tok == "t":
            return zero[:1] + [Fraction(1)] + zero[2:]
        self.take("(")
        if tok == "pow1p":
            a = binomial_series(self.sign() * self.rational(), self.n)
        elif tok == "Li":
            k = self.sign() * int(self.next())
            self.take(",")
            u = self.expr()
            a = _polylog(k, u, len(u) - 1)
        elif tok in ("exp", "log1p"):
            u = self.expr()
            if u[0]:
                raise ValueError(f"{tok} needs an argument with zero constant term")
            a = (_exp if tok == "exp" else _log1p)(u, len(u) - 1)
        else:
            raise ValueError(f"unknown function {tok!r}")
        self.take(")")
        return a


_PAD = 8


def eval_series(text: str, order: int) -> Series:
    """Coefficients c_0..c_order of an ``eval`` expression.

    Works at ``order + _PAD`` so that valuation-shifting divisions still leave
    ``order + 1`` known coefficients; raises if they do not.
    """
    ev = _Evaluator(text, order + _PAD)
    out = ev.expr()
    if ev.peek() != "":
        raise ValueError(f"trailing input at token {ev.pos}")
    if len(out) < order + 1:
        raise ValueError("padding too small for the valuation shifts in the expression")
    return out[: order + 1]


def main() -> None:
    print("Gregory G_0..G_5:", ", ".join(map(str, gregory(5))))
    print("b_0..b_5 (second kind, egf):", ", ".join(map(str, bernoulli2nd(5, Fraction(0)))))
    for k in (-1, 0, 1, 2, 3):
        print(f"b_0..b_4^({k})(0):", ", ".join(map(str, poly_bernoulli2nd(4, k))))
    print("b_0..b_3^(2)(1/2):", ", ".join(map(str, poly_bernoulli2nd(3, 2, Fraction(1, 2)))))
    print("B_n^(n)(0), n = 0..4 (higher order):", ", ".join(map(str, higher_order_diagonal(4, Fraction(0)))))
    print("verify thm4 -n 10 points:", verify_points("thm4", 10))


if __name__ == "__main__":
    main()

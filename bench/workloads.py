"""The benchmark's workloads: seeded lists of polybern command lines.

Each workload is a function of a ``random.Random`` that returns one round of
operations. An operation is a polybern command line plus the check its
output must pass. Checks compare against ``reference`` (computed here, never
by polybern) or against a stated property of the method, such as the number
of points a ``verify`` range holds. The same seed always gives the same
command lines.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property

import reference


class Op:
    """One polybern invocation; ``check`` returns None when the output is right."""

    known_fault = False

    def __init__(self, *argv: str) -> None:
        self.argv = tuple(argv)

    def label(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) <= 72 else text[:69] + "..."

    def check(self, rc: int, out: str, err: str) -> str | None:
        raise NotImplementedError


def _exit_problem(rc: int, err: str) -> str | None:
    if rc == 0:
        return None
    last = err.strip().splitlines()[-1:] or ["(no stderr)"]
    return f"exit {rc}: {last[0][:120]}"


class LinesOp(Op):
    """Output must equal, line for line, the lines built from the reference."""

    def __init__(self, argv: tuple[str, ...], expected) -> None:
        super().__init__(*argv)
        self._expected = expected

    @cached_property
    def expected(self) -> list[str]:
        return self._expected()

    def check(self, rc: int, out: str, err: str) -> str | None:
        problem = _exit_problem(rc, err)
        if problem:
            return problem
        got = out.splitlines()
        for i, want in enumerate(self.expected):
            if i >= len(got):
                return f"missing line {i + 1} (want {want[:60]!r})"
            if got[i] != want:
                return f"line {i + 1}: got {got[i][:60]!r}, want {want[:60]!r}"
        if len(got) > len(self.expected):
            return f"unexpected line {len(self.expected) + 1}: {got[len(self.expected)][:60]!r}"
        return None


class VerifyOp(Op):
    """``verify`` must pass and report the point count its range implies."""

    def __init__(self, identity: str, n_max: int, xs: list[Fraction] | None = None) -> None:
        argv = ["verify", "--identity", identity, "--n-max", str(n_max)]
        if xs is not None:
            argv += ["--x", ",".join(map(str, xs))]
        super().__init__(*argv)
        self.identity = identity
        self.points = reference.verify_points(
            identity, n_max, n_xs=len(set(xs)) if xs is not None else None
        )

    def check(self, rc: int, out: str, err: str) -> str | None:
        problem = _exit_problem(rc, err)
        if problem:
            return problem
        lines = out.splitlines()
        for want in (
            f"identity: {self.identity}",
            f"points checked: {self.points}",
            "status: PASS",
        ):
            if want not in lines:
                return f"missing line {want!r}"
        return None


class FaultOp(Op):
    """Hostile input that must be refused with exit 1 and a one-line ``error:``."""

    known_fault = True

    def check(self, rc: int, out: str, err: str) -> str | None:
        lines = err.strip().splitlines()
        if rc == 1 and len(lines) == 1 and lines[0].startswith("error:") and not out:
            return None
        tail = lines[-1][:120] if lines else "(no stderr)"
        return f"exit {rc} with {len(lines)} stderr lines, last {tail!r}"


# -- operation builders -------------------------------------------------------


def _table_lines(values) -> list[str]:
    return ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)]


def table_poly2nd(n: int, k: int, x: Fraction) -> Op:
    return LinesOp(
        ("table", "--kind", "poly2nd", "-k", str(k), "-n", str(n), "--x", str(x)),
        lambda: _table_lines(reference.poly_bernoulli2nd(n, k, x)),
    )


def table_bernoulli2nd(n: int, x: Fraction) -> Op:
    return LinesOp(
        ("table", "--kind", "bernoulli2nd", "-n", str(n), "--x", str(x)),
        lambda: _table_lines(reference.bernoulli2nd(n, x)),
    )


def table_higher_order(n: int, x: Fraction) -> Op:
    return LinesOp(
        ("table", "--kind", "higher-order", "-n", str(n), "--x", str(x)),
        lambda: _table_lines(reference.higher_order_diagonal(n, x)),
    )


def eval_op(expr: str, order: int) -> Op:
    return LinesOp(
        ("eval", "--expr", expr, "--order", str(order)),
        lambda: [f"{n}: {c}" for n, c in enumerate(reference.eval_series(expr, order))],
    )


NESTED_DEPTH = 3000


def nested_parens_op() -> Op:
    """``eval`` of t inside 3,000 parentheses; does not depend on the seed."""
    expr = "(" * NESTED_DEPTH + "t" + ")" * NESTED_DEPTH
    return FaultOp("eval", "--expr", expr, "--order", "4")


def rational(rng: random.Random, den: int) -> Fraction:
    """A seeded +-p/den in lowest terms with den < p < 2 den.

    The caller fixes the denominator and the numerator stays within one
    binade, so the cost of exact arithmetic on the point depends little on
    the seed.
    """
    while True:
        p = rng.randint(den + 1, 2 * den - 1)
        if Fraction(p, den).denominator == den:
            return Fraction(p if rng.random() < 0.5 else -p, den)


# -- workloads ----------------------------------------------------------------


def gf_table(rng: random.Random) -> list[Op]:
    """``table --kind poly2nd`` at orders 100 and 92: nearly all time in the polylog.

    One k is drawn from -5..-1 (integer polylog weights m^|k|) for order 100
    and one from 1..5 (weights 1/m^k, dearer) for order 92, so the two
    operations cost about the same and a round's cost depends little on the
    seed.
    """
    return [
        table_poly2nd(100, rng.randint(-5, -1), rational(rng, 7)),
        table_poly2nd(92, rng.randint(1, 5), rational(rng, 5)),
    ]


def identity_sweep(rng: random.Random) -> list[Op]:
    """``verify`` thm2/thm3/thm4 at the acceptance sizes, default k."""
    return [
        VerifyOp("thm2", 25),
        VerifyOp("thm3", 20, [rational(rng, den) for den in (2, 3, 5)]),
        VerifyOp("thm4", 10),
    ]


def closed_poly(rng: random.Random) -> list[Op]:
    """``b_n(x)`` and ``B_n^(n)(x)`` tables at seeded rational x, plus the
    symbolic eq9/eq2."""
    return [
        table_bernoulli2nd(52, rational(rng, 3)),
        table_higher_order(40, rational(rng, 3)),
        VerifyOp("eq9", 30),
        VerifyOp("eq2", 30),
    ]


def series_eval(rng: random.Random) -> list[Op]:
    """Seeded ``eval`` expressions over Li/log1p/exp/pow1p with division."""
    x, y, a, b = (rational(rng, den) for den in (5, 3, 7, 4))
    k1, k2 = (rng.choice((-2, -1, 1, 2)) for _ in range(2))
    return [
        eval_op(f"Li({k1}, 1 - exp(-t)) / log1p(t) * pow1p({x})", 60),
        eval_op(f"log1p({a}*t + {b}*t^2) / t", 56),
        eval_op(f"exp({a}*t) / (1 - {b}*t)^2", 60),
        eval_op(f"Li({k2}, t / (1 + {a}*t)) * exp(-t)", 48),
        eval_op(f"(exp(t) - 1) / (t * pow1p({y}))", 56),
        eval_op(f"t / log1p(t) * pow1p({y})", 60),
        nested_parens_op(),
    ]


WORKLOADS = {
    "gf-table": gf_table,
    "identity-sweep": identity_sweep,
    "closed-poly": closed_poly,
    "series-eval": series_eval,
}


def ops_for(workload: str, seed: int) -> list[Op]:
    """One round of operations for a workload; equal seeds give equal rounds."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))

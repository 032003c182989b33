"""Exact computation of Bernoulli-family sequences and their identities.

Everything here is exact: rationals are ``fractions.Fraction``, polynomials
and truncated series carry exact coefficients, and identity verification
compares values with zero tolerance.

The public names below load their submodule on first use (PEP 562), so
``import polybern`` alone imports none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "polynomial": ("Polynomial", "X"),
    "series": (
        "TruncatedSeries",
        "constant_series",
        "exp_series",
        "log1p_series",
        "polylog_series",
        "pow1p_series",
        "t_series",
    ),
    "combinatorics": (
        "binomial",
        "falling_factorial",
        "falling_factorial_at",
        "falling_factorial_poly",
        "stirling1",
        "stirling2",
        "to_falling_basis",
        "to_monomial_basis",
    ),
    "bernoulli": (
        "bernoulli_numbers",
        "bernoulli2nd_numbers",
        "bernoulli2nd_poly",
        "gregory_coefficients",
        "higher_order_bernoulli_poly",
    ),
    "gf": ("poly_b2nd_values",),
    "polybernoulli": (
        "IDENTITIES",
        "VerificationReport",
        "poly_b2nd_theorem1",
        "poly_b2nd_theorem2",
        "theorem3_rhs",
        "theorem4_rhs",
        "verify_identity",
    ),
    "expr": ("EvalError", "ParseError", "eval_expr", "parse_expr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

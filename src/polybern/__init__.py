"""Exact computation of Bernoulli-family sequences and their identities.

Everything here is exact: rationals are ``fractions.Fraction``, polynomials
and truncated series carry exact coefficients, and identity verification
compares values with zero tolerance.
"""

from .polynomial import Polynomial, X
from .series import (
    TruncatedSeries,
    constant_series,
    exp_series,
    log1p_series,
    pow1p_series,
    t_series,
)
from .combinatorics import (
    binomial,
    falling_factorial,
    falling_factorial_at,
    falling_factorial_poly,
    stirling1,
    stirling2,
    to_falling_basis,
    to_monomial_basis,
)
from .bernoulli import (
    bernoulli2nd_numbers,
    bernoulli2nd_poly,
    bernoulli_numbers,
    gregory_coefficients,
    higher_order_bernoulli_poly,
)
from .polybernoulli import (
    IDENTITIES,
    VerificationReport,
    poly_b2nd_theorem1,
    poly_b2nd_theorem2,
    poly_b2nd_values,
    polylog_series,
    theorem3_rhs,
    theorem4_rhs,
    verify_identity,
)
from .expr import EvalError, ParseError, eval_expr, parse_expr

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "X",
    "TruncatedSeries",
    "constant_series",
    "exp_series",
    "log1p_series",
    "pow1p_series",
    "t_series",
    "binomial",
    "falling_factorial",
    "falling_factorial_at",
    "falling_factorial_poly",
    "stirling1",
    "stirling2",
    "to_falling_basis",
    "to_monomial_basis",
    "bernoulli_numbers",
    "bernoulli2nd_numbers",
    "bernoulli2nd_poly",
    "gregory_coefficients",
    "higher_order_bernoulli_poly",
    "IDENTITIES",
    "VerificationReport",
    "poly_b2nd_theorem1",
    "poly_b2nd_theorem2",
    "poly_b2nd_values",
    "polylog_series",
    "theorem3_rhs",
    "theorem4_rhs",
    "verify_identity",
    "EvalError",
    "ParseError",
    "eval_expr",
    "parse_expr",
]

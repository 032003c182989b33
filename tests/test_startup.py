"""Each polybern command imports only the modules it runs.

Every case runs ``polybern.cli.main`` in a fresh interpreter and reads
``sys.modules`` when it returns. A module imported at the top of ``cli`` or
``polybern/__init__`` for one command would be compiled by every command;
with bytecode caching off, as in the benchmark, that is start-up time.
"""

import subprocess
import sys

import pytest

PROBE = """
import contextlib, io, sys
from polybern.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.partition(".")[0] in ("polybern", "json"))
print(code, *loaded)
"""

SERIES = {"polybern.polynomial", "polybern.series"}
CORE = {"polybern", "polybern.cli", "polybern.caps"}
TABLES = CORE | SERIES | {"polybern.bernoulli", "polybern.combinatorics"}
GF = CORE | SERIES | {"polybern.gf"}
STIRLING = CORE | {"polybern.polynomial", "polybern.combinatorics"}
VERIFY = GF | {"polybern.polybernoulli"}
POLY = TABLES | VERIFY
EVAL = CORE | SERIES | {"polybern.expr"}


def loaded_by(*argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


def test_importing_the_cli_loads_only_the_package_and_the_cli():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, polybern.cli; print(*sorted(m for m in sys.modules if 'polybern' in m))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["polybern", "polybern.cli"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--help",), {"polybern", "polybern.cli"}),
        (("table", "--help"), {"polybern", "polybern.cli"}),
        (("eval", "--help"), {"polybern", "polybern.cli"}),
        (("eval", "--expr", "exp(t) / (1 - 2*t)^2 + log1p(t)", "--order", "4"), EVAL),
        (("eval", "--expr", "Li(2, t)", "--order", "4"), EVAL),
        (("table", "--kind", "bernoulli", "-n", "3"), TABLES),
        (("table", "--kind", "bernoulli", "-n", "3", "--x", "1/2"), TABLES),
        (("table", "--kind", "bernoulli2nd", "-n", "3", "--x", "1/2", "--convention", "ogf"), TABLES),
        (("table", "--kind", "higher-order", "-n", "3"), TABLES),
        (("table", "--kind", "stirling2", "-n", "3", "--l", "1"), STIRLING),
        (("table", "--kind", "poly2nd", "-k", "1", "-n", "3"), GF),
        (("table", "--kind", "poly2nd", "-k", "-3", "-n", "3", "--x", "1/2"), GF),
        (("table", "--kind", "poly2nd", "-k", "40", "-n", "3"), GF),
        (("table", "--kind", "bernoulli", "-n", "3", "--format", "json"), TABLES | {"json"}),
        (("verify", "--identity", "thm2", "--n-max", "1"), POLY),
        (("verify", "--identity", "eq9", "--n-max", "1", "--format", "json"), POLY | {"json"}),
        # polybernoulli imports bernoulli and combinatorics where it uses them,
        # and neither the identity names nor thm4 do.
        (("verify", "--identity", "thm4", "--n-max", "1"), VERIFY),
        (("verify", "--help"), VERIFY),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_each_command_loads_only_what_it_runs(argv, expected):
    code, modules = loaded_by(*argv)
    assert code == 0
    assert modules - {"json.decoder", "json.encoder", "json.scanner"} == expected


def test_the_gf_loads_combinatorics_only_for_a_symbolic_x():
    code = """
import sys
from polybern.gf import poly_b2nd_values
from polybern.polynomial import X
poly_b2nd_values(4, -2, 3)
print("polybern.combinatorics" in sys.modules)
poly_b2nd_values(4, -2, X)
print("polybern.combinatorics" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_a_usage_error_loads_no_computation():
    code, modules = loaded_by("table", "--kind", "bernoulli", "-n", "3", "--x", "7" * 101)
    assert code == 2 and modules == CORE


# The public names of ``polybern`` and the submodule each comes from, as
# ``polybern/__init__`` bound them when it imported every submodule.
EXPORTS = {
    "polynomial": ["Polynomial", "X"],
    "series": [
        "TruncatedSeries", "constant_series", "exp_series", "log1p_series",
        "polylog_series", "pow1p_series", "t_series",
    ],
    "combinatorics": [
        "binomial", "falling_factorial", "falling_factorial_at", "falling_factorial_poly",
        "stirling1", "stirling2", "to_falling_basis", "to_monomial_basis",
    ],
    "bernoulli": [
        "bernoulli_numbers", "bernoulli2nd_numbers", "bernoulli2nd_poly",
        "gregory_coefficients", "higher_order_bernoulli_poly",
    ],
    "gf": ["poly_b2nd_values"],
    "polybernoulli": [
        "IDENTITIES", "VerificationReport", "poly_b2nd_theorem1", "poly_b2nd_theorem2",
        "theorem3_rhs", "theorem4_rhs", "verify_identity",
    ],
    "expr": ["EvalError", "ParseError", "eval_expr", "parse_expr"],
}


def test_star_import_binds_every_public_name_to_its_object():
    code = f"""
import importlib, polybern
namespace = {{}}
exec("from polybern import *", namespace)
del namespace["__builtins__"]
exports = {EXPORTS!r}
print(sorted(namespace) == sorted(name for names in exports.values() for name in names))
print(all(namespace[name] is getattr(importlib.import_module("polybern." + module), name)
          for module, names in exports.items() for name in names))
print(polybern.__all__ == [name for names in exports.values() for name in names])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def test_an_unknown_name_is_an_attribute_error():
    import polybern

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        polybern.nope
    assert "verify_identity" in dir(polybern) and polybern.__version__ == "0.1.0"

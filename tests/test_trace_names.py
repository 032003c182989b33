"""The benchmark's span tracer wraps polybern functions by name.

``bench/trace_shim.py`` lists them in ``LAYERS`` and ``CACHES``; a traced run
exits without a result when one is missing. These tests read both tables
from the file's source, without executing it, and check that every name
still resolves, so a rename or deletion shows here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

SHIM = Path(__file__).resolve().parents[1] / "bench" / "trace_shim.py"


def shim_tables():
    tables = {}
    for node in ast.parse(SHIM.read_text()).body:
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id in ("LAYERS", "CACHES"):
            tables[target.id] = ast.literal_eval(value)
    return tables


def resolve(module, path):
    obj = importlib.import_module(f"polybern.{module}")
    for part in path.split("."):
        # Methods must sit in the class's own __dict__, where the tracer
        # replaces them.
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def test_every_traced_layer_function_exists():
    layers = shim_tables()["LAYERS"]
    names = [(mod, path) for entries in layers.values() for mod, path in entries]
    assert names
    missing = [f"{mod}.{path}" for mod, path in names if not callable(resolve(mod, path))]
    assert missing == []


@pytest.mark.parametrize("counter", sorted(shim_tables()["CACHES"]))
def test_every_traced_cache_is_an_lru_cache(counter):
    mod, path = shim_tables()["CACHES"][counter]
    assert hasattr(resolve(mod, path), "cache_info"), counter


def test_eval_calls_the_polylog_object_the_tracer_wraps():
    # The tracer replaces ``polybernoulli.polylog_series`` by identity in each
    # namespace that holds it; ``eval``'s ``Li`` calls it through ``expr``.
    expr, series, polybernoulli = (
        importlib.import_module(f"polybern.{name}") for name in ("expr", "series", "polybernoulli")
    )
    assert expr.polylog_series is series.polylog_series is polybernoulli.polylog_series


def test_every_series_quotient_reaches_the_traced_division_kernel(monkeypatch):
    # The tracer times ``TruncatedSeries.div_unit`` as its ``series.div``
    # layer. ``/`` calls it as a method, so a quotient taken anywhere in the
    # package shows there.
    gf, series, polybernoulli, expr = (
        importlib.import_module(f"polybern.{name}") for name in ("gf", "series", "polybernoulli", "expr")
    )
    kernel, calls = series.TruncatedSeries.div_unit, []

    def counted(self, den):
        calls.append(den.order)
        return kernel(self, den)

    monkeypatch.setattr(series.TruncatedSeries, "div_unit", counted)
    t = series.t_series(6)
    quotients = {
        "gf": lambda: gf._gf_values.__wrapped__(6, 2),
        "eq2": lambda: polybernoulli.verify_identity("eq2", 3),
        "negative-k polylog": lambda: series.polylog_series(-2, t + t**3),
        "log1p": lambda: t.log1p(),
        "eval": lambda: expr.eval_expr(expr.parse_expr("t/(t + t^2)"), 4),
    }
    for name, quotient in quotients.items():
        before = len(calls)
        quotient()
        assert len(calls) > before, name

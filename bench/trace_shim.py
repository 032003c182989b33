"""Span tracing for one polybern command, and the reader for its output.

As a script it wraps the functions named in ``LAYERS``, runs
``polybern.cli.main`` on the remaining arguments and writes every span it saw
to ``--out`` when the command ends, also when it raises:

    PYTHONPATH=src python3 bench/trace_shim.py --out spans.bin --op 0 -- \\
        table --kind poly2nd -k 2 -n 20

A span is (layer, start, end, parent, nested); ``nested`` marks a span
entered while a span of the same layer was open (``theorem4_rhs`` calling
``_addition_sum``, say). Modules import functions by name, so each function
is replaced in every polybern namespace that holds it, and a class attribute
that aliases a method (``__rmul__ = __mul__``) is replaced with it. Spans are
kept in flat arrays in memory and written once, at the end.

As a module it reads those files back (``load``) and sums them per layer
(``summarize``): ``calls`` and ``total_s`` count only outermost spans of a
layer, ``self_s`` is each span's duration minus the durations of its direct
children, summed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from array import array

# layer -> (module, attribute path) of each function recorded as that layer
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("cli", "main"),),
    "expr.parse": (("expr", "parse_expr"),),
    "expr.eval": (("expr", "eval_expr"),),
    "polybernoulli.verify": (("polybernoulli", "verify_identity"),),
    "polybernoulli.gf_values": (("polybernoulli", "poly_b2nd_values"),),
    "polybernoulli.polylog": (("polybernoulli", "polylog_series"),),
    "polybernoulli.closed_sum": (
        ("polybernoulli", "poly_b2nd_theorem1"),
        ("polybernoulli", "poly_b2nd_theorem2"),
        ("polybernoulli", "theorem3_rhs"),
        ("polybernoulli", "theorem4_rhs"),
        ("polybernoulli", "_addition_sum"),
    ),
    "bernoulli.numbers": (
        ("bernoulli", "bernoulli_numbers"),
        ("bernoulli", "gregory_coefficients"),
        ("bernoulli", "bernoulli2nd_numbers"),
    ),
    "bernoulli.b2nd_poly": (("bernoulli", "bernoulli2nd_poly"),),
    "bernoulli.higher_order": (("bernoulli", "higher_order_bernoulli_poly"),),
    "combinatorics.falling_factorial": (
        ("combinatorics", "falling_factorial"),
        ("combinatorics", "falling_factorial_at"),
        ("combinatorics", "falling_factorial_poly"),
    ),
    "combinatorics.stirling": (("combinatorics", "stirling1"), ("combinatorics", "stirling2")),
    "series.mul": (("series", "TruncatedSeries.__mul__"),),
    "series.div": (("series", "TruncatedSeries.div_unit"),),
    "series.compose": (("series", "TruncatedSeries.compose"),),
    "polynomial.mul": (("polynomial", "Polynomial.__mul__"),),
    "polynomial.eval": (("polynomial", "Polynomial.__call__"),),
}

# counter name -> (module, attribute) of an lru_cache whose misses are read at exit
CACHES = {
    "bernoulli.b2nd_poly.misses": ("bernoulli", "bernoulli2nd_poly"),
    "polybernoulli.gf_values.misses": ("polybernoulli", "_gf_values"),
}

NAMES = list(LAYERS)


class Recorder:
    """Flat in-memory span arrays; index -1 is the root (no parent)."""

    def __init__(self) -> None:
        self.layer = array("H")
        self.parent = array("q")
        self.nested = array("B")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.depth = [0] * len(NAMES)

    def wrap(self, fn, layer_id: int):
        clock = time.perf_counter_ns
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.layer)
            depth = rec.depth[layer_id]
            rec.layer.append(layer_id)
            rec.parent.append(rec.stack[-1])
            rec.nested.append(1 if depth else 0)
            rec.end.append(0)
            rec.stack.append(idx)
            rec.depth[layer_id] = depth + 1
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()
                rec.depth[layer_id] = depth

        return functools.wraps(fn)(traced)

    def write(self, path: str, op: int, counters: dict[str, int], missing: list[str]) -> None:
        header = {
            "op": op,
            "layers": NAMES,
            "count": len(self.layer),
            "counters": counters,
            "missing": missing,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer, self.parent, self.nested, self.start, self.end):
                arr.tofile(fh)


def _resolve(obj, path: str):
    for part in path.split("."):
        obj = obj.__dict__.get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def install(rec: Recorder) -> tuple[dict, list[str]]:
    """Wrap every function of ``LAYERS`` where it is looked up.

    Returns the unwrapped cache objects of ``CACHES`` and the functions that
    were not found (a renamed function shows there instead of failing).
    """
    modules = {
        name: importlib.import_module(f"polybern.{name}")
        for name in ("polynomial", "series", "combinatorics", "bernoulli", "polybernoulli", "expr", "cli")
    }
    namespaces = [m.__dict__ for m in modules.values()] + [importlib.import_module("polybern").__dict__]
    caches = {name: _resolve(modules[mod], attr) for name, (mod, attr) in CACHES.items()}
    missing = []
    for layer_id, layer in enumerate(NAMES):
        for mod, path in LAYERS[layer]:
            original = _resolve(modules[mod], path)
            if original is None:
                missing.append(f"{mod}.{path}")
                continue
            wrapped = rec.wrap(original, layer_id)
            if "." in path:  # a method: replace it and its aliases on the class
                owner = _resolve(modules[mod], path.rsplit(".", 1)[0])
                for attr, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is original:
                        ns[attr] = wrapped
    return caches, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="span file to write")
    parser.add_argument("--op", type=int, default=0, help="operation id stored with the spans")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="-- then polybern arguments")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    rec = Recorder()
    caches, missing = install(rec)
    cli = importlib.import_module("polybern.cli")
    try:
        return cli.main(args)
    finally:
        counters = {
            name: cache.cache_info().misses
            for name, cache in caches.items()
            if hasattr(cache, "cache_info")
        }
        rec.write(opts.out, opts.op, counters, missing)


# -- reading spans back -------------------------------------------------------


def load(path: str) -> dict:
    """A span file as a dict: the header fields plus the five span arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        data = dict(header)
        for key, code in (("layer", "H"), ("parent", "q"), ("nested", "B"), ("start", "q"), ("end", "q")):
            arr = array(code)
            arr.fromfile(fh, n)
            data[key] = arr
    return data


def summarize(data: dict) -> dict[str, float]:
    """Per-layer ``calls``, ``total_s`` and ``self_s`` plus the cache counters."""
    layers = data["layers"]
    start, end, parent = data["start"], data["end"], data["parent"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, float] = {}
    for name in layers:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for i, layer_id in enumerate(data["layer"]):
        name = layers[layer_id]
        out[f"{name}.self_s"] += (dur[i] - child[i]) / 1e9
        if not data["nested"][i]:
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur[i] / 1e9
    out.update(data["counters"])
    out["trace.spans"] = len(dur)
    return out


if __name__ == "__main__":
    sys.exit(main())

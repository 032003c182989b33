"""Tests of the benchmark itself: references, checks, accounting, seeding.

    python3 -m pytest -q bench

None of these starts polybern; they need only the standard library and
pytest.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import trace_shim
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_gregory_coefficients():
    assert reference.gregory(5) == [
        Fraction(1), Fraction(1, 2), Fraction(-1, 12),
        Fraction(1, 24), Fraction(-19, 720), Fraction(3, 160),
    ]


def test_poly_bernoulli_second_kind_at_k2():
    assert reference.poly_bernoulli2nd(2, 2, Fraction(0)) == [Fraction(1), Fraction(1, 4), Fraction(-13, 36)]


def test_k1_reduces_to_bernoulli_second_kind():
    x = Fraction(-2, 7)
    assert reference.poly_bernoulli2nd(12, 1, x) == reference.bernoulli2nd(12, x)


def test_higher_order_diagonal():
    assert reference.higher_order_diagonal(4, Fraction(0)) == [
        Fraction(1), Fraction(-1, 2), Fraction(5, 6), Fraction(-9, 4), Fraction(251, 30),
    ]


def test_second_kind_is_higher_order_diagonal_shifted():
    # b_n(x) = B_n^(n)(x + 1), reached by two unrelated routes of the reference
    x = Fraction(-5, 3)
    assert reference.higher_order_diagonal(20, x + 1) == reference.bernoulli2nd(20, x)


def test_eval_reference_small_series():
    assert reference.eval_series("t / log1p(t)", 5) == reference.gregory(5)
    assert reference.eval_series("exp(t) - 1 + 2/3^2", 2) == [Fraction(4, 9), Fraction(1), Fraction(1, 2)]


def test_thm4_point_count():
    assert reference.verify_points("thm4", 10) == 3036


def _ok_outcome(lines: list[str]) -> run.Outcome:
    return run.Outcome(1.0, 1.0, 0, "\n".join(lines) + "\n", "")


def _small_table_op() -> workloads.Op:
    return workloads.table_poly2nd(4, 2, Fraction(1, 3))


def test_correct_output_passes():
    op = _small_table_op()
    correct, attempted, failed, _ = run.tally([op], [[_ok_outcome(op.expected)]])
    assert (correct, attempted, failed) == (True, 1, 0)


def test_corrupted_line_counts_as_failed():
    op = _small_table_op()
    lines = list(op.expected)
    n, value = lines[3].split(",")
    lines[3] = f"{n},{Fraction(value) + 1}"
    correct, attempted, failed, problems = run.tally([op], [[_ok_outcome(lines)]])
    assert (correct, attempted, failed) == (False, 1, 1)
    assert "line 4" in problems[0]


def test_missing_line_counts_as_failed():
    op = _small_table_op()
    correct, attempted, failed, problems = run.tally([op], [[_ok_outcome(op.expected[:-1])]])
    assert (correct, attempted, failed) == (False, 1, 1)
    assert "missing line" in problems[0]


def test_verify_needs_its_point_count():
    op = workloads.VerifyOp("thm3", 20, [Fraction(1, 2), Fraction(-1, 3)])
    good = ["identity: thm3", "range: n_max=20", "points checked: 280", "status: PASS"]
    assert op.check(0, "\n".join(good), "") is None
    assert op.check(0, "\n".join(good).replace("280", "279"), "") is not None
    assert op.check(1, "\n".join(good).replace("PASS", "FAIL"), "") is not None


def test_known_fault_fails_without_making_the_run_incorrect():
    fault = workloads.nested_parens_op()
    traceback = run.Outcome(0.2, 0.2, 1, "", "Traceback (most recent call last):\nRecursionError: boom\n")
    refused = run.Outcome(0.2, 0.2, 1, "", "error: column 3001: nesting too deep\n")
    assert run.tally([fault], [[traceback]])[:3] == (True, 1, 1)
    assert run.tally([fault], [[refused]])[:3] == (True, 1, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_command_lines(name):
    first = [op.argv for op in workloads.ops_for(name, 7)]
    again = [op.argv for op in workloads.ops_for(name, 7)]
    assert first == again


@pytest.mark.parametrize("name", ["gf-table", "identity-sweep", "closed-poly", "series-eval"])
def test_seeds_change_the_inputs(name):
    lines = {tuple(op.argv for op in workloads.ops_for(name, seed)) for seed in range(1, 6)}
    assert len(lines) > 1


def test_declared_metrics_are_computed():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    outcome = run.Outcome(1.0, 0.5, 0, "", "")
    e2e = run.end_to_end([[outcome, outcome]], setup=0.1, peak=20.0)
    assert {m["name"] for m in config["end_to_end"]} == set(e2e)
    data = {"layers": trace_shim.NAMES, "counters": {name: 0 for name in trace_shim.CACHES},
            "start": [], "end": [], "parent": [], "layer": [], "nested": []}
    layer_names = set(trace_shim.summarize(data)) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in config["per_layer"]} <= layer_names


def test_self_time_subtracts_direct_children():
    # cli [0, 100] > verify [10, 90] > polylog [20, 50] and a nested polylog [30, 40]
    names = trace_shim.NAMES
    ids = [names.index("cli"), names.index("polybernoulli.verify"),
           names.index("polybernoulli.polylog"), names.index("polybernoulli.polylog")]
    data = {"layers": names, "counters": {}, "layer": ids, "parent": [-1, 0, 1, 2],
            "nested": [0, 0, 0, 1], "start": [0, 10, 20, 30], "end": [100, 90, 50, 40]}
    s = trace_shim.summarize(data)
    assert s["cli.self_s"] == pytest.approx(20e-9)
    assert s["polybernoulli.verify.self_s"] == pytest.approx(50e-9)
    assert s["polybernoulli.polylog.calls"] == 1
    assert s["polybernoulli.polylog.total_s"] == pytest.approx(30e-9)
    assert s["polybernoulli.polylog.self_s"] == pytest.approx(30e-9)


def test_function_missing_from_the_shim_fails_the_traced_run(tmp_path):
    rec = trace_shim.Recorder()
    for run_id in (0, 1):
        rec.write(str(run.span_path(tmp_path, 0, run_id)), 0, {}, ["series.TruncatedSeries.compose"])
    outcome = run.Outcome(1.0, 1.0, 0, "", "")
    with pytest.raises(SystemExit, match="series.TruncatedSeries.compose"):
        run.per_layer([_small_table_op()], [[outcome], [outcome]], [[outcome], [outcome]], tmp_path)

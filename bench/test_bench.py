"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _recorder(rows):
    """Recorder holding (name, start, end, parent) rows in start order."""
    rec = spans.Recorder(pass_id=0)
    for name, start, end, parent in rows:
        rec.name.append(name)
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
    return rec


def test_self_time_subtracts_child_coverage():
    rec = _recorder([(0, 0.0, 10.0, -1),    # A
                     (1, 1.0, 4.0, 0),      # B in A
                     (2, 2.0, 3.0, 1),      # C in B
                     (1, 5.0, 8.0, 0)])     # D in A, named like B
    calls, self_s = rec.self_times()
    assert calls[:3] == [1, 2, 1]
    assert self_s[:3] == [4.0, 5.0, 1.0]    # A 10-3-3, B+D 2+3, C 1


def test_self_time_counts_overlapping_children_once():
    rec = _recorder([(0, 0.0, 10.0, -1), (1, 1.0, 5.0, 0),
                     (1, 3.0, 7.0, 0)])
    assert rec.self_times()[1][0] == 4.0    # children cover 1..7


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) == 9
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile([], 50) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert json.dumps(a) == json.dumps(workloads.make_inputs(workload, 7))
    assert json.dumps(a) != json.dumps(workloads.make_inputs(workload, 8))


def _smoke_units(inputs):
    return [{"id": n, "verdict": workloads.SMOKE_EXPECTED[n],
             "output": None, "error": None} for n in inputs["order"]]


def test_flipped_verdict_is_a_failure():
    inputs = workloads.make_inputs("smoke_mix", 1)
    units = _smoke_units(inputs)
    assert oracle.score("smoke_mix", inputs, units, {}) == ({}, [])
    units[3]["verdict"] = not units[3]["verdict"]
    failed, _ = oracle.score("smoke_mix", inputs, units, {})
    assert list(failed) == [units[3]["id"]]


def test_raising_unit_and_missing_unit_fail():
    inputs = workloads.make_inputs("smoke_mix", 1)
    units = _smoke_units(inputs)
    units[0]["error"] = "Traceback ...\nBudgetExceeded: exhausted"
    failed, problems = oracle.score("smoke_mix", inputs, units[:-1], {})
    assert list(failed) == [units[0]["id"]]
    assert problems == ["units run differ from the units planned"]


def test_e6_verifier_that_passes_everything_fails():
    inputs = workloads.make_inputs("e6_dense", 1)
    refs = {"golden": {"A0": 1}}
    units = [{"id": uid, "verdict": True, "output": 36, "error": None}
             for uid in oracle.expected_ids("e6_dense", inputs)]
    failed, problems = oracle.score("e6_dense", inputs, units, refs,
                                    {"flat_coefficients": {"A0": 1}})
    assert list(failed) == ["frame_perturbed"] and problems == []
    _, problems = oracle.score("e6_dense", inputs, units, refs,
                               {"flat_coefficients": {"A0": 2}})
    assert problems


def test_fibre_check_needs_the_formula_points():
    unit = {"kind": "B2", "params": {"t2": "2", "t4": "1/2"},
            "branch": "f2^2=4f4"}
    point = {"coords_numeric": [[0, 0], [0, 0], [0, 1]], "tjurina": 1,
             "ade": "A1", "exact": True}
    other = dict(point, coords_numeric=[[0, 0], [0, 0], [0, -1]])
    good = {"points": [point, other], "global_tjurina": 2, "smooth": False}
    assert oracle.check_fibre(unit, good) == []
    short = {"points": [point], "global_tjurina": 2, "smooth": False}
    assert len(oracle.check_fibre(unit, short)) == 2


def test_staircase_size():
    assert oracle.staircase_size([(0, 0, 0)]) == 0
    assert oracle.staircase_size([(2, 0, 0), (0, 1, 0), (0, 0, 3)]) == 6
    assert oracle.staircase_size([(2, 0, 0), (0, 1, 0)]) == "infinite"


def test_install_wraps_every_binding_and_uninstall_restores():
    from mckaydeform import deform, poly, quotient
    orig_family, orig_mul = deform.family, poly.MPoly.__mul__
    rec = spans.Recorder(pass_id=3)
    spans.install(rec)
    try:
        assert quotient.family is deform.family is not orig_family
        assert poly.MPoly.__rmul__ is poly.MPoly.__mul__ is not orig_mul
        x = poly.MPoly.variable(poly.VarTable(("x",)), "x")
        poly.Ideal([x * x]).quotient_dimension()
    finally:
        spans.uninstall(rec)
    assert deform.family is orig_family and quotient.family is orig_family
    assert poly.MPoly.__mul__ is orig_mul
    out = rec.metrics("ideal_scan")["metrics"]
    assert out["poly.mul.calls"] >= 1
    assert out["poly.buchberger.calls"] == 1
    assert out["poly.Ideal.quotient_dimension.calls"] == 1
    assert out["poly.mul.rational_share"] == 1.0
    per_layer = run.declared()[1]
    assert set(per_layer) == set(out) | {"trace.overhead_ratio"}

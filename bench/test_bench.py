"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import workloads
import run
from run import count_mismatches
from tracing import Span, Tracer, layer_metrics, self_times, union_length
from workloads import Result
from carnot_coupling import coupling, girsanov, legendre, mc
from carnot_coupling.girsanov import girsanov_normalization_check

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(i, parent, name, t0, t1, thread=1, **attrs):
    return Span(i, parent, name, thread, t0, t1, attrs)


def test_union_length_merges_overlaps_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_time_on_a_synthetic_nest():
    spans = [
        _span(1, None, "call", 0.0, 10.0),
        _span(2, 1, "girsanov", 1.0, 9.0),
        _span(3, 2, "mc.batch", 2.0, 8.0),
        _span(4, 3, "sylvester", 3.0, 4.0),
        _span(5, 3, "mc.rng", 4.0, 5.5),
        _span(6, 3, "legendre.endpoint", 6.0, 8.0),
        _span(7, 6, "legendre.area", 6.5, 7.5),
    ]
    own = self_times(spans)
    assert own["bench"] == pytest.approx(2.0)        # 10 - 8
    # estimator 8 - 6 outside its batch, plus batch 6 - (1 + 1.5 + 2) of glue
    assert own["girsanov"] == pytest.approx(2.0 + 1.5)
    assert own["sylvester"] == pytest.approx(1.0)
    assert own["mc"] == pytest.approx(1.5)
    assert own["legendre"] == pytest.approx(1.0 + 1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_with_batches_on_two_threads():
    spans = [
        _span(1, None, "coupling", 0.0, 10.0),
        _span(2, 1, "mc.batch", 1.0, 6.0, thread=2),
        _span(3, 1, "mc.batch", 2.0, 8.0, thread=3),
        _span(4, 2, "sylvester", 1.0, 3.0, thread=2),
        _span(5, 3, "gaussian_coupling", 7.0, 8.0, thread=3),
    ]
    own = self_times(spans)
    # estimator: 10 - union(1..8) = 3; batches: (5 - 2) + (6 - 1) = 8
    assert own["coupling"] == pytest.approx(3.0 + 8.0)
    assert own["sylvester"] == pytest.approx(2.0)
    assert own["gaussian_coupling"] == pytest.approx(1.0)


def test_layer_metrics_report_zero_for_unused_layers():
    spans = [_span(1, None, "cli", 0.0, 1.0), _span(2, 1, "coupling", 0.2, 0.8)]
    m = layer_metrics(spans, cycles=2)
    assert m["legendre.area_s"] == 0.0
    assert m["legendre.ops_per_byte"] == 0.0
    assert m["catalog.f_calls"] == 0.0
    assert m["cli.self_s"] == pytest.approx(0.2)    # (1.0 - 0.6) / 2 cycles
    assert m["coupling.self_s"] == pytest.approx(0.3)


def _patched_attributes():
    return {
        (girsanov, "tsylvester_batch"): girsanov.tsylvester_batch,
        (coupling, "tsylvester_batch"): coupling.tsylvester_batch,
        (girsanov, "endpoint_packed"): girsanov.endpoint_packed,
        (legendre, "levy_area_packed"): legendre.levy_area_packed,
        (coupling, "couple_to_shift"): coupling.couple_to_shift,
        (girsanov, "run_vector_estimator"): girsanov.run_vector_estimator,
        (coupling, "run_vector_estimator"): coupling.run_vector_estimator,
        (mc, "derive_rng"): mc.derive_rng,
    }


def test_traced_run_restores_attributes_and_repeats_the_estimate():
    before = _patched_attributes()
    g, gt, T = workloads.WT_NORM
    plain = girsanov_normalization_check(g, gt, T, 8, 4096, 5)
    tracer = Tracer()
    with tracer.installed():
        assert girsanov.tsylvester_batch is not before[(girsanov, "tsylvester_batch")]
        traced = girsanov_normalization_check(g, gt, T, 8, 4096, 5)
    assert _patched_attributes() == before
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"girsanov", "mc.batch", "mc.rng", "sylvester"} <= names
    m = layer_metrics(tracer.spans, cycles=1)
    assert m["sylvester.rows"] == 4096
    assert m["mc.rng_normals"] == 4096 * (3 * 8 + 2) * 2


def test_attributes_are_restored_when_the_traced_code_raises():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _patched_attributes() == before


def _wt(**over):
    norm = {"R": 1.0, "R_se": 1e-3, "gap": 0.0, "gap_se": 1e-3}
    sin = {"weighted": 2.0, "weighted_se": 1e-2, "direct": 2.0, "direct_se": 1e-2}
    bump = {"weighted": 0.1, "weighted_se": 1e-4, "direct": 0.1, "direct_se": 1e-4}
    for key, val in over.items():
        call, field = key.split("__")
        {"norm": norm, "sin": sin, "bump": bump}[call][field] = val
    return [Result(norm, 0.0), Result(sin, 0.0), Result(bump, 0.0)]


@pytest.mark.parametrize("wrong, gate", [
    ({"norm__R": 1.005}, "E[R]=1"),
    ({"norm__gap": -0.004}, "entropy identity"),
    ({"sin__weighted": 2.05}, "transfer sin-perturbation"),
    ({"bump__direct": float("nan")}, "transfer gaussian-bump"),
])
def test_weighted_transfer_gates_reject_a_wrong_estimate(wrong, gate):
    gates = workloads.weighted_transfer(16, 1).gates
    assert all(ok for _, ok in gates([_wt()]))
    failed = [name for name, ok in gates([_wt(**wrong)]) if not ok]
    assert failed == [gate]


def test_long_path_gate_rejects_a_wrong_gradient():
    gates = workloads.long_path_gradient(16).gates
    good = [Result({"bismut": 0.015, "bismut_se": 0.005}, 0.0),
            Result({"fd": 0.016, "fd_se": 0.001}, 0.0)]
    bad = [Result({"bismut": 0.045, "bismut_se": 0.005}, 0.0), good[1]]
    assert all(ok for _, ok in gates([good]))
    assert not any(ok for _, ok in gates([bad]))


def test_coupling_gates_reject_a_failed_exit_and_a_gap(tmp_path):
    gates = workloads.coupling_failure(str(tmp_path), 1, small=True).gates
    ok = [Result({"exit": 0.0}, 0.0)] * 3
    bad = ok[:2] + [Result({"exit": 1.0}, 0.0)]
    assert all(p for _, p in gates([ok, ok]))
    assert [p for _, p in gates([ok, bad])] == [True, True, False]
    assert workloads.meets_exactly(1e-13, 1e-10)
    assert not workloads.meets_exactly(1e-9, 0.0)
    assert not workloads.meets_exactly(0.0, 1e-6)


def test_pooling_halves_sigma_over_four_cycles():
    cycles = [[Result({"x": m, "x_se": 0.2}, 0.0)] for m in (1.0, 2.0, 3.0, 6.0)]
    assert workloads.pooled(cycles, 0, "x") == pytest.approx((3.0, 0.1))
    # a bias of 2 sigma passes on one cycle and is 4 pooled sigmas on four
    gates = workloads.weighted_transfer(16, 1).gates
    assert dict(gates([_wt(norm__R=1.002)]))["E[R]=1"]
    assert not dict(gates([_wt(norm__R=1.002) for _ in range(4)]))["E[R]=1"]


def test_a_gate_fails_only_when_its_recheck_fails_too():
    calls = []

    def rerun(outcome):
        def f():
            calls.append(1)
            return [("a", True), ("b", outcome)]
        return f

    passing = [("a", True), ("b", True)]
    assert workloads.confirm_gates(passing, rerun(False)) == passing
    assert calls == []
    first = [("a", True), ("b", False)]
    assert workloads.confirm_gates(first, rerun(True)) == passing
    assert workloads.confirm_gates(first, rerun(False)) == first


def test_count_mismatches_compares_bits_and_keys():
    a = [{"x": (0.1).hex(), "y": "abc"}]
    assert count_mismatches(a, a) == (0, 2)
    assert count_mismatches(a, [{"x": math.nextafter(0.1, 1.0).hex(), "y": "abc"}]) == (1, 2)
    assert count_mismatches(a, [{"x": (0.1).hex()}]) == (1, 2)


def test_call_seeds_are_distinct_and_hash_free():
    seeds = {workloads.call_seed(7, c, i) for c in range(50) for i in range(3)}
    assert len(seeds) == 150
    assert workloads.call_seed(7, 2, 1) == mc.split_seed(7, 2 * workloads.CYCLE_STRIDE + 1)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    traced = layer_metrics([], cycles=1)
    assert set(traced) <= set(run.PER_LAYER_UNITS)


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weighted-transfer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""

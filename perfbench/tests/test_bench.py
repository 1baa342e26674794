"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/tests

The counter test runs every workload's traced round twice, so it takes
a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def result(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counters_repeat_across_traced_runs(workload):
    first, second = (result("--workload", workload, "--seed", "3", "--trace", "1")
                     for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    a = {k: first["metrics"][k]["value"] for k in tracing.DETERMINISTIC}
    b = {k: second["metrics"][k]["value"] for k in tracing.DETERMINISTIC}
    assert a == b
    assert any(a.values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_removed_public_name_reads_zero(monkeypatch):
    lib = workloads.load_library()
    monkeypatch.delattr(lib.convert, "dfa_product")
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        # decide still holds dfa_product under its own name: the call runs unwrapped
        assert lib.decide.inclusion_witness(lib.witness.gen_e(2, 2), 2,
                                            lib.witness.gen_e(2, 1), 1) is None
    finally:
        tracer.uninstall()
    tracing.assert_untraced()
    values = tracer.metrics(0.0)
    assert "iufst.convert.dfa_product" in tracer.missing
    assert values["convert.dfa_product.time_s"] == 0
    assert values["decide.inclusion_witness.time_s"] > 0
    assert values["convert.nfa_to_dfa.subsets"] > 0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(39) == 50.0


def test_oracle_that_skips_words_is_caught(monkeypatch):
    lib = workloads.load_library()
    t = lib.witness.gen_copy()
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        tracer.op(lambda: lib.oracle.compare_languages(t, lib.witness.in_copy, ("a", "b", "$"), 4))
        assert tracer.mismatches == []
        every = lib.oracle.enumerate_words
        monkeypatch.setattr(lib.oracle, "enumerate_words",
                            lambda alphabet, n: (w for i, w in enumerate(every(alphabet, n)) if i % 2))
        tracer.op(lambda: lib.oracle.compare_languages(t, lib.witness.in_copy, ("a", "b", "$"), 4))
    finally:
        tracer.uninstall()
    assert [i for i, _msg in tracer.mismatches] == [1]
    assert tracer.metrics(0.0)["oracle.words"] == 121 + 60


def test_set_up_between_rounds_leaves_the_ops_library_in_place():
    lib = workloads.load_library()
    ours = workloads.library_modules()
    workloads.load_library()
    assert sys.modules["iufst.core"] is not lib.core
    workloads.library_modules(replace=ours)
    assert sys.modules["iufst.core"] is lib.core
    assert set(workloads.library_modules()) == set(ours)


def test_host_factor_scales_to_the_reference_kernel_time():
    host = run.Host()
    host.times = [2 * run.CALIBRATION_REF_S, 2 * run.CALIBRATION_REF_S]
    assert host.factor() == 0.5
    assert run.calibration_kernel() == run.calibration_kernel() > 0

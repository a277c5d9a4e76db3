"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The workload runs use ``--seconds 0``, the minimal length: one round.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=3, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace, kind):
    metrics = bench(workload, trace=trace)
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in metrics.values())


def test_same_seed_repeats_counts_and_misses():
    first, second = (bench("mean-sweep", seed=11, trace=1) for _ in range(2))
    counted = [name for name, m in first.items()
               if m["unit"] == "count" or name in ("miss_rate", "failed_share")]
    assert len(counted) > 30
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}

    first, second = (bench("tvd-laws", seed=11) for _ in range(2))
    for name in ("quantum_queries_per_estimate",
                 "classical_samples_per_estimate", "within_target_share"):
        assert first[name] == second[name]


@pytest.fixture(scope="module")
def tracer():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracer import Tracer

    t = Tracer()
    t.install()
    return t


def test_tracer_wraps_every_binding(tracer):
    import numpy as np
    import qmcs

    from tracer import unwrapped_bindings

    assert unwrapped_bindings(tracer.originals.values()) == []
    # estimate_mean_variance reaches the sampler only through the
    # qmcs.mean.ae_median binding, never through qmcs.amplitude.ae_median
    d = qmcs.make_distribution([(0.0, 0.5), (1.0, 0.5)])
    qmcs.estimate_mean_variance(d, 1.0, 0.5, np.random.default_rng(0),
                                qmcs.QueryLedger())
    names = {span[0] for span in tracer.spans}
    assert {"mean.estimate_mean_variance", "amplitude.ae_median",
            "amplitude.ae_sample", "outcome.transform"} <= names


def test_binding_check_reports_a_missed_import(tracer):
    original = tracer.originals["amplitude.ae_median"]
    probe = types.ModuleType("qmcs._binding_probe")
    probe.ae_median = original
    sys.modules[probe.__name__] = probe
    try:
        from tracer import unwrapped_bindings

        assert unwrapped_bindings(tracer.originals.values()) == [
            "qmcs._binding_probe.ae_median"]
    finally:
        del sys.modules[probe.__name__]


def test_times_scale_by_the_speed_around_each_op():
    sys.path.insert(0, str(HERE))
    from speed import REFERENCE_S
    from worker import at_reference_speed

    calibrations = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S),
                    (3.0, 2 * REFERENCE_S)]
    records = [("a", 0.2, 0.6, None), ("b", 1.5, 2.5, None)]
    # the first op ran between a sample at reference speed and one at half
    # of it; the second ran at half speed throughout
    assert at_reference_speed(records, calibrations) == pytest.approx(
        [0.4 / 1.5, 0.5])

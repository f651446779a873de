"""The benchmark's own checks: tracing is neutral, and the gates bite.

    python3 -m pytest perfbench
"""

import copy
import dataclasses

import pytest

import harness
from spans import OUTSIDE, SpanProfiler

# Self times must sum to the traced wall time to within this fraction. The
# difference is the benchmark building each scenario outside any span, and
# the end of a sweep after its last run.
COVERAGE_TOLERANCE = 0.03

SMALL = [
    dataclasses.replace(harness.WORKLOADS["baseline-traced"], name="small-traced",
                        default_seeds=(1,), duration=30.0),
    dataclasses.replace(harness.WORKLOADS["paired-sweep"], name="small-sweep",
                        default_seeds=(2,), node_count=20, duration=30.0),
]


@pytest.fixture(scope="module")
def bench():
    ms, _ = harness.import_manetsim(harness.SpeedProbe())
    return harness.Bench(ms, recorded={})


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_pass_matches_untraced(bench, workload):
    seeds = list(workload.default_seeds)
    plain = bench.run_pass(workload, seeds)
    prof = SpanProfiler()
    traced = bench.run_pass(workload, seeds, prof)

    assert [r.fingerprint for r in traced.runs] == [r.fingerprint for r in plain.runs]
    assert all(not r.failures for r in plain.runs + traced.runs)
    if workload.with_trace:
        assert all("trace_sha256" in r.fingerprint for r in traced.runs)

    layers = sum(t for layer, t in prof.self_s.items() if layer != OUTSIDE)
    assert abs(layers / traced.wall_s - 1) <= COVERAGE_TOLERANCE
    assert prof.calls["Radio.send"] > 0 and prof.calls["EnergyLedger.alive"] > 0


def test_spans_are_removed_after_a_pass(bench):
    engine_cls = bench.ms.Engine
    before = (engine_cls.schedule, bench.ms.MobilityModel.position, bench.ms.runner.build_network)
    bench.run_pass(SMALL[0], [1], SpanProfiler())
    assert (engine_cls.schedule, bench.ms.MobilityModel.position, bench.ms.runner.build_network) == before


def test_recorded_fingerprints_gate_runs(bench):
    workload = dataclasses.replace(harness.WORKLOADS["baseline-traced"], protocols=("aodv",))
    recorded = harness.load_fingerprints()
    bench.recorded = recorded
    (run,) = bench.run_pass(workload, [1]).runs
    assert run.failures == []

    tampered = copy.deepcopy(recorded)
    tampered[workload.name][run.spec.key]["sent"] += 1
    bench.recorded = tampered
    (run,) = bench.run_pass(workload, [1]).runs
    bench.recorded = {}
    assert run.failures == ["fingerprint mismatch in ['sent']"]


def test_held_out_seed_is_checked_by_invariants_only(bench):
    spec = dataclasses.replace(SMALL[0].specs([1])[0], seed=harness.HELD_OUT_BASE + 7)
    assert all(spec.key not in runs for runs in harness.load_fingerprints().values())
    assert bench.check_run(SMALL[0], spec).failures == []

"""Self-tests of the benchmark, at a tiny scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

TINY = harness.Scale(num_keys=3_000, num_clients=8, ops_per_client=25)

#: Per-layer metrics measured on the host clock; every other per-layer
#: metric is a count and must repeat exactly.
_HOST_METRICS = ("self_us_per_op", "self_share", "overhead_ratio", "host_ns_per_event")


def _count_metrics(metrics):
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if not any(part in name for part in _HOST_METRICS)
    }


# -- layer map and call counting ------------------------------------------------


def test_layer_map_covers_every_repro_module_exactly_once():
    assert not layers.duplicated_modules()
    modules = layers.repo_modules(SRC)
    assert sorted(modules - set(layers.LAYER_OF_MODULE)) == []  # unmapped
    assert sorted(set(layers.LAYER_OF_MODULE) - modules) == []  # stale
    assert set(layers.LAYER_OF_MODULE.values()) <= set(layers.LAYERS) - {"other"}


def test_resolver_maps_files_to_layers():
    resolver = layers.LayerResolver(SRC)
    assert resolver.layer_of(str(SRC / "repro" / "sim" / "core.py")) == "sim"
    assert resolver.layer_of(str(SRC / "repro" / "__init__.py")) == "workloads"
    assert resolver.layer_of(pstats.__file__) == "other"
    assert resolver.layer_of("~") == "other"


def _inner():
    yield 1
    yield 2
    yield 3


def _outer():
    total = 0
    for _ in range(2):
        total += sum((yield from _wrap()))
    return total


def _wrap():
    values = []
    for value in _inner():
        values.append(value)
        yield value
    return values


def _drain(generator):
    for _ in generator:
        pass


def test_call_counter_counts_generator_calls_not_resumes():
    with layers.CallCounter() as counter:
        for _ in range(3):
            _drain(_outer())
    calls = {code.co_name: count for code, count in counter.calls.items()}
    assert calls["_outer"] == 3
    assert calls["_wrap"] == 6
    assert calls["_inner"] == 6
    assert calls["_drain"] == 3

    # cProfile, for contrast, counts every resume as a call.
    profiler = cProfile.Profile()
    profiler.enable()
    _drain(_inner())
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    (inner_calls,) = [
        entry[1] for key, entry in stats.items() if key[2] == "_inner"
    ]
    assert inner_calls == 4


# -- correctness gate ---------------------------------------------------------------


def test_gate_accepts_a_balanced_run():
    assert harness.gate(True, [], 1_050, 1_000, 50, 100, 0, 100) == []
    # an errored insert may or may not have landed
    assert harness.gate(True, [], 1_051, 1_000, 50, 99, 1, 100) == []


def test_gate_rejects_each_kind_of_failure():
    assert harness.gate(False, ["bad fence"], 1_050, 1_000, 50, 100, 0, 100)
    assert harness.gate(True, [], 1_050, 1_000, 50, 99, 0, 100)  # lost op
    assert harness.gate(True, [], 1_049, 1_000, 50, 100, 0, 100)  # lost insert
    assert harness.gate(True, [], 1_052, 1_000, 50, 99, 1, 100)  # extra entry


# -- determinism ----------------------------------------------------------------------


@pytest.mark.parametrize("workload_name", sorted(harness.WORKLOADS))
def test_same_seed_repeats_and_another_seed_differs(workload_name):
    workload = harness.WORKLOADS[workload_name]
    first = harness.run_design(workload, "fg", 1, TINY)
    again = harness.run_design(workload, "fg", 1, TINY)
    other = harness.run_design(workload, "fg", 2, TINY)
    for run in (first, again, other):
        assert run.gate_failures == []
    assert first.fingerprint() == again.fingerprint()
    assert other.counts["events"] != first.counts["events"]


@pytest.fixture(scope="module")
def traced_twice():
    resolver = layers.LayerResolver(SRC)
    workload = harness.WORKLOADS["chaos_obs"]
    return [harness.trace(workload, 1, resolver, TINY) for _ in range(2)]


def test_traced_passes_agree_with_the_untraced_run(traced_twice):
    for traced in traced_twice:
        # Gates pass, every pass simulates exactly what the plain pass did,
        # and the layers' self times reconcile to the traced wall.
        assert harness.check_traced(traced) == []


def test_counts_repeat_exactly_across_traced_runs(traced_twice):
    first, second = (harness.per_layer_metrics(traced) for traced in traced_twice)
    assert len(first) == 72
    counts = _count_metrics(first)
    assert len(counts) == 72 - 24 - 8 - 1 - 3  # all but the host-clock metrics
    assert counts == _count_metrics(second)
    sims = [
        {design: passes.plain.sim for design, passes in traced.items()}
        for traced in traced_twice
    ]
    assert sims[0] == sims[1]


@pytest.fixture(scope="module")
def timed_runs():
    return harness.measure(harness.WORKLOADS["read_zipf"], 3, 0.0, TINY)


def test_timed_measurement_reports_every_end_to_end_metric(timed_runs):
    assert harness.check_runs(timed_runs) == []
    metrics = harness.end_to_end_metrics(timed_runs)
    assert len(metrics) == 16
    assert all(entry["value"] > 0 for entry in metrics.values())
    for design_runs in timed_runs.values():
        assert [run.seed for run in design_runs] == [9, 10, 11, 9]
    for run in timed_runs["fg"]:
        assert run.run_ref_s > 0 and run.setup_ref_s > 0


def test_benchmark_json_declares_what_the_runs_print(timed_runs, traced_twice):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)
    assert list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for key, metrics in (
        ("end_to_end", harness.end_to_end_metrics(timed_runs)),
        ("per_layer", harness.per_layer_metrics(traced_twice[0])),
    ):
        assert sorted((m["name"], m["unit"]) for m in declared[key]) == sorted(
            (name, entry["unit"]) for name, entry in metrics.items()
        )
    setup_bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in declared["end_to_end"])


# -- command line ---------------------------------------------------------------------


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout

"""Finished span trees are freed by reference counting, not by the GC.

An :class:`~repro.obs.spans.OpSpan` keeps its parent link only while it is
open, and the flight recorder's op rings store flat records, so a finished
tree that no sampler kept holds no reference cycle: it dies the moment
``end_op`` drops it. Each test runs an observability-on workload with the
cycle collector disabled, under drops and replication, and then asks the
collector what it would have had to free.
"""

from __future__ import annotations

import gc

import pytest

from repro import Cluster, ClusterConfig, FaultPlan
from repro.experiments.common import build_index
from repro.obs import ObservabilityConfig, OpSpan
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

SAMPLED = 8
SLOW = 4
CLIENTS = 8
OPS_PER_CLIENT = 40

SPEC = WorkloadSpec(
    name="span-gc",
    point_fraction=0.6,
    range_fraction=0.1,
    insert_fraction=0.3,
    selectivity=0.01,
)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _unreachable_spans():
    """OpSpans only the cycle collector could free (left out of the heap's
    reachable graph but not yet released by reference counting)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, OpSpan)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _run(design):
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=2,
            replication_factor=2,
            seed=11,
            observability=ObservabilityConfig(
                enabled=True,
                sample_every=3,
                max_sampled_spans=SAMPLED,
                max_slow_spans=SLOW,
                slow_op_threshold_s=20e-6,
                max_flight_dumps=CLIENTS * OPS_PER_CLIENT + 1,
            ),
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = build_index(cluster, design, dataset)
    cluster.attach_faults(FaultPlan(seed=5, drop_probability=0.01))
    runner = WorkloadRunner(cluster, dataset, clients_per_compute_server=CLIENTS)
    result = runner.run(
        index, SPEC, num_clients=CLIENTS, seed=3, ops_per_client=OPS_PER_CLIENT
    )
    return cluster, result


@pytest.mark.parametrize("design", ["coarse-grained", "fine-grained", "hybrid"])
def test_span_trees_are_freed_without_the_cycle_collector(design, collector_off):
    cluster, result = _run(design)
    obs = cluster.obs
    assert result.total_ops + sum(result.errors.values()) > 0
    assert obs.ops_observed == CLIENTS * OPS_PER_CLIENT
    # Both retention deques overflowed, so evicted trees were dropped too.
    assert len(obs.sampled_spans) == SAMPLED
    assert len(obs.slow_spans) == SLOW
    assert obs.ops_observed > 3 * SAMPLED and any(
        span.children for span in obs.sampled_spans
    )

    assert _unreachable_spans() == []
    live_roots = [
        obj for obj in gc.get_objects()
        if isinstance(obj, OpSpan) and obj.kind == "op"
    ]
    assert len(live_roots) <= SAMPLED + SLOW
    rings = obs.flight._client_ops
    assert rings
    assert not any(
        isinstance(record, OpSpan) or any(isinstance(f, OpSpan) for f in record)
        for ring in rings.values()
        for record in ring
    )
    # The flat records still render the bundle's recent-op rings.
    recent = obs.flight_dump("manual")["recent_ops"]
    assert sum(len(ops) for ops in recent.values()) == CLIENTS * OPS_PER_CLIENT
    for ops in recent.values():
        for op in ops:
            assert set(op) == {"op_id", "name", "started_at", "finished_at"}
            assert op["finished_at"] >= op["started_at"]

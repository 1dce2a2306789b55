"""Differential goldens for the fault-injected verb paths.

``tests/test_engine_golden.py`` pins the fault-free simulation; this file
pins the chaos one. Each (design, batching) cell runs a mixed workload
on the engine-golden cluster shape, replicated (``replication_factor=2``),
under a seeded :class:`~repro.rdma.faults.FaultPlan` with message drops, delays,
duplicates and one destructive :class:`~repro.rdma.faults.ServerCrash`,
so every cell exercises the retry loops, RPC replay, mirror legs and one
client-driven failover. The pinned values are the simulator's event
count, the engine-golden result fingerprint, and the fault injector's and
replication manager's counters — any refactor of the verb layer that moves
a single retry, drop draw or mirror leg fails here.

A second test balances the WQE ledger on the same cells: every work-queue
entry a client port posts either completes (one traced completion) or is
abandoned with its chain when the retry budget runs out.

Re-capture after an intentional behavioral change with the snippet at the
bottom of this file.
"""

import contextlib

import pytest

from repro import VerbTracer
from repro.config import ClusterConfig, NetworkConfig, TreeConfig
from repro.experiments.common import build_index
from repro.nam.cluster import Cluster
from repro.rdma.faults import FaultPlan, ServerCrash
from repro.rdma.verbs import Verb
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

from tests.test_engine_golden import _fingerprint

_SPEC = WorkloadSpec(
    name="chaos-diff",
    point_fraction=0.5,
    range_fraction=0.2,
    insert_fraction=0.3,
    selectivity=0.05,
)

_PLAN = FaultPlan(
    seed=41,
    drop_probability=0.01,
    delay_probability=0.02,
    delay_s=20e-6,
    duplicate_probability=0.01,
    server_crashes=(ServerCrash(1, at_s=0.0015, down_for_s=0.002),),
)

# (events scheduled, result fingerprint, injector.stats, replication.stats)
_GOLDENS = {
    ("coarse-grained", True): (
        17262,
        "1b7eb123a939db7dc91bcb23fb9bb98b843666a14fc934e5b04e26a1965755ee",
        {"drops": 22, "delays": 33, "duplicates": 10, "retries": 46, "rpc_replays": 13, "server_crashes": 1, "server_restarts": 0, "compute_crashes": 0, "killed_processes": 0, "lock_steals": 0},
        {"failovers": 1, "mirror_legs": 264, "mirrored_bytes": 135168, "wiped_copies": 2, "resynced_copies": 0, "resynced_bytes": 0, "re_replications": 1},
    ),
    ("coarse-grained", False): (
        17262,
        "1b7eb123a939db7dc91bcb23fb9bb98b843666a14fc934e5b04e26a1965755ee",
        {"drops": 22, "delays": 33, "duplicates": 10, "retries": 46, "rpc_replays": 13, "server_crashes": 1, "server_restarts": 0, "compute_crashes": 0, "killed_processes": 0, "lock_steals": 0},
        {"failovers": 1, "mirror_legs": 264, "mirrored_bytes": 135168, "wiped_copies": 2, "resynced_copies": 0, "resynced_bytes": 0, "re_replications": 1},
    ),
    ("fine-grained", True): (
        6418,
        "dc7dfcb1ece1e42e2d2437184b08bbda8cb73e876c3ad2c5e24489ee37e211c9",
        {"drops": 30, "delays": 28, "duplicates": 17, "retries": 53, "rpc_replays": 0, "server_crashes": 1, "server_restarts": 0, "compute_crashes": 0, "killed_processes": 0, "lock_steals": 0},
        {"failovers": 1, "mirror_legs": 243, "mirrored_bytes": 42768, "wiped_copies": 2, "resynced_copies": 0, "resynced_bytes": 0, "re_replications": 1},
    ),
    ("fine-grained", False): (
        6672,
        "d5a974206e89791b76c062fbb176d2c3102392b5ebbbe6810dd098b33e996d07",
        {"drops": 36, "delays": 28, "duplicates": 14, "retries": 63, "rpc_replays": 0, "server_crashes": 1, "server_restarts": 0, "compute_crashes": 0, "killed_processes": 0, "lock_steals": 0},
        {"failovers": 1, "mirror_legs": 201, "mirrored_bytes": 35376, "wiped_copies": 2, "resynced_copies": 0, "resynced_bytes": 0, "re_replications": 1},
    ),
    ("hybrid", True): (
        9817,
        "67290e8d1e7411c50a1bdfac597bafedc10357aca448e12433738546bed1602d",
        {"drops": 31, "delays": 31, "duplicates": 16, "retries": 54, "rpc_replays": 3, "server_crashes": 1, "server_restarts": 0, "compute_crashes": 0, "killed_processes": 0, "lock_steals": 0},
        {"failovers": 1, "mirror_legs": 282, "mirrored_bytes": 49632, "wiped_copies": 2, "resynced_copies": 0, "resynced_bytes": 0, "re_replications": 1},
    ),
    ("hybrid", False): (
        9912,
        "0d3af063ba02a12ff8189d41233abd13b42ffbbf22d247de69fb8ef7bc81e8cf",
        {"drops": 33, "delays": 27, "duplicates": 15, "retries": 60, "rpc_replays": 5, "server_crashes": 1, "server_restarts": 0, "compute_crashes": 0, "killed_processes": 0, "lock_steals": 0},
        {"failovers": 1, "mirror_legs": 243, "mirrored_bytes": 42768, "wiped_copies": 2, "resynced_copies": 0, "resynced_bytes": 0, "re_replications": 1},
    ),
}


def _run_cell(design: str, batched: bool, trace: bool = False):
    dataset = generate_dataset(3000, 8)
    config = ClusterConfig(
        num_memory_servers=4,
        memory_servers_per_machine=2,
        network=NetworkConfig(
            message_overhead_s=1.0e-6, doorbell_batching=batched
        ),
        tree=TreeConfig(page_size=512, head_node_interval=24, prefetch_window=24),
        replication_factor=2,
        seed=7,
    )
    cluster = Cluster(config)
    index = build_index(cluster, design, dataset)
    injector = cluster.attach_faults(_PLAN)
    runner = WorkloadRunner(cluster, dataset)
    tracer = VerbTracer(cluster) if trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        result = runner.run(
            index, _SPEC, num_clients=8, warmup_s=0.0005, measure_s=0.002,
            seed=7,
        )
    return cluster, injector, result, tracer


@pytest.mark.parametrize("design,batched", sorted(_GOLDENS))
def test_chaos_golden_fingerprint(design, batched):
    cluster, injector, result, _tracer = _run_cell(design, batched)
    steps, fingerprint, fault_stats, replication_stats = _GOLDENS[(design, batched)]
    assert cluster.sim.events_scheduled == steps
    assert _fingerprint(result) == fingerprint
    assert injector.stats == fault_stats
    assert cluster.replication.stats == replication_stats


@pytest.mark.parametrize("design", ["coarse-grained", "fine-grained", "hybrid"])
def test_wqe_ledger_balances(design):
    """Every WQE a client port posts completes exactly once (one traced,
    non-local completion) or fails exactly once with its chain; a
    failover re-issue posts its entries again."""
    cluster, _injector, result, tracer = _run_cell(design, True, trace=True)
    # The tracer is passive: the traced run is the pinned simulation.
    assert _fingerprint(result) == _GOLDENS[(design, True)][1]
    ports = {id(cs.port): cs.port for cs in cluster.compute_servers}.values()
    posted = sum(port.wqes_posted for port in ports)
    failed = sum(port.wqes_failed for port in ports)
    remote = [record for record in tracer.records if not record.local]
    assert posted == len(remote) + failed
    # The cell covers every kind of post, and at least one chain gave up
    # and was re-issued on the promoted backup.
    assert failed > 0
    assert cluster.replication.stats["failovers"] == 1
    sends = [r for r in remote if r.verb is Verb.SEND]
    one_sided = [r for r in remote if r.verb is not Verb.SEND]
    if design == "fine-grained":
        assert not sends
    else:
        assert sends
    if design != "coarse-grained":
        assert any(r.batch_id is None for r in one_sided)
        assert any(r.batch_id is not None for r in one_sided)


# Re-capture goldens after an intentional behavioral change with:
#
#   for design in ("coarse-grained", "fine-grained", "hybrid"):
#       for batched in (True, False):
#           cluster, injector, result, _ = _run_cell(design, batched)
#           print((design, batched), (cluster.sim.events_scheduled,
#                 _fingerprint(result), dict(injector.stats),
#                 dict(cluster.replication.stats)))

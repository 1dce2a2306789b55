"""The version-keyed decode memo: shared per compute server, per region on
the server side, and invisible to the simulation.

* Differential: the same seeded run with every memo on, and with every
  memo replaced by a :class:`NoDecodeMemo`, must produce identical
  latencies, event counts, NIC bytes and verified entries — including a
  replicated run where a memory server crashes and a backup is promoted
  (the server-side memo then runs over an adopted region).
* Chaos differential: memo on vs. off for every design, batched and
  unbatched, under replication, drops, delays, duplicates and a crash that
  forces a failover, a restart and a resync — identical event counts,
  result fingerprints, fault and replication tallies and verified entries.
* Invalidation: a crash, a promotion and a resync each empty every compute
  server's memo (the three points where a logical server's bytes change
  without a version bump); nothing else does.
* Memory bound: the compute server's memo holds at most one master per
  allocated page, however many client sessions share it.
* Unit guards on :class:`LocalAccessor`: shared masters vs. private clones,
  wipe invalidation, and the inlined pointer decode's error paths.
"""

from __future__ import annotations

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    ServerCrash,
    verify_index,
)
from repro.btree.node import Node, NodeType
from repro.btree.pointers import NULL_RAW, encode_pointer
from repro.config import NetworkConfig, TreeConfig
from repro.errors import RemoteAccessError
from repro.experiments.common import build_index
from repro.index.accessors import LocalAccessor, NoDecodeMemo, RemoteAccessor
from repro.nam.compute_server import ComputeServer
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

from tests.test_engine_golden import _fingerprint as _result_fingerprint

DESIGNS = ("coarse-grained", "fine-grained", "hybrid")

MIXED = WorkloadSpec(
    name="memo-diff",
    point_fraction=0.5,
    range_fraction=0.2,
    insert_fraction=0.3,
    selectivity=0.01,
)


def _install_memos(monkeypatch, memo_on: bool) -> list:
    """Record every memo the run creates; with *memo_on* False each one is
    a :class:`NoDecodeMemo` instead (remote accessors pick up their
    compute server's memo at construction)."""
    made = []

    def wrap(cls, attr):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if not memo_on:
                setattr(self, attr, NoDecodeMemo())
            made.append(self)

        monkeypatch.setattr(cls, "__init__", init)

    wrap(ComputeServer, "decode_memo")
    wrap(LocalAccessor, "_decode_cache")
    return made


def _fingerprint(cluster, index, result):
    events = cluster.sim.events_scheduled
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    return (
        sorted(result.op_counts.items()),
        sorted(result.latencies.items()),
        events,
        sorted(result.network.items()),
        sorted(result.errors.items()),
        report.entries,
    )


def _mixed_run(design):
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=4,
            tree=TreeConfig(page_size=512),
            seed=7,
        )
    )
    dataset = generate_dataset(3000, gap=8)
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset, clients_per_compute_server=8)
    result = runner.run(
        index, MIXED, num_clients=16, warmup_s=0.0005, measure_s=0.002, seed=7
    )
    return cluster, index, result


def _crash_run(design):
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=3,
            memory_servers_per_machine=1,
            replication_factor=2,
            seed=43,
        )
    )
    dataset = generate_dataset(600, gap=4)
    index = build_index(cluster, design, dataset)
    injector = cluster.attach_faults(
        FaultPlan(
            seed=13,
            drop_probability=0.01,
            server_crashes=(ServerCrash(1, at_s=0.002, down_for_s=0.002),),
        )
    )
    runner = WorkloadRunner(cluster, dataset, clients_per_compute_server=8)
    result = runner.run(
        index, MIXED, num_clients=8, warmup_s=0.001, measure_s=0.006, seed=17
    )
    assert injector.stats["server_crashes"] == 1
    assert injector.stats["server_restarts"] == 1
    assert cluster.replication.stats["failovers"] >= 1
    injector.quiesce()
    return cluster, index, result


def _server_tree(index, server_id):
    if index.design == "coarse-grained":
        return index.local_tree(server_id)
    return index.inner_tree(server_id)


@pytest.mark.parametrize("design", DESIGNS)
def test_memo_on_and_off_simulate_identically(design, monkeypatch):
    fingerprints = []
    for memo_on in (True, False):
        with monkeypatch.context() as patch:
            made = _install_memos(patch, memo_on)
            cluster, index, result = _mixed_run(design)
            fingerprints.append(_fingerprint(cluster, index, result))
        if memo_on:
            # The on leg really served reads from the memos it built.
            assert any(
                getattr(owner, "decode_memo", None)
                or getattr(owner, "_decode_cache", None)
                for owner in made
            )
    assert result.op_counts["insert"] > 0 and result.op_counts["range"] > 0
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.parametrize("design", ("coarse-grained", "hybrid"))
def test_memo_on_and_off_simulate_identically_across_failover(design, monkeypatch):
    fingerprints = []
    for memo_on in (True, False):
        with monkeypatch.context() as patch:
            _install_memos(patch, memo_on)
            cluster, index, result = _crash_run(design)
            fingerprints.append(_fingerprint(cluster, index, result))
            promoted = _server_tree(index, 1).acc
            # Server 1's partition now runs on a backup host over the
            # adopted replica region, through a fresh local memo.
            assert promoted.server is not cluster.memory_servers[1]
            assert promoted.region is not cluster.memory_servers[1].region
            assert bool(promoted._decode_cache) is memo_on
    assert fingerprints[0] == fingerprints[1]


_CHAOS_PLAN = FaultPlan(
    seed=41,
    drop_probability=0.01,
    delay_probability=0.02,
    delay_s=20e-6,
    duplicate_probability=0.01,
    server_crashes=(ServerCrash(1, at_s=0.0015, down_for_s=0.001),),
)


def _chaos_run(design, batched):
    """The chaos-golden cell shape, run long enough for the crashed server
    to restart and be resynced."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=4,
            memory_servers_per_machine=2,
            network=NetworkConfig(
                message_overhead_s=1.0e-6, doorbell_batching=batched
            ),
            tree=TreeConfig(page_size=512, head_node_interval=24, prefetch_window=24),
            replication_factor=2,
            seed=7,
        )
    )
    dataset = generate_dataset(3000, gap=8)
    index = build_index(cluster, design, dataset)
    injector = cluster.attach_faults(_CHAOS_PLAN)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, MIXED, num_clients=8, warmup_s=0.0005, measure_s=0.003, seed=7
    )
    events = cluster.sim.events_scheduled
    fault_stats = dict(injector.stats)
    injector.quiesce()
    report = verify_index(cluster, index)
    assert report.ok, report.violations
    return cluster, (
        events,
        _result_fingerprint(result),
        fault_stats,
        dict(cluster.replication.stats),
        report.entries,
    )


@pytest.mark.parametrize("batched", (True, False))
@pytest.mark.parametrize("design", DESIGNS)
def test_memo_on_and_off_simulate_identically_under_chaos(
    design, batched, monkeypatch
):
    runs = []
    for memo_on in (True, False):
        with monkeypatch.context() as patch:
            _install_memos(patch, memo_on)
            calls = []
            original = RemoteAccessor._decode_shared
            patch.setattr(
                RemoteAccessor,
                "_decode_shared",
                lambda acc, raw, data: calls.append(raw) or original(acc, raw, data),
            )
            cluster, outcome = _chaos_run(design, batched)
        runs.append(outcome)
        if memo_on and design != "coarse-grained":
            # Client reads went through the compute-server memo under
            # faults and replication, and the memo served some of them.
            assert calls
            assert any(cs.decode_memo for cs in cluster.compute_servers)
    on, off = runs
    _events, _fingerprint_, fault_stats, replication_stats, _entries = on
    assert fault_stats["server_crashes"] == fault_stats["server_restarts"] == 1
    assert fault_stats["drops"] and fault_stats["delays"]
    assert fault_stats["duplicates"]
    assert replication_stats["failovers"] >= 1
    assert replication_stats["resynced_copies"] >= 1
    assert on == off


def _replicated_with_two_compute_servers():
    cluster = Cluster(
        ClusterConfig(num_memory_servers=3, replication_factor=2, seed=3)
    )
    dataset = generate_dataset(600, gap=4)
    index = build_index(cluster, "fine-grained", dataset)
    computes = [cluster.new_compute_server() for _ in range(2)]
    for compute in computes:
        session = index.session(compute)
        for ordinal in range(0, 600, 7):
            cluster.execute(session.lookup(dataset.key_at(ordinal)))
    return cluster, computes


def test_crash_promotion_and_resync_each_empty_every_compute_memo():
    cluster, computes = _replicated_with_two_compute_servers()
    replication = cluster.replication
    assert all(compute.decode_memo for compute in computes)
    marker = object()

    def fill():
        for compute in computes:
            compute.decode_memo[1] = marker

    # A timeout on a live primary changes no route and keeps the memos.
    assert not replication.handle_failure(0, replication.epoch)
    assert all(compute.decode_memo for compute in computes)
    replication.on_crash(1)
    assert not any(compute.decode_memo for compute in computes)
    fill()
    replication.promote(1)
    assert not any(compute.decode_memo for compute in computes)
    fill()
    assert replication.resync_host(1) > 0
    assert not any(compute.decode_memo for compute in computes)


def test_compute_server_memo_holds_one_master_per_page():
    """Forty sessions on one compute server share a single memo, bounded by
    the number of allocated pages rather than clients x pages."""
    cluster = Cluster(ClusterConfig(num_memory_servers=4, seed=5))
    dataset = generate_dataset(4000, gap=8)
    index = build_index(cluster, "fine-grained", dataset)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, MIXED, num_clients=40, warmup_s=0.0005, measure_s=0.002, seed=5
    )
    assert result.total_ops > 0
    (compute,) = cluster.compute_servers
    memo = compute.decode_memo
    pages = {
        server.server_id: server.allocator.pages_allocated
        for server in cluster.memory_servers
    }
    page_size = cluster.config.tree.page_size
    assert 0 < len(memo) <= sum(pages.values())
    for raw_ptr, master in memo.items():
        server_id, offset = raw_ptr >> 56, raw_ptr & ((1 << 56) - 1)
        assert 1 <= offset // page_size <= pages[server_id]
        assert not master.version & 1


# --------------------------------------------------------------------------- #
# LocalAccessor unit guards                                                    #
# --------------------------------------------------------------------------- #

def _leaf(version, keys):
    return Node(
        NodeType.LEAF,
        level=0,
        version=version,
        keys=list(keys),
        values=[k * 3 for k in keys],
    )


@pytest.fixture
def local(cluster):
    server = cluster.memory_servers[1]
    acc = LocalAccessor(server)
    ptr = cluster.execute(acc.alloc(0))
    cluster.execute(acc.write_node(ptr, _leaf(2, (4, 8))))
    return acc, ptr


def test_local_shared_read_returns_master_and_clone_is_private(cluster, local):
    acc, ptr = local
    first = cluster.execute(acc.read_node(ptr, shared=True))
    assert cluster.execute(acc.read_node(ptr, shared=True)) is first
    owned = cluster.execute(acc.read_node(ptr))
    assert owned is not first and owned.keys == first.keys == [4, 8]
    owned.keys.append(12)
    assert cluster.execute(acc.read_node(ptr, shared=True)).keys == [4, 8]


def test_local_memo_follows_version_and_skips_locked_images(cluster, local):
    acc, ptr = local
    offset = ptr & ((1 << 56) - 1)
    old = cluster.execute(acc.read_node(ptr, shared=True))
    locked = cluster.execute(acc.try_lock(ptr, 2))
    assert locked
    during = cluster.execute(acc.read_node(ptr, shared=True))
    assert during.is_locked and acc._decode_cache[offset] is old
    cluster.execute(acc.unlock_write(ptr, _leaf(2, (4, 8, 16))))
    new = cluster.execute(acc.read_node(ptr, shared=True))
    assert new.version == 4 and new.keys == [4, 8, 16]
    assert acc._decode_cache[offset] is new


def test_local_memo_is_emptied_by_a_region_wipe(cluster, local):
    """A destructive crash wipes the region and a resync rewrites it; the
    restored page can carry the memoized version with other content."""
    acc, ptr = local
    stale = cluster.execute(acc.read_node(ptr, shared=True))
    acc.region.wipe()
    cluster.execute(acc.write_node(ptr, _leaf(2, (5, 9))))
    fresh = cluster.execute(acc.read_node(ptr, shared=True))
    assert fresh is not stale and fresh.keys == [5, 9]


def test_local_pointer_decode_rejects_foreign_and_null(cluster, local):
    acc, _ptr = local
    with pytest.raises(RemoteAccessError, match="on server 2"):
        cluster.execute(acc.read_node(encode_pointer(2, 4096)))
    for null in (0, NULL_RAW, NULL_RAW | encode_pointer(1, 4096)):
        with pytest.raises(RemoteAccessError, match="NULL"):
            cluster.execute(acc.read_node(null))
    server0 = LocalAccessor(cluster.memory_servers[0])
    with pytest.raises(RemoteAccessError, match="NULL"):
        cluster.execute(server0.read_node(0))


def test_sessions_share_the_compute_server_memo(cluster, compute):
    dataset = generate_dataset(500, gap=8)
    index = build_index(cluster, "hybrid", dataset)
    first, second = index.session(compute), index.session(compute)
    assert first._leaves.acc._decode_cache is compute.decode_memo
    assert second._leaves.acc._decode_cache is compute.decode_memo
    own = RemoteAccessor(compute, cluster.config, decode_memo=NoDecodeMemo())
    assert own._decode_cache is not compute.decode_memo


def test_hybrid_lookup_clones_no_node(cluster, compute, monkeypatch):
    """Lookups are read-only end to end: the traversal RPC takes the inner
    masters shared and the leaf read is shared too."""
    dataset = generate_dataset(2000, gap=8)
    index = build_index(cluster, "hybrid", dataset)
    session = index.session(compute)
    key = dataset.key_at(700)
    assert cluster.execute(session.lookup(key)) == [700]
    clones = []
    original = Node.clone
    monkeypatch.setattr(Node, "clone", lambda node: clones.append(node) or original(node))
    assert cluster.execute(session.lookup(key)) == [700]
    assert not clones

"""Extension: availability under memory-server crashes (replication).

The paper's NAM architecture treats memory servers as reliable; this
extension measures what the primary/backup replication layer
(:mod:`repro.nam.replication`) buys and costs:

* **Availability** — run a write-heavy workload, destructively crash one
  memory server mid-window (``replication_factor=2``), and chart the
  throughput dip and the *recovery time*: how long until the cluster is
  back to its pre-crash rate. Failover is client-driven (the first client
  whose retries exhaust promotes a backup), so recovery time is dominated
  by the retry budget, not by any coordinator.
* **Replicated-write overhead** — the same workload on a healthy cluster
  at factor 1 vs factor 2; the slowdown is the synchronous mirror legs
  every mutation pays.

Each availability cell ends with the online verifier
(:func:`repro.index.verify.verify_index`) and a replica byte-equality
check, so a run doubles as a chaos test — ``--smoke`` mode (used by the CI
seed matrix) runs a scaled-down grid and exits non-zero on any lost
structure or divergence.

Run with ``python -m repro.experiments.ext_availability``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import ClusterConfig, ObservabilityConfig
from repro.experiments.common import (
    DESIGNS,
    build_index,
    format_rate,
    print_table,
    write_obs_artifacts,
)
from repro.experiments.scale import DEFAULT, SMALL, ExperimentScale
from repro.index.verify import VerifyReport, verify_index
from repro.nam.cluster import Cluster
from repro.rdma.faults import FaultPlan, ServerCrash
from repro.workloads import WorkloadRunner, generate_dataset, workload_d

__all__ = ["AvailabilityResult", "run", "print_figure", "main"]


@dataclass
class AvailabilityResult:
    """One design's availability + overhead measurements."""

    design: str
    #: Ops/s in the pre-crash part of the window.
    pre_crash_throughput: float
    #: Lowest bucket throughput observed after the crash.
    dip_throughput: float
    #: Seconds from the crash until the first bucket after the post-crash
    #: minimum regains RECOVERY_FRACTION of the pre-crash rate (0 = no
    #: bucket fell below it, inf = never within the window).
    recovery_time_s: float
    #: Ops/s at replication factor 1 / factor 2 on a healthy cluster.
    unreplicated_throughput: float
    replicated_throughput: float
    #: Operations that surfaced typed errors during the crash window.
    errored_ops: int
    #: Replication-layer counters (failovers, re_replications, ...).
    replication_stats: Dict[str, int]
    verify_report: VerifyReport

    @property
    def write_overhead(self) -> float:
        """Healthy-cluster slowdown factor of replication (>= 1 is cost)."""
        if self.replicated_throughput <= 0:
            return float("inf")
        return self.unreplicated_throughput / self.replicated_throughput


#: A bucket counts as "recovered" at this fraction of the pre-crash rate.
#: Deliberately below 2/3: there is no failback, so after a crash the
#: promoted host serves two partitions on one worker pool and a CPU-bound
#: design legitimately stabilizes near (N-1)/N of its pre-crash rate.
RECOVERY_FRACTION = 0.6
_BUCKETS = 24


def _bucket_throughput(
    records: List[Tuple[str, float, float]], start: float, end: float
) -> List[Tuple[float, float]]:
    """``(bucket_start, ops/s)`` for completions in ``[start, end)``."""
    width = (end - start) / _BUCKETS
    counts = [0] * _BUCKETS
    for op_type, _op_start, op_end in records:
        if op_type.startswith("error") or not start <= op_end < end:
            continue
        counts[min(_BUCKETS - 1, int((op_end - start) / width))] += 1
    return [(start + i * width, counts[i] / width) for i in range(_BUCKETS)]


def _recovery_time(
    post: List[Tuple[float, float]], crash_at: float, pre_rate: float
) -> float:
    """Seconds from *crash_at* until throughput is back after the dip.

    *post* holds the ``(bucket_start, ops/s)`` buckets that start at or
    after the crash. The search starts at the post-crash minimum (the
    dip), since buckets just after the crash can still hold the
    completions of operations that were in flight when it hit. Returns
    0.0 when no bucket ever fell below ``RECOVERY_FRACTION`` of
    *pre_rate*, and inf when the window ends before recovery.
    """
    if pre_rate <= 0 or not post:
        return float("inf")
    threshold = RECOVERY_FRACTION * pre_rate
    rates = [rate for _at, rate in post]
    lowest = rates.index(min(rates))
    if rates[lowest] >= threshold:
        return 0.0
    for at, rate in post[lowest + 1:]:
        if rate >= threshold:
            return at - crash_at
    return float("inf")


def _healthy_throughput(
    design: str, scale: ExperimentScale, factor: int, num_clients: int, seed: int
) -> float:
    dataset = generate_dataset(scale.num_keys, scale.gap)
    config = ClusterConfig(
        num_memory_servers=scale.num_memory_servers,
        memory_servers_per_machine=min(
            scale.memory_servers_per_machine, scale.num_memory_servers
        ),
        replication_factor=factor,
        seed=seed,
    )
    cluster = Cluster(config)
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index,
        workload_d(),
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=scale.measure_s,
        seed=seed,
    )
    return result.throughput


def _availability_cell(
    design: str,
    scale: ExperimentScale,
    num_clients: int,
    seed: int,
    artifacts: Optional[Path] = None,
) -> Tuple[float, float, float, int, Dict[str, int], VerifyReport]:
    # Observability is attached only when a CI artifacts dir is requested;
    # the simulation is byte-identical either way (the instrumentation
    # never schedules events), so measurements are unaffected.
    obs_config = (
        ObservabilityConfig(
            enabled=True, timeseries_cadence_s=scale.measure_s / 4.0
        )
        if artifacts is not None
        else ObservabilityConfig()
    )
    dataset = generate_dataset(scale.num_keys, scale.gap)
    config = ClusterConfig(
        num_memory_servers=scale.num_memory_servers,
        memory_servers_per_machine=min(
            scale.memory_servers_per_machine, scale.num_memory_servers
        ),
        replication_factor=2,
        seed=seed,
        observability=obs_config,
    )
    cluster = Cluster(config)
    index = build_index(cluster, design, dataset)

    # Crash a third into the measurement window; restart two thirds in, so
    # the run also exercises resync + background re-replication.
    measure_s = scale.measure_s * 4
    crash_at = scale.warmup_s + measure_s / 3
    victim = 1 % scale.num_memory_servers
    plan = FaultPlan(
        seed=seed,
        server_crashes=(
            ServerCrash(victim, at_s=crash_at, down_for_s=measure_s / 3),
        ),
    )
    injector = cluster.attach_faults(plan)

    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index,
        workload_d(),
        num_clients=num_clients,
        warmup_s=scale.warmup_s,
        measure_s=measure_s,
        seed=seed,
        keep_records=True,
    )
    injector.quiesce()

    buckets = _bucket_throughput(
        result.raw_records, scale.warmup_s, scale.warmup_s + measure_s
    )
    pre = [rate for at, rate in buckets if at + (buckets[1][0] - buckets[0][0]) <= crash_at]
    pre_rate = sum(pre) / len(pre) if pre else 0.0
    post = [(at, rate) for at, rate in buckets if at >= crash_at]
    dip = min((rate for _at, rate in post), default=0.0)
    recovery = _recovery_time(post, crash_at, pre_rate)

    report = verify_index(cluster, index)
    if artifacts is not None:
        # Snapshot after the verifier so a verifier-failure flight dump
        # (and the crash/restart fault events) land in the bundle.
        write_obs_artifacts(
            cluster.obs.snapshot() if cluster.obs is not None else None,
            artifacts,
            f"availability-{design}",
        )
    errored = sum(result.errors.values())
    stats = dict(cluster.replication.stats)
    return pre_rate, dip, recovery, errored, stats, report


def run(
    scale: ExperimentScale = DEFAULT,
    num_clients: int = 40,
    seed: Optional[int] = None,
    artifacts: Optional[Path] = None,
) -> Dict[str, AvailabilityResult]:
    """Run the availability + overhead grid; returns per-design results."""
    seed = scale.seed if seed is None else seed
    results: Dict[str, AvailabilityResult] = {}
    for design in DESIGNS:
        pre, dip, recovery, errored, stats, report = _availability_cell(
            design, scale, num_clients, seed, artifacts=artifacts
        )
        results[design] = AvailabilityResult(
            design=design,
            pre_crash_throughput=pre,
            dip_throughput=dip,
            recovery_time_s=recovery,
            unreplicated_throughput=_healthy_throughput(
                design, scale, 1, num_clients, seed
            ),
            replicated_throughput=_healthy_throughput(
                design, scale, 2, num_clients, seed
            ),
            errored_ops=errored,
            replication_stats=stats,
            verify_report=report,
        )
    return results


def print_figure(results: Dict[str, AvailabilityResult]) -> None:
    """Print the per-design availability series."""
    columns = ("pre-crash", "dip", "recovery", "overhead", "verify")
    rows = {}
    for design, cell in results.items():
        recovery = (
            f"{cell.recovery_time_s * 1e3:.2f}ms"
            if cell.recovery_time_s != float("inf")
            else "never"
        )
        rows[design] = [
            format_rate(cell.pre_crash_throughput),
            format_rate(cell.dip_throughput),
            recovery,
            f"{cell.write_overhead:.2f}x",
            "OK" if cell.verify_report.ok else "FAIL",
        ]
    print_table(
        "Extension - availability under a memory-server crash (factor=2)",
        columns,
        rows,
        col_header="",
    )
    for design, cell in results.items():
        stats = cell.replication_stats
        print(
            f"  {design}: {cell.errored_ops} errored ops, "
            f"{stats.get('failovers', 0)} failovers, "
            f"{stats.get('re_replications', 0)} re-replications"
        )
        if not cell.verify_report.ok:
            for violation in cell.verify_report.violations[:8]:
                print(f"    VIOLATION: {violation}")


#: Tiny grid for the CI chaos-smoke matrix.
SMOKE = ExperimentScale(
    num_keys=3_000,
    num_memory_servers=3,
    memory_servers_per_machine=1,
    warmup_s=0.001,
    measure_s=0.004,
)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="availability under memory-server crashes"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--small", action="store_true", help="scaled-down grid (faster)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI grid; exit non-zero on any verifier violation",
    )
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=None,
        help="run with observability on and write per-cell flight bundles"
        " + Chrome traces into this dir (for CI failure uploads)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else (SMALL if args.small else DEFAULT)
    num_clients = 15 if args.smoke else 40
    results = run(
        scale=scale, num_clients=num_clients, seed=args.seed,
        artifacts=args.artifacts,
    )
    print_figure(results)
    failed = False
    for design, cell in results.items():
        if not cell.verify_report.ok:
            failed = True
        if args.smoke and not cell.replication_stats.get("failovers"):
            print(f"  {design}: SMOKE FAIL - crash did not trigger a failover")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

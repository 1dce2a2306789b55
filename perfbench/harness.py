"""Workloads, design runs, the correctness gate and the benchmark's metrics.

One *design run* builds a fresh cluster, bulk-loads one index design, runs
a fixed amount of closed-loop work through ``WorkloadRunner.run(...,
ops_per_client=N)`` and checks the result with ``verify_index``. The
simulation is deterministic per seed, so every run of one (workload,
design, seed) simulates exactly the same operations: repeated runs differ
only in host time, and the harness checks that they agree on every
simulated number and count.

A design run comes in three passes that differ only in what watches the
workload phase:

* ``plain`` — no tracing, and the interpreter's default garbage collector
  stays on; in timed runs a :class:`hostclock.HostClock` times the setup
  and workload phases.
* ``profile`` — :mod:`cProfile`; gives self time per layer.
* ``count`` — :class:`layers.CallCounter` and :class:`counters.Probes`;
  gives call counts per layer and the decode, lock, clone and split counts.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    Cluster,
    ClusterConfig,
    CoarseGrainedIndex,
    FaultPlan,
    FineGrainedIndex,
    HybridIndex,
    ObservabilityConfig,
    verify_index,
)
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

import counters
import layers
from hostclock import HostClock

#: Short design name -> index class, in measurement order.
DESIGNS = {"cg": CoarseGrainedIndex, "fg": FineGrainedIndex, "hybrid": HybridIndex}

#: Allowed gap between the layers' summed self time and the traced wall.
RECONCILE_TOLERANCE = 0.05

#: Distinct workloads one timed run simulates per design. Round r runs
#: sub-seed ``r % SUBSEEDS`` of ``--seed``, and the simulated metrics pool
#: the first run of each sub-seed: 30,000 operations per design, so 30
#: samples lie beyond p99.9, and the metrics stay deterministic per seed.
SUBSEEDS = 3

#: Rounds (one run of every design each) a timed measurement always makes,
#: however short ``--seconds`` is. Round 0 is the warm-up: it is gated and
#: simulated like the others, but its host times are left out, because the
#: first full-size run also pays for growing the heap and importing the
#: lazily loaded modules. The rounds after it give every host median three
#: samples at least.
MIN_ROUNDS = SUBSEEDS + 1

_HERE = Path(__file__).resolve().parent
_BENCH_FILES = tuple(str(path) for path in _HERE.glob("*.py"))


@dataclass(frozen=True)
class Scale:
    """Size of one design run."""

    num_keys: int = 100_000
    gap: int = 8
    num_memory_servers: int = 4
    num_clients: int = 40
    ops_per_client: int = 250

    @property
    def ops(self) -> int:
        return self.num_clients * self.ops_per_client



@dataclass(frozen=True)
class Workload:
    """An operation mix plus the cluster features it switches on."""

    spec: WorkloadSpec
    replication_factor: int = 1
    drop_probability: float = 0.0
    observability: bool = False


_READ_ZIPF = dict(
    point_fraction=0.95, insert_fraction=0.05, distribution="zipfian", zipf_theta=0.99
)

WORKLOADS = {
    "read_zipf": Workload(WorkloadSpec(name="read_zipf", **_READ_ZIPF)),
    "write_scan": Workload(
        WorkloadSpec(
            name="write_scan", insert_fraction=0.5, range_fraction=0.5, selectivity=0.001
        )
    ),
    "chaos_obs": Workload(
        WorkloadSpec(name="chaos_obs", **_READ_ZIPF),
        replication_factor=2,
        drop_probability=0.002,
        observability=True,
    ),
}


@dataclass
class DesignRun:
    """Outcome of one design run."""

    design: str
    seed: int
    #: Raw wall seconds of the setup phase.
    setup_s: float
    #: Raw wall seconds of the workload phase (traced wall in a profile pass).
    run_s: float
    attempted: int
    completed: int
    errored: int
    #: Simulated-clock metrics: sim_ops_per_s, sim_p50_us, sim_p999_us.
    sim: Dict[str, float]
    #: Simulated seconds of the workload phase, and every completed
    #: operation's simulated latency in seconds (for pooling sub-seeds).
    sim_window_s: float
    latencies: np.ndarray = field(repr=False)
    #: Deterministic counts of the workload phase.
    counts: Dict[str, float]
    gate_failures: List[str]
    #: Timed runs: setup and workload-phase seconds at the reference host
    #: speed (see hostclock.py); None in the traced passes.
    setup_ref_s: Optional[float] = None
    run_ref_s: Optional[float] = None
    #: Profile pass: self seconds per layer.
    layer_self_s: Optional[Dict[str, float]] = None
    #: Count pass: calls per layer, and the probe counts.
    layer_calls: Optional[Dict[str, int]] = None
    probe_counts: Dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> Tuple:
        """Everything that must be identical across runs of one seed."""
        return (
            self.attempted,
            self.completed,
            self.errored,
            tuple(sorted(self.sim.items())),
            tuple(sorted(self.counts.items())),
        )


def _build(workload: Workload, design: str, seed: int, scale: Scale):
    dataset = generate_dataset(scale.num_keys, scale.gap)
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=scale.num_memory_servers,
            seed=seed,
            replication_factor=workload.replication_factor,
            observability=ObservabilityConfig(enabled=workload.observability),
        )
    )
    index = DESIGNS[design].build(
        cluster, "bench", dataset.pairs(), key_space=dataset.key_space
    )
    if workload.drop_probability:
        cluster.attach_faults(
            FaultPlan(seed=seed, drop_probability=workload.drop_probability)
        )
    return dataset, cluster, index


def _raw_counts(cluster: Cluster) -> Dict[str, int]:
    injector = cluster.fault_injector
    return {
        "events": cluster.sim.events_scheduled,
        "msgs": sum(
            server.port.tx.messages_total + server.port.rx.messages_total
            for server in cluster.memory_servers
        ),
        "doorbells": sum(cs.port.doorbells for cs in cluster.compute_servers),
        "wqes": sum(cs.port.wqes_posted for cs in cluster.compute_servers),
        "retries": injector.stats["retries"] if injector is not None else 0,
        "rpcs": sum(server.rpcs_handled for server in cluster.memory_servers),
    }


def gate(
    verify_ok: bool,
    violations: List[str],
    entries: int,
    bulk: int,
    acked_inserts: int,
    completed: int,
    errored: int,
    attempted: int,
) -> List[str]:
    """The correctness gate of one design run; returns the failures.

    * ``verify_index`` finds no violation;
    * every attempted operation either completed or errored;
    * the index holds every bulk-loaded entry and every acknowledged
      insert, plus at most one entry per errored operation (an insert that
      errored may or may not have landed; errored operations bound errored
      inserts from above).
    """
    failures = []
    if not verify_ok:
        failures.append(f"verify_index: {'; '.join(violations[:3])}")
    if completed + errored != attempted:
        failures.append(
            f"{completed} completed + {errored} errored != {attempted} attempted"
        )
    low = bulk + acked_inserts
    if not low <= entries <= low + errored:
        failures.append(
            f"{entries} entries outside [{low}, {low + errored}] "
            f"(bulk {bulk} + acknowledged inserts {acked_inserts}, "
            f"+ errored {errored})"
        )
    return failures


def subseed(seed: int, k: int) -> int:
    """The seed of sub-workload *k* of ``--seed`` *seed*."""
    return seed * SUBSEEDS + k


def sim_metrics(completed: int, window_s: float, latencies: np.ndarray) -> Dict[str, float]:
    """Simulated throughput and latency quantiles of completed operations."""
    return {
        "sim_ops_per_s": completed / window_s,
        "sim_p50_us": mid_quantile(latencies, 0.5) * 1e6,
        "sim_p999_us": mid_quantile(latencies, 0.999) * 1e6,
    }


def mid_quantile(samples: np.ndarray, q: float) -> float:
    """The *q*-quantile of *samples* by the mid-distribution function.

    Simulated latencies take few distinct values (fixed wire and CPU costs
    add up the same way for most operations), so an order-statistic
    quantile sits on a plateau of equal samples and reads the same for
    every seed. The mid-distribution function F(x) = P(X < x) + P(X = x) / 2
    is interpolated linearly between the distinct values instead, which
    moves with how many samples each value holds. On samples that are all
    distinct it is the usual interpolated quantile. Samples are rounded to
    the picosecond first, so that float noise in ``end - start`` does not
    split one latency value into many.
    """
    values, counts = np.unique(np.round(samples, 12), return_counts=True)
    mid_cdf = (np.cumsum(counts) - counts / 2) / len(samples)
    return float(np.interp(q, mid_cdf, values))


def _timed(clock: Optional[HostClock], phase) -> Tuple[object, float, Optional[float]]:
    """Run *phase*; return its result, raw wall seconds and, with a *clock*,
    the seconds corrected to the reference host speed."""
    if clock is None:
        started = time.perf_counter()
        result = phase()
        return result, time.perf_counter() - started, None
    result, timed = clock.time(phase)
    return result, timed.wall_s, timed.corrected_s


def run_design(
    workload: Workload,
    design: str,
    seed: int,
    scale: Scale = Scale(),
    mode: str = "plain",
    resolver: Optional[layers.LayerResolver] = None,
    clock: Optional[HostClock] = None,
) -> DesignRun:
    """One design run in pass *mode* (``plain``, ``profile`` or ``count``).

    With a *clock* (plain pass only) the setup and workload phases are also
    timed at the reference host speed.
    """
    if mode not in ("plain", "profile", "count"):
        raise ValueError(f"unknown pass {mode!r}")
    # Start every run from the same heap: garbage left by the previous run
    # is collected here, outside both timed regions.
    gc.collect()
    (dataset, cluster, index), setup_s, setup_ref_s = _timed(
        clock, lambda: _build(workload, design, seed, scale)
    )
    runner = WorkloadRunner(cluster, dataset)

    def workload_phase():
        return runner.run(
            index,
            workload.spec,
            num_clients=scale.num_clients,
            seed=seed,
            ops_per_client=scale.ops_per_client,
        )

    before = _raw_counts(cluster)
    layer_self_s = layer_calls = None
    probe_counts: Dict[str, int] = {}
    if mode == "plain":
        result, run_s, run_ref_s = _timed(clock, workload_phase)
    elif mode == "profile":
        profiler = cProfile.Profile(builtins=False)

        def profiled_phase():
            profiler.enable()
            try:
                return workload_phase()
            finally:
                profiler.disable()

        result, run_s, run_ref_s = _timed(None, profiled_phase)
        layer_self_s = layers.self_time_by_layer(profiler, resolver)
    else:
        with counters.Probes() as probes, layers.CallCounter() as calls:
            result, run_s, run_ref_s = _timed(None, workload_phase)
        layer_calls = calls.by_layer(resolver, skip_files=_BENCH_FILES)
        probe_counts = dict(probes.counts)
    after = _raw_counts(cluster)

    counts = {name: after[name] - before[name] for name in before}
    counts["bytes"] = result.network_bytes
    counts["worker_util"] = float(np.mean(list(result.cpu_utilization.values())))
    latencies = np.concatenate(
        [np.asarray(samples) for samples in result.latencies.values()]
    )

    if cluster.fault_injector is not None:
        cluster.fault_injector.quiesce()
    report = verify_index(cluster, index)
    completed = result.total_ops
    errored = result.errored_ops
    failures = gate(
        report.ok,
        report.violations,
        report.entries,
        bulk=scale.num_keys,
        acked_inserts=result.op_counts.get("insert", 0),
        completed=completed,
        errored=errored,
        attempted=scale.ops,
    )
    return DesignRun(
        design=design,
        seed=seed,
        setup_s=setup_s,
        run_s=run_s,
        setup_ref_s=setup_ref_s,
        run_ref_s=run_ref_s,
        attempted=scale.ops,
        completed=completed,
        errored=errored,
        sim=sim_metrics(completed, result.window_s, latencies),
        sim_window_s=result.window_s,
        latencies=latencies,
        counts=counts,
        gate_failures=failures,
        layer_self_s=layer_self_s,
        layer_calls=layer_calls,
        probe_counts=probe_counts,
    )


# --------------------------------------------------------------------------- #
# Timed runs (--trace 0)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: Scale = Scale(),
) -> Dict[str, List[DesignRun]]:
    """Plain design runs in rounds until *seconds* are spent.

    Each round runs every design once, rotating which goes first so a slow
    phase of the host does not always land on the same design. The timed
    rounds come in whole cycles of ``SUBSEEDS`` rounds, one per sub-seed, so
    every host median weighs the sub-seeds equally. The measurement stops
    after the first cycle that leaves less than half a cycle (as long as the
    last one took) before the deadline: it ends at the cycle boundary
    nearest the deadline.
    """
    runs: Dict[str, List[DesignRun]] = {design: [] for design in DESIGNS}
    order = list(DESIGNS)
    deadline = time.perf_counter() + seconds
    rounds = 0
    with HostClock() as clock:
        while True:
            cycle_start = time.perf_counter()
            for _ in range(1 if rounds == 0 else SUBSEEDS):
                shift = rounds % len(order)
                round_seed = subseed(seed, rounds % SUBSEEDS)
                for design in order[shift:] + order[:shift]:
                    runs[design].append(
                        run_design(workload, design, round_seed, scale, clock=clock)
                    )
                rounds += 1
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and now + (now - cycle_start) / 2 > deadline:
                return runs


def check_runs(runs: Dict[str, List[DesignRun]]) -> List[str]:
    """Gate failures of every run, plus any run that simulated differently
    from the first run of its design and seed."""
    failures = []
    for design, design_runs in runs.items():
        first = _first_per_seed(design_runs)
        for number, run in enumerate(design_runs):
            failures.extend(f"{design} run {number}: {msg}" for msg in run.gate_failures)
            if run.fingerprint() != first[run.seed].fingerprint():
                failures.append(
                    f"{design} run {number}: simulated metrics differ from the "
                    f"first run of seed {run.seed}"
                )
    return failures


def _first_per_seed(design_runs: List[DesignRun]) -> Dict[int, DesignRun]:
    first: Dict[int, DesignRun] = {}
    for run in design_runs:
        first.setdefault(run.seed, run)
    return first


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def host_throughput(runs: Dict[str, List[DesignRun]], wall_attr: str) -> Dict[str, float]:
    """``ops_per_wall_s`` and its per-design values, from the medians over
    each design's runs after the warm-up round of the wall times in
    *wall_attr* (``run_ref_s`` at the reference speed, ``run_s`` raw)."""
    throughput: Dict[str, float] = {}
    run_ops = run_wall = 0.0
    for design, design_runs in runs.items():
        timed = design_runs[1:]
        wall = statistics.median(getattr(run, wall_attr) for run in timed)
        ops = statistics.median(run.completed for run in timed)
        throughput[f"ops_per_wall_s.{design}"] = ops / wall
        run_ops += ops
        run_wall += wall
    throughput["ops_per_wall_s"] = run_ops / run_wall
    return throughput


def end_to_end_metrics(runs: Dict[str, List[DesignRun]]) -> Dict[str, Dict]:
    """The ``--trace 0`` metrics. Host times are medians over each design's
    runs after the warm-up round, at the reference host speed."""
    metrics: Dict[str, Dict] = {}
    for name, value in host_throughput(runs, "run_ref_s").items():
        metrics[name] = _metric(value, "1/s")
    setup = sum(
        statistics.median(run.setup_ref_s for run in design_runs[1:])
        for design_runs in runs.values()
    )
    metrics["setup_s"] = _metric(setup, "s")
    completed = sum(run.completed for design_runs in runs.values() for run in design_runs)
    attempted = sum(run.attempted for design_runs in runs.values() for run in design_runs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mib"] = _metric(peak_kib / 1024, "MiB")
    metrics["completed_op_share"] = _metric(completed / attempted, "ratio")
    pooled = {}
    for design, design_runs in runs.items():
        subruns = list(_first_per_seed(design_runs).values())
        pooled[design] = sim_metrics(
            sum(run.completed for run in subruns),
            sum(run.sim_window_s for run in subruns),
            np.concatenate([run.latencies for run in subruns]),
        )
    for name, unit in (("sim_ops_per_s", "1/s"), ("sim_p50_us", "us"), ("sim_p999_us", "us")):
        for design in runs:
            metrics[f"{name}.{design}"] = _metric(pooled[design][name], unit)
    return metrics


def summary_lines(runs: Dict[str, List[DesignRun]]) -> List[str]:
    """Per-design phase times, raw and at the reference host speed, for the
    log above the result line."""
    lines = []
    for design, design_runs in runs.items():
        lines.append(
            f"{design:>6}: {len(design_runs)} runs of {design_runs[0].attempted} ops "
            f"(the first is the warm-up)"
        )
        for label, raw, ref in (("workload", "run_s", "run_ref_s"),
                                ("setup", "setup_s", "setup_ref_s")):
            raws = " ".join(f"{getattr(run, raw):.3f}" for run in design_runs)
            refs = " ".join(f"{getattr(run, ref):.3f}" for run in design_runs)
            lines.append(f"        {label} s raw [{raws}] at reference speed [{refs}]")
    for wall_attr, label in (("run_s", "raw wall"), ("run_ref_s", "at reference speed")):
        throughput = host_throughput(runs, wall_attr)
        lines.append(f"ops_per_wall_s {label}: " + " ".join(
            f"{name.partition('.')[2] or 'pooled'} {value:.1f}"
            for name, value in throughput.items()
        ))
    return lines


# --------------------------------------------------------------------------- #
# Traced run (--trace 1)


@dataclass
class TracedDesign:
    """The three passes of one design."""

    plain: DesignRun
    profile: DesignRun
    count: DesignRun


def trace(
    workload: Workload,
    seed: int,
    resolver: layers.LayerResolver,
    scale: Scale = Scale(),
) -> Dict[str, TracedDesign]:
    """Run every design once per pass, on the first sub-seed of *seed*."""
    return {
        design: TracedDesign(
            *(
                run_design(workload, design, subseed(seed, 0), scale, mode, resolver)
                for mode in ("plain", "profile", "count")
            )
        )
        for design in DESIGNS
    }


def unattributed_share(traced: TracedDesign) -> float:
    """Share of the traced wall that no layer's self time covers."""
    attributed = sum(traced.profile.layer_self_s.values())
    return abs(traced.profile.run_s - attributed) / traced.profile.run_s


def check_traced(traced: Dict[str, TracedDesign]) -> List[str]:
    """Gate failures of every pass, passes that simulated differently from
    the plain pass, and self times that do not reconcile to the wall."""
    failures = []
    for design, passes in traced.items():
        reference = passes.plain.fingerprint()
        for run, mode in ((passes.plain, "plain"), (passes.profile, "profile"),
                          (passes.count, "count")):
            failures.extend(f"{design} {mode}: {msg}" for msg in run.gate_failures)
            if run.fingerprint() != reference:
                failures.append(
                    f"{design} {mode}: simulated metrics differ from the plain pass"
                )
        gap = unattributed_share(passes)
        if gap > RECONCILE_TOLERANCE:
            failures.append(
                f"{design}: layer self times miss {gap:.1%} of the traced wall "
                f"(tolerance {RECONCILE_TOLERANCE:.0%})"
            )
    return failures


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: Dict[str, TracedDesign]) -> Dict[str, Dict]:
    """The ``--trace 1`` metrics."""
    metrics: Dict[str, Dict] = {}
    for layer in layers.LAYERS:
        for design, passes in traced.items():
            metrics[f"{layer}.self_us_per_op.{design}"] = _metric(
                passes.profile.layer_self_s[layer] / passes.profile.attempted * 1e6, "us"
            )
    total_self = sum(
        sum(passes.profile.layer_self_s.values()) for passes in traced.values()
    )
    for layer in layers.LAYERS:
        layer_self = sum(passes.profile.layer_self_s[layer] for passes in traced.values())
        metrics[f"{layer}.self_share"] = _metric(layer_self / total_self, "ratio")
    metrics["trace.overhead_ratio"] = _metric(
        sum(passes.profile.run_s for passes in traced.values())
        / sum(passes.plain.run_s for passes in traced.values()),
        "ratio",
    )
    for design, passes in traced.items():
        ops = passes.plain.attempted
        counts = passes.plain.counts
        probe = passes.count.probe_counts
        pages_read = probe["decodes"] + probe["memo_hits"]
        design_metrics = {
            "sim.events_per_op": (counts["events"] / ops, "count"),
            "sim.host_ns_per_event": (passes.plain.run_s / counts["events"] * 1e9, "ns"),
            "rdma.msgs_per_op": (counts["msgs"] / ops, "count"),
            "rdma.bytes_per_op": (counts["bytes"] / ops, "B"),
            "rdma.wqes_per_doorbell": (_ratio(counts["wqes"], counts["doorbells"]), "ratio"),
            "rdma.retries_per_kop": (counts["retries"] * 1000 / ops, "count"),
            "index.decode_reuse_ratio": (
                1.0 - _ratio(probe["decodes"], pages_read) if pages_read else 0.0,
                "ratio",
            ),
            "index.lock_fail_ratio": (
                _ratio(probe["lock_fails"], probe["try_locks"]), "ratio"
            ),
            "index.clones_per_op": (probe["clones"] / ops, "count"),
            "btree.nodes_read_per_op": (pages_read / ops, "count"),
            "btree.splits_per_kop": (probe["splits"] * 1000 / ops, "count"),
            "nam.rpcs_per_op": (counts["rpcs"] / ops, "count"),
            "nam.worker_util": (counts["worker_util"], "ratio"),
        }
        for name, (value, unit) in design_metrics.items():
            metrics[f"{name}.{design}"] = _metric(value, unit)
    return metrics


def layer_table(
    workload_name: str, seed: int, traced: Dict[str, TracedDesign], metrics: Dict[str, Dict]
) -> List[str]:
    """The per-layer host-time table printed by a traced run; *metrics* are
    the run's :func:`per_layer_metrics`."""
    designs = list(traced)
    head = f"{'layer':<10}{'share':>8}" + "".join(
        f"{d + ' us/op':>14}" for d in designs
    ) + "".join(f"{d + ' calls/op':>16}" for d in designs)
    lines = [
        f"per-layer host time: {workload_name}, seed {seed}, "
        f"{traced[designs[0]].plain.attempted} ops per design",
        "(cProfile self time, C builtins charged to their caller; "
        "calls exclude generator resumes)",
        head,
    ]
    for layer in layers.LAYERS:
        row = f"{layer:<10}{metrics[f'{layer}.self_share']['value']:>8.1%}"
        for design in designs:
            row += f"{metrics[f'{layer}.self_us_per_op.{design}']['value']:>14.2f}"
        for passes in traced.values():
            row += f"{passes.count.layer_calls[layer] / passes.count.attempted:>16.1f}"
        lines.append(row)
    for design, passes in traced.items():
        attributed = sum(passes.profile.layer_self_s.values())
        lines.append(
            f"{design}: layers sum to {attributed:.3f} s of {passes.profile.run_s:.3f} s "
            f"traced wall ({unattributed_share(passes):.2%} unattributed, tolerance "
            f"{RECONCILE_TOLERANCE:.0%}); untraced wall {passes.plain.run_s:.3f} s"
        )
    return lines

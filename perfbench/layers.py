"""Host-time attribution: the layer map, self time by layer, true call counts.

Every module of the ``repro`` package belongs to exactly one layer. The map
is explicit, module by module, so a new module cannot silently land in a
layer: ``perfbench/tests/test_perfbench.py`` fails until it is added here. Code that is
not part of ``repro`` (the standard library, numpy, this benchmark) is
``other``.

Self time comes from :mod:`cProfile` run with ``builtins=False``: the time
spent in a C builtin (``heapq.heappush``, ``list.append``, ...) is charged to
the Python function that called it, so a layer's self time includes the
builtins it calls.

cProfile counts a generator's every resume as a call. The simulator is built
from generators that resume many times per operation, so call counts come
from :class:`CallCounter` instead, which counts a generator function once,
when its body first starts.
"""

from __future__ import annotations

import dis
import inspect
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, Set

LAYERS = ("sim", "rdma", "index", "btree", "nam", "workloads", "obs", "other")

_MODULES_BY_LAYER = {
    "sim": (
        "repro.sim",
        "repro.sim.core",
        "repro.sim.resources",
    ),
    "rdma": (
        "repro.rdma",
        "repro.rdma.fabric",
        "repro.rdma.faults",
        "repro.rdma.memory",
        "repro.rdma.nic",
        "repro.rdma.qp",
        "repro.rdma.tracing",
        "repro.rdma.verbs",
    ),
    "index": (
        "repro.index",
        "repro.index.accessors",
        "repro.index.base",
        "repro.index.caching",
        "repro.index.coarse_grained",
        "repro.index.fine_grained",
        "repro.index.gc",
        "repro.index.hybrid",
        "repro.index.partitioning",
        "repro.index.verify",
    ),
    "btree": (
        "repro.btree",
        "repro.btree.accessor",
        "repro.btree.algorithm",
        "repro.btree.bulk",
        "repro.btree.inmemory",
        "repro.btree.node",
        "repro.btree.pointers",
    ),
    # Cluster assembly, servers, RPC and replication, plus the cluster-wide
    # configuration and error vocabulary every layer imports.
    "nam": (
        "repro.config",
        "repro.errors",
        "repro.nam",
        "repro.nam.admission",
        "repro.nam.allocator",
        "repro.nam.catalog",
        "repro.nam.cluster",
        "repro.nam.compute_server",
        "repro.nam.machine",
        "repro.nam.memory_server",
        "repro.nam.replication",
        "repro.nam.rpc",
    ),
    # Everything that drives the system: client loops, datasets, key
    # choosers, result containers, the experiment harnesses and the CLI.
    "workloads": (
        "repro",
        "repro.__main__",
        "repro.analysis",
        "repro.analysis.model",
        "repro.experiments",
        "repro.experiments.a4_caching",
        "repro.experiments.ablation_head_nodes",
        "repro.experiments.ablation_insert_contention",
        "repro.experiments.ablation_srq",
        "repro.experiments.common",
        "repro.experiments.ext_availability",
        "repro.experiments.ext_cache_depth",
        "repro.experiments.ext_caching_strategies",
        "repro.experiments.ext_engine",
        "repro.experiments.ext_overload",
        "repro.experiments.ext_page_size",
        "repro.experiments.ext_request_skew",
        "repro.experiments.ext_tail_attribution",
        "repro.experiments.ext_verb_batching",
        "repro.experiments.fig03_analytical",
        "repro.experiments.fig07_08_throughput",
        "repro.experiments.fig09_network",
        "repro.experiments.fig10_datasize",
        "repro.experiments.fig11_servers",
        "repro.experiments.fig12_inserts",
        "repro.experiments.fig13_14_latency",
        "repro.experiments.fig15_colocation",
        "repro.experiments.scale",
        "repro.experiments.throughput",
        "repro.reporting",
        "repro.workloads",
        "repro.workloads.datagen",
        "repro.workloads.degradation",
        "repro.workloads.distributions",
        "repro.workloads.metrics",
        "repro.workloads.openloop",
        "repro.workloads.runner",
        "repro.workloads.ycsb",
    ),
    # namscope and namsan: everything that watches the system run.
    "obs": (
        "repro.analysis.namsan",
        "repro.analysis.namsan.cli",
        "repro.analysis.namsan.deadlock",
        "repro.analysis.namsan.events",
        "repro.analysis.namsan.explore",
        "repro.analysis.namsan.hb",
        "repro.analysis.namsan.linter",
        "repro.analysis.namsan.lockcheck",
        "repro.analysis.namsan.pytest_plugin",
        "repro.analysis.namsan.rules",
        "repro.analysis.namsan.sanitizer",
        "repro.namsan",
        "repro.obs",
        "repro.obs.__main__",
        "repro.obs.attribution",
        "repro.obs.config",
        "repro.obs.export",
        "repro.obs.flight",
        "repro.obs.hub",
        "repro.obs.metrics",
        "repro.obs.spans",
        "repro.obs.timeseries",
    ),
}

#: ``repro`` module name -> layer. Built from the table above; a module
#: listed under two layers is a bug the tests catch.
LAYER_OF_MODULE: Dict[str, str] = {
    module: layer
    for layer, modules in _MODULES_BY_LAYER.items()
    for module in modules
}

_GENERATOR_FLAGS = (
    inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
)


def duplicated_modules() -> Set[str]:
    """Modules the table lists under more than one layer (should be empty)."""
    seen: Set[str] = set()
    duplicates: Set[str] = set()
    for modules in _MODULES_BY_LAYER.values():
        for module in modules:
            (duplicates if module in seen else seen).add(module)
    return duplicates


def repo_modules(src_dir: Path) -> Set[str]:
    """Every module of the ``repro`` package found under *src_dir*."""
    modules = set()
    for path in (src_dir / "repro").rglob("*.py"):
        parts = list(path.relative_to(src_dir).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules.add(".".join(parts))
    return modules


class LayerResolver:
    """Maps a code object's file to its layer (cached per file name)."""

    def __init__(self, src_dir: Path) -> None:
        self._prefix = str(src_dir.resolve()) + os.sep
        self._cache: Dict[str, str] = {}

    def module_of(self, filename: str) -> str:
        """The ``repro`` module defined in *filename*, or ``""``."""
        path = os.path.realpath(filename)
        if not path.startswith(self._prefix) or not path.endswith(".py"):
            return ""
        parts = path[len(self._prefix):-len(".py")].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    def layer_of(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            module = self.module_of(filename)
            if module:
                # A module missing from the table is a map bug, never other.
                layer = LAYER_OF_MODULE[module]
            else:
                layer = "other"
            self._cache[filename] = layer
        return layer


def self_time_by_layer(profiler, resolver: LayerResolver) -> Dict[str, float]:
    """Seconds of self time per layer from a stopped :class:`cProfile.Profile`."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for entry in profiler.getstats():
        code = entry.code
        filename = code.co_filename if hasattr(code, "co_filename") else ""
        totals[resolver.layer_of(filename)] += entry.inlinetime
    return totals


def _first_resume_offset(code) -> int:
    """Byte offset of the RESUME that starts *code*'s body (3.11+), else 0."""
    for instruction in dis.get_instructions(code):
        if instruction.opname == "RESUME":
            return instruction.offset
    return 0


class CallCounter:
    """Counts function calls, excluding generator and coroutine resumes.

    A profile hook sees a ``call`` event both when a function starts and
    whenever a suspended generator resumes. On a first start the frame's
    last instruction is at or before the RESUME that opens the body; on a
    resume it is the YIELD_VALUE/SEND the frame suspended at, which lies
    beyond it. Use as a context manager around the code to count.
    """

    def __init__(self) -> None:
        self.calls: Dict[object, int] = {}
        self._starts: Dict[object, int] = {}

    def _hook(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code.co_flags & _GENERATOR_FLAGS:
            start = self._starts.get(code)
            if start is None:
                start = self._starts[code] = _first_resume_offset(code)
            if frame.f_lasti > start:
                return
        calls = self.calls
        calls[code] = calls.get(code, 0) + 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)

    def by_layer(
        self, resolver: LayerResolver, skip_files: Iterable[str] = ()
    ) -> Dict[str, int]:
        """Calls per layer, leaving out code defined in *skip_files*."""
        skipped = {os.path.realpath(name) for name in skip_files}
        totals = dict.fromkeys(LAYERS, 0)
        for code, count in self.calls.items():
            filename = code.co_filename
            if os.path.realpath(filename) in skipped:
                continue
            totals[resolver.layer_of(filename)] += count
        return totals

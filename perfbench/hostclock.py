"""Wall time corrected for the speed of a shared host.

On a machine shared with other tenants, the same Python code runs up to
about 1.8x slower in some phases than in others. Phases last seconds to
minutes, so no amount of repetition inside one run averages them out. The
benchmark therefore measures the host's speed *while* it times the
program, and reports wall time at a fixed reference speed.

:class:`HostClock` runs a fixed probe loop from a timer signal every
``INTERVAL_S`` seconds, and once just before each timed phase. The probes
cut a phase into slices of program time. Each slice is scaled by
``PROBE_REFERENCE_S / probe time`` of the probe just before it, and the
phase's corrected time is the sum over its slices. The host's speed changes
within a phase too, so each slice gets its own factor.

A slower host phase slows both the slices and the probe, and cancels. A
regression in the program slows the slices only, so it shows in full --
provided the program cannot slow the probe. The probe therefore touches no
memory of its own: it loops over small integers, which CPython caches, and
allocates nothing. A larger working set or more garbage in the program
leaves it unmoved, where a probe that reads a table is slowed by the cache
misses the program causes and would hide part of a memory regression. The
signal handler runs between bytecodes and touches no simulator state, so a
probed run simulates exactly what an unprobed one does.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, List, Tuple, TypeVar

#: Seconds between probes.
INTERVAL_S = 0.01

#: Probe duration at the reference host speed: the probe's median on a
#: quiet x86-64 host running CPython 3.11.
PROBE_REFERENCE_S = 140e-6

_PROBE_STEPS = 3_000

T = TypeVar("T")


def _probe() -> float:
    """Seconds one run of the probe loop takes."""
    started = time.perf_counter()
    value = 0
    for _ in repeat(None, _PROBE_STEPS):
        value = (value * 5 + 1) & 255
    return time.perf_counter() - started


@dataclass
class Phase:
    """One timed phase."""

    #: Raw wall seconds, probe time included.
    wall_s: float
    #: Wall seconds the phase would have taken at the reference speed.
    corrected_s: float


class HostClock:
    """Times phases and corrects them for host speed; see the module doc.

    Use as a context manager around the phases; it installs a ``SIGALRM``
    handler and interval timer and restores the previous ones on exit.
    """

    def __init__(self) -> None:
        # Start and duration of each probe the timer ran, in two lists of
        # floats: a tuple per probe would be a garbage-collected allocation.
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._previous = None

    def _on_timer(self, _signum, _frame) -> None:
        self._starts.append(time.perf_counter())
        self._durations.append(_probe())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, phase: Callable[[], T]) -> Tuple[T, Phase]:
        """Run *phase*; return its result and its :class:`Phase`."""
        speed = _probe()
        self._starts, self._durations = [], []
        started = time.perf_counter()
        result = phase()
        ended = time.perf_counter()
        corrected_s = 0.0
        slice_start = started
        # A probe may land between the clock reads and the phase proper; it
        # still measures the speed but cuts no slice.
        for probe_start, probe_s in zip(self._starts, self._durations):
            if probe_start >= ended:
                break
            if probe_start >= slice_start:
                corrected_s += (probe_start - slice_start) * PROBE_REFERENCE_S / speed
                slice_start = probe_start + probe_s
            speed = probe_s
        corrected_s += (ended - slice_start) * PROBE_REFERENCE_S / speed
        return result, Phase(wall_s=ended - started, corrected_s=corrected_s)

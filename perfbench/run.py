"""The repository benchmark: simulated index operations per wall-second.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 24 --trace 0

``--trace 0`` times plain design runs for about ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` makes one plain, one profiled and one
counting run per design and prints the per-layer table and metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.

Exit codes: 0 when every run passed the correctness gate, 1 when one did
not (the result line then says ``"correct": false`` and carries no
metrics), 2 when the checkout has no ``repro`` sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("read_zipf", "write_scan", "chaos_obs")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_harness():
    """Import the harness against this checkout's ``src``, or return None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    import harness

    return harness


def main(argv=None) -> int:
    args = _parse(argv)
    harness = _import_harness()
    if harness is None:
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    import layers

    workload = harness.WORKLOADS[args.workload]
    if args.trace:
        traced = harness.trace(workload, args.seed, layers.LayerResolver(SRC))
        failures = harness.check_traced(traced)
        runs = [run for passes in traced.values()
                for run in (passes.plain, passes.profile, passes.count)]
        if not failures:
            metrics = harness.per_layer_metrics(traced)
            print("\n".join(harness.layer_table(args.workload, args.seed, traced, metrics)))
    else:
        measured = harness.measure(workload, args.seed, args.seconds)
        failures = harness.check_runs(measured)
        runs = [run for design_runs in measured.values() for run in design_runs]
        print("\n".join(harness.summary_lines(measured)))
        if not failures:
            metrics = harness.end_to_end_metrics(measured)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.errored for run in runs),
        "metrics": {} if failures else metrics,
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

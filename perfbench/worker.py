"""One workload in one fresh interpreter; started by run.py, not by hand.

Prints ``READY <wall seconds> <reference seconds>`` once set-up (import,
input generation, warm-up) is done, giving the time that ``main`` spent on
it in wall time and at reference speed (``speed.SpeedClock``).  Then, unless ``--setup-only`` is
given, it runs whole rounds for ``--seconds`` and prints one JSON line with
the raw per-round figures.

With ``--trace 1`` it runs untraced rounds for half the time, then the same
number of rounds with the tracer installed, and reports the per-layer
metrics of the traced rounds and the ratio of traced to untraced time.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedClock
from tracing import PER_LAYER, Tracer
from workloads import WORK_CLASSES, build, warm_up

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import the package from the checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import burstrecon

    if Path(burstrecon.__file__).resolve().parent.parent != src:
        raise ImportError(f"burstrecon imported from {burstrecon.__file__}, not from {src}")
    import burstrecon.cli  # noqa: F401  (the command line is part of the program)

    return burstrecon


def summary(rounds) -> dict:
    return {
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "wrong": sum(r.wrong for r in rounds),
        "rates": {c: [r.rate(c) for r in rounds] for c in WORK_CLASSES},
        "raw_rates": {c: [r.rate(c, at_reference_speed=False) for r in rounds] for c in WORK_CLASSES},
        "op_seconds": [r.op_seconds for r in rounds],
        "ref_op_seconds": [r.ref_op_seconds for r in rounds],
        "problems": [p for r in rounds for p in r.problems][:5],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(workload, lib, clock, seconds: float, tracer=None, count: int | None = None):
    """Whole rounds until ``seconds`` have passed (at least one), or exactly ``count``.

    Also returns the peak resident set after the first round: set-up plus one
    round, which does not depend on how many rounds fit into the run.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(workload.run_round(lib, tracer, clock))
        if len(rounds) == 1:
            first_peak = peak_rss_mb()
        if count is not None:
            if len(rounds) == count:
                return rounds, first_peak
        elif time.perf_counter() - start >= seconds:
            return rounds, first_peak


def layer_metrics(tracer, traced, untraced) -> dict:
    metrics = tracer.layer_metrics(len(traced))
    for group in ("ins_oracle", "del_oracle", "roundtrip", "closed_form"):
        metrics[f"cli.verify.{group}_ms"] = sum(r.verify_ms[group] for r in traced) / len(traced)
    metrics["cli.verify_rows_true"] = sum(r.rows_true for r in traced) / len(traced)
    metrics["cli.verify_rows_skip"] = sum(r.rows_skip for r in traced) / len(traced)
    metrics["trace.overhead"] = sum(r.ref_op_seconds for r in traced) / sum(r.ref_op_seconds for r in untraced)
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    clock = SpeedClock()
    clock.start()
    try:
        wall_start, ref_start = time.perf_counter(), clock.now()
        lib = import_program()
        workload = build(args.workload, args.seed)
        warm_up(workload, lib)
        print(f"READY {time.perf_counter() - wall_start} {clock.now() - ref_start}", flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            untraced, peak = run_rounds(workload, lib, clock, args.seconds / 2)
            tracer = Tracer(lib)
            tracer.install()
            try:
                traced, _ = run_rounds(workload, lib, clock, 0, tracer, count=len(untraced))
            finally:
                tracer.uninstall()
            rounds = untraced + traced
        else:
            rounds, peak = run_rounds(workload, lib, clock, args.seconds)
    finally:
        clock.stop()
    result = summary(rounds)
    result["speed_ticks"] = clock.ticks
    if args.trace:
        result["layers"] = layer_metrics(tracer, traced, untraced)
        if args.trace_file:
            tracer.write(args.trace_file)
    result["peak_rss_mb"] = peak
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

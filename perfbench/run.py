"""Seeded benchmark of burstrecon: round trips, CLI pipes and verify sweeps.

    python3 perfbench/run.py --workload roundtrip-small --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Each workload runs in fresh interpreters
(worker.py) with a fixed PYTHONHASHSEED, one process and one thread.  Set-up
is timed from process start to the worker's READY line, several times, and
reported as the median, with the worker's own part at reference speed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seeds, the machine and the raw per-round figures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups timed per run: SETUP_SAMPLES - 1 set-up-only workers, then the measured one
DEADLINE_S = 170  # the whole command, whatever the workload

# name, unit, better, bound (largest share by which the median may worsen)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("ins_roundtrips_per_s", "1/s", "higher", 0.2),
    ("del_roundtrips_per_s", "1/s", "higher", 0.2),
    ("verify_rows_per_s", "1/s", "higher", 0.2),
)


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, float, str]:
    """Start a worker; return the seconds until READY, the same with the
    worker's own set-up taken at reference speed, and its last stdout line.

    The interpreter's start and the worker's module imports stay wall time.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    ready_at = None
    lines: list[str] = []
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerError(f"worker passed the {DEADLINE_S} s deadline")
                if not selector.select(timeout=remaining):
                    continue
                line = proc.stdout.readline()
                if not line:
                    break
                if ready_at is None and line.startswith("READY "):
                    ready_at = time.perf_counter()
                    main_wall, main_ref = map(float, line.split()[1:])
                else:
                    lines.append(line.strip())
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_at is None:
        raise WorkerError(f"worker exited with code {code}")
    setup = ready_at - started
    return setup, setup - main_wall + main_ref, lines[-1] if lines else ""


def end_to_end_metrics(result: dict, setup_s: float) -> dict:
    rates = result["rates"]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "ins_roundtrips_per_s": statistics.median(rates["ins"]),
        "del_roundtrips_per_s": statistics.median(rates["del"]),
        "verify_rows_per_s": statistics.median(rates["verify"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed: draws every input")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run instead")
    parser.add_argument("--hash-seed", type=int, default=0, help="PYTHONHASHSEED of every worker")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "burstrecon" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'burstrecon'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-hash{args.hash_seed}-trace{args.trace}"
    trace_file = out_dir / f"trace-{tag}.jsonl.gz"
    try:
        setups = [run_worker(common + ["--setup-only"], env, deadline)[:2] for _ in range(SETUP_SAMPLES - 1)]
        extra = ["--trace", "1", "--trace-file", str(trace_file)] if args.trace else []
        *setup, last = run_worker(common + extra, env, deadline)
        setups.append(tuple(setup))
        result = json.loads(last)
    except (WorkerError, json.JSONDecodeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(result, statistics.median(ref for _, ref in setups))
    record = {
        "workload": args.workload, "seed": args.seed, "hash_seed": args.hash_seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(), "cores": os.cpu_count(),
        "setup_samples_s": [raw for raw, _ in setups],
        "setup_samples_at_reference_s": [ref for _, ref in setups], **{k: v for k, v in result.items() if k != "layers"},
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

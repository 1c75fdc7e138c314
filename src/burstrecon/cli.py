"""Command line front end: exact counts, oracle sweeps, simulation, decoding.

Exit codes: 0 success, 2 precondition violation, 3 oracle mismatch,
4 enumeration cap exceeded.  The ``BURSTRECON_CAP`` environment variable
overrides the default enumeration cap; an explicit ``--cap`` flag wins over
both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction

from . import combinatorics as comb
from .balls import (
    DEFAULT_CAP,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    intersection,
    max_intersection_exhaustive,
)
from .channel import format_event, sample_distinct_outputs, trial_seed
from .errors import (
    BallTooSmall,
    EnumerationCapExceeded,
    ReconstructionError,
)
from .reconstruct import reconstruct_from_deletions, reconstruct_from_insertions
from .sequences import all_words, b_cyclic, format_word, parse_word, y_sequence

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4

COUNT_KINDS = ("ins-ball", "ins-int", "del-ball", "del-int", "del-int-lb", "sphere")

CSV_HEADER = "q,b,t,n,kind,formula,oracle,match,ms"


def default_cap() -> int:
    raw = os.environ.get("BURSTRECON_CAP")
    return int(raw) if raw else DEFAULT_CAP


@dataclass(frozen=True)
class SweepConfig:
    q_values: tuple[int, ...]
    b_values: tuple[int, ...]
    t_values: tuple[int, ...]
    n_values: tuple[int, ...]
    kinds: tuple[str, ...]
    cap: int
    seed: int
    trials: int
    fmt: str
    jobs: int
    corrupt: str | None = None

    def __post_init__(self):
        for name, values, low, high in (
            ("q", self.q_values, 2, comb.MAX_ALPHABET),
            ("b", self.b_values, 1, None),
            ("t", self.t_values, 0, None),
            ("n", self.n_values, 0, None),
        ):
            if not values:
                raise ValueError(f"empty range for {name}")
            for v in values:
                if v < low or (high is not None and v > high):
                    allowed = f"in [{low}, {high}]" if high else f"at least {low}"
                    raise ValueError(f"{name} must be {allowed}, got {v}")
        for kind in self.kinds:
            if kind not in CHECKS:
                raise ValueError(f"unknown verify kind {kind!r}")


@dataclass(frozen=True)
class ResultRow:
    q: int
    b: int
    t: int
    n: int
    kind: str
    formula: str  # empty when skipped before evaluation
    oracle: str  # empty when skipped
    match: str  # "true" | "false" | "skip"
    ms: float


class _Skip(Exception):
    """A row's check does not apply; the message is the skip reason."""


@dataclass(frozen=True, kw_only=True)
class Check:
    """How ``verify`` checks one kind, and how ``count`` evaluates its closed form.

    ``domain`` pairs each condition on (q, b, t, n) with the skip reason shown
    when it fails; ``work`` is the brute-force cost compared with the cap.
    ``formula`` is None for round trips, whose formula column is the number of
    trials.  ``oracle`` takes (q, b, t, n, cap, trials, rng), where rng is the
    row's seeded generator for round trips and None otherwise.  Every callable
    looks library functions up when it runs, so that wrappers installed on the
    modules see the calls.
    """

    domain: tuple[tuple[Callable[..., bool], str], ...] = ()
    work: Callable[..., int] | None = None
    formula: Callable | None = None
    oracle: Callable


def _ins_ball(q, b, t, n):
    return comb.ins_ball_size(q, b, n, t)


def _ins_int(q, b, t, n):
    return comb.ins_intersection_max(q, b, n, t)


def _ins_recurrence(count, q, b, t, n):
    return count(q, b, t, n - 1) + (q - 1) * q ** (b - 1) * count(q, b, t - 1, n)


def _del_ball(q, b, t, n):
    return comb.del_ball_max(q, b, n, t)


def _del_int(q, b, t, n):
    if q != 2:
        raise ValueError(
            "exact deletion overlap is known only for q = 2; "
            "use 'del-int-lb' for the general-q lower bound"
        )
    return comb.del_intersection_max_binary(b, n, t)


def _del_threshold(q, b, t, n):
    return comb.del_intersection_threshold(b, n, t)


def _ins_ball_regularity(q, b, t, n, cap, *_):
    observed = {len(enumerate_insertion_ball(x, q, t, b, cap)) for x in all_words(q, n)}
    return observed.pop() if len(observed) == 1 else f"irregular{sorted(observed)}"


def _flip_pair_overlap(q, b, t, n, cap, *_):
    x = bytes(b) + b_cyclic(n - b, q, b, 1 % q)
    y = bytearray(x)
    y[b - 1] = 1
    return len(
        intersection(
            enumerate_deletion_ball(x, t, b, cap), enumerate_deletion_ball(bytes(y), t, b, cap)
        )
    )


def _recovered(center, q, b, t, kind, need, cap, rng) -> bool:
    """Whether one round trip decodes center from `need` sampled outputs.

    A named decoder refusal is a failed trial.  The sample stays local, so it
    is freed before the next trial draws its own.
    """
    outputs = sample_distinct_outputs(
        center, q, t, b, kind, need, rng.getrandbits(48), cap
    ).outputs
    try:
        if kind == "insertion":
            return reconstruct_from_insertions(outputs, len(center), q, b, t).word == center
        return reconstruct_from_deletions(outputs, len(center), b, t).word == center
    except ReconstructionError:
        return False


def _roundtrip_ins_trials(q, b, t, n, cap, trials, rng):
    successes = 0
    for _ in range(trials):
        need = comb.ins_intersection_max(q, b, n, t) + 1
        if comb.ins_ball_size(q, b, n, t) < need:
            raise _Skip("no center admits threshold+1 distinct outputs")
        if need > cap:
            raise _Skip("threshold exceeds cap")
        center = bytes(rng.randrange(q) for _ in range(n))
        successes += _recovered(center, q, b, t, "insertion", need, cap, rng)
    return successes


def _roundtrip_del_trials(q, b, t, n, cap, trials, rng):
    need = comb.del_intersection_max_binary(b, n, t) + 1
    eligible = [
        x for x in all_words(2, n) if len(enumerate_deletion_ball(x, t, b, cap)) >= need
    ]
    if not eligible:
        raise _Skip("no center admits threshold+1 distinct outputs")
    return sum(
        _recovered(eligible[rng.randrange(len(eligible))], 2, b, t, "deletion", need, cap, rng)
        for _ in range(trials)
    )


_N_T_POSITIVE = (lambda q, b, t, n: n >= 1 and t >= 1, "needs n >= 1 and t >= 1")
_N_ABOVE_BT = (lambda q, b, t, n: n >= b * t + 1, "needs n >= b*t + 1")


def _overlap_range(q, b, t, n):
    return b >= 2 and t >= 1 and n >= b * (t + 1) - 1


# Keys in verify's row order; _row_seed_index seeds round trips by position.
CHECKS = {
    "ins-ball": Check(
        work=lambda q, b, t, n: q**n * max(_ins_ball(q, b, t, n), 1),
        formula=_ins_ball,
        oracle=_ins_ball_regularity,
    ),
    "ins-ball-rec": Check(
        domain=(_N_T_POSITIVE,),
        formula=_ins_ball,
        oracle=lambda q, b, t, n, *_: _ins_recurrence(_ins_ball, q, b, t, n),
    ),
    "ins-int": Check(
        domain=(_N_T_POSITIVE,),
        work=lambda q, b, t, n: max(q**n * (q**n - 1) // 2, q**n * _ins_ball(q, b, t, n)),
        formula=_ins_int,
        oracle=lambda q, b, t, n, cap, *_: max_intersection_exhaustive(
            n, q, b, t, "insertion", cap
        )[0],
    ),
    "ins-int-rec": Check(
        domain=(_N_T_POSITIVE,),
        formula=_ins_int,
        oracle=lambda q, b, t, n, *_: _ins_recurrence(_ins_int, q, b, t, n),
    ),
    "del-ball": Check(
        domain=((lambda q, b, t, n: n >= b * t, "needs n >= b*t"),),
        work=lambda q, b, t, n: q**n,
        formula=_del_ball,
        oracle=lambda q, b, t, n, cap, *_: max(
            len(enumerate_deletion_ball(x, t, b, cap)) for x in all_words(q, n)
        ),
    ),
    "del-ball-rec": Check(
        domain=(_N_ABOVE_BT,),
        formula=_del_ball,
        oracle=lambda q, b, t, n, *_: sum(
            _del_ball(q, b, t - i, n - i * b - 1) for i in range(q)
        ),
    ),
    "del-extremal": Check(
        domain=(_N_ABOVE_BT,),
        formula=_del_ball,
        oracle=lambda q, b, t, n, cap, *_: len(
            enumerate_deletion_ball(y_sequence(n, q, b, 0, 0), t, b, cap)
        ),
    ),
    "del-int": Check(
        domain=(
            (lambda q, b, t, n: q == 2, "exact value known only for q = 2"),
            (_overlap_range, "needs b >= 2, t >= 1, n >= b*(t+1)-1"),
        ),
        work=lambda q, b, t, n: 2**n * (2**n - 1) // 2,
        formula=_del_int,
        oracle=lambda q, b, t, n, cap, *_: max_intersection_exhaustive(
            n, 2, b, t, "deletion", cap
        )[0],
    ),
    "del-int-rec": Check(
        domain=(
            (
                lambda q, b, t, n: q == 2 and b >= 2 and t >= 1 and n >= max(b * t + 1, 2 * b),
                "needs q = 2, b >= 2, t >= 1, n >= max(b*t + 1, 2*b)",
            ),
        ),
        formula=_del_threshold,
        oracle=lambda q, b, t, n, *_: _del_threshold(q, b, t, n - 1)
        + _del_threshold(q, b, t - 1, n - b - 1),
    ),
    "del-int-lb": Check(
        domain=((_overlap_range, "needs b >= 2, t >= 1, n >= (t+1)*b-1"),),
        formula=lambda q, b, t, n: comb.del_intersection_lower_bound(q, b, n, t),
        oracle=_flip_pair_overlap,
    ),
    "sphere": Check(
        domain=((lambda q, b, t, n: t >= 1, "needs t >= 1"),),
        formula=lambda q, b, t, n: comb.sphere_packing_bound(q, b, n, t)[0],
        oracle=lambda q, b, t, n, *_: comb.sphere_packing_bound(q, 1, n, t)[0],
    ),
    "roundtrip-ins": Check(domain=(_N_T_POSITIVE,), oracle=_roundtrip_ins_trials),
    "roundtrip-del": Check(
        domain=(
            (lambda q, b, t, n: q == 2, "decoder defined for q = 2 only"),
            (_overlap_range, "needs b >= 2, t >= 1, n >= b*(t+1)-1"),
        ),
        work=lambda q, b, t, n: 2**n,
        oracle=_roundtrip_del_trials,
    ),
}

VERIFY_KINDS = tuple(CHECKS)


def _row_seed_index(kind, q, b, t, n) -> int:
    return (((q * 64 + b) * 64 + t) * 4096 + n) * 64 + VERIFY_KINDS.index(kind)


def _compute_row(item) -> ResultRow:
    q, b, t, n, kind, cap, seed, trials, corrupt = item
    check = CHECKS[kind]
    started = time.perf_counter()
    try:
        for holds, reason in check.domain:
            if not holds(q, b, t, n):
                raise _Skip(reason)
        if check.work is not None and check.work(q, b, t, n) > cap:
            raise _Skip("work exceeds cap")
        if check.formula is None:
            formula = trials
            rng = random.Random(trial_seed(seed, _row_seed_index(kind, q, b, t, n)))
        else:
            formula, rng = check.formula(q, b, t, n), None
        oracle = check.oracle(q, b, t, n, cap, trials, rng)
    except (_Skip, EnumerationCapExceeded, ValueError) as exc:
        ms = round((time.perf_counter() - started) * 1000.0, 3)
        return ResultRow(q, b, t, n, kind, "", f"skipped: {exc}", "skip", ms)
    if corrupt == kind and isinstance(formula, (int, Fraction)):
        formula = formula + 1
    match = "true" if formula == oracle else "false"
    ms = round((time.perf_counter() - started) * 1000.0, 3)
    return ResultRow(q, b, t, n, kind, str(formula), str(oracle), match, ms)


def run_sweep(config: SweepConfig) -> list[ResultRow]:
    """Evaluate every grid point of the sweep, ordered by parameter tuple."""
    specs = [
        (q, b, t, n, kind, config.cap, config.seed, config.trials, config.corrupt)
        for q in config.q_values
        for b in config.b_values
        for t in config.t_values
        for n in config.n_values
        for kind in config.kinds
    ]
    specs.sort(key=lambda s: (s[0], s[1], s[2], s[3], VERIFY_KINDS.index(s[4])))
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(_compute_row, specs))
    return [_compute_row(item) for item in specs]


def rows_to_csv(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(r) for r in rows)
    return buffer.getvalue()


def rows_from_csv(text: str) -> list[ResultRow]:
    """Parse rows_to_csv output back into ResultRow values."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header: {header}")
    return [
        ResultRow(
            int(rec[0]), int(rec[1]), int(rec[2]), int(rec[3]),
            rec[4], rec[5], rec[6], rec[7], float(rec[8]),
        )
        for rec in reader
    ]


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)


def _parse_range(text: str) -> tuple[int, ...]:
    """Accept '3', '1:4' (inclusive), or '1,3,5'."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return (int(text),)


def cmd_count(args) -> int:
    q, b, t, n = args.q, args.b, args.t, args.n
    try:
        value = CHECKS[args.kind].formula(q, b, t, n)
    except ValueError as exc:
        print(f"error[precondition]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.as_json:
        payload = {"params": {"q": q, "b": b, "t": t, "n": n}, "kind": args.kind}
        if args.kind == "sphere":
            payload.update(value=str(value), floor=math.floor(value))
        else:
            payload["value"] = value
        print(json.dumps(payload))
    elif args.kind == "sphere":
        print(f"{value} floor {math.floor(value)}")
    else:
        print(value)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        config = SweepConfig(
            q_values=_parse_range(args.q),
            b_values=_parse_range(args.b),
            t_values=_parse_range(args.t),
            n_values=_parse_range(args.n),
            kinds=tuple(VERIFY_KINDS)
            if args.kinds == "all"
            else tuple(args.kinds.split(",")),
            cap=args.cap if args.cap is not None else default_cap(),
            seed=args.seed,
            trials=args.trials,
            fmt=args.format,
            jobs=args.jobs,
            corrupt=args.corrupt,
        )
    except ValueError as exc:
        print(f"error[precondition]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    rows = run_sweep(config)
    if config.fmt == "csv":
        sys.stdout.write(rows_to_csv(rows))
    else:
        print(rows_to_json(rows))
    if any(r.match == "false" for r in rows):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_simulate(args) -> int:
    q = args.q
    kind = "insertion" if args.ins else "deletion"
    cap = args.cap if args.cap is not None else default_cap()
    try:
        x = parse_word(args.x, q)
        sample = sample_distinct_outputs(x, q, args.t, args.b, kind, args.N, args.seed, cap)
    except BallTooSmall as exc:
        print(f"error[ball-too-small]: ball size {exc.ball_size}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EnumerationCapExceeded as exc:
        print(f"error[cap-exceeded]: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error[precondition]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.as_json:
        print(
            json.dumps(
                {
                    "input": format_word(x, q),
                    "seed": sample.seed,
                    "rng": sample.rng_algorithm,
                    "outputs": [
                        {
                            "word": format_word(w, q),
                            "events": [format_event(e, q) for e in tr.events],
                        }
                        for w, tr in zip(sample.outputs, sample.traces)
                    ],
                }
            )
        )
    else:
        print(f"# rng {sample.rng_algorithm} seed {sample.seed}")
        for w, trace in zip(sample.outputs, sample.traces):
            print(format_word(w, q))
            for event in trace.events:
                print(f"# {format_event(event, q)}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    q = args.q
    try:
        if args.file:
            with open(args.file, encoding="utf-8") as fh:
                lines = fh.readlines()
        else:
            lines = sys.stdin.readlines()
        words = {
            parse_word(line, q)
            for line in (ln.strip() for ln in lines)
            if line and not line.startswith("#")
        }
        if args.ins:
            result = reconstruct_from_insertions(words, args.n, q, args.b, args.t)
        else:
            if q != 2:
                raise ValueError("deletion reconstruction is defined for q = 2 only")
            result = reconstruct_from_deletions(words, args.n, args.b, args.t)
    except ReconstructionError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        print(f"error[precondition]: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.diagnostics:
        for step in result.steps:
            print(
                f"# step pos={step.position} symbol={step.symbol} "
                f"bursts={step.consumed_bursts} classes={list(step.class_sizes)}",
                file=sys.stderr,
            )
    if args.as_json:
        print(
            json.dumps(
                {
                    "word": format_word(result.word, q),
                    "iterations": result.iterations,
                    "steps": [
                        {
                            "position": s.position,
                            "symbol": s.symbol,
                            "bursts": s.consumed_bursts,
                            "class_sizes": list(s.class_sizes),
                        }
                        for s in result.steps
                    ],
                }
            )
        )
    else:
        print(format_word(result.word, q))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstrecon",
        description="Exact burst-channel combinatorics, simulation, and decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="evaluate one closed-form count")
    count.add_argument("kind", choices=COUNT_KINDS)
    count.add_argument("-q", type=int, required=True, help="alphabet size")
    count.add_argument("-b", type=int, required=True, help="burst length")
    count.add_argument("-t", type=int, required=True, help="radius (number of bursts)")
    count.add_argument("-n", type=int, required=True, help="word length")
    count.add_argument("--as-json", action="store_true")
    count.set_defaults(func=cmd_count)

    verify = sub.add_parser("verify", help="sweep formulas against brute-force oracles")
    verify.add_argument("--q", default="2:3", help="range, e.g. 2:3 or 2,3")
    verify.add_argument("--b", default="1:3")
    verify.add_argument("--t", default="1:2")
    verify.add_argument("--n", default="1:4")
    verify.add_argument("--kinds", default="all", help=f"comma list from {','.join(VERIFY_KINDS)}")
    verify.add_argument("--cap", type=int, default=None, help="enumeration cap")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=5, help="round-trip trials per grid point")
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="sample distinct channel outputs")
    simulate.add_argument("-x", required=True, help="input word")
    group = simulate.add_mutually_exclusive_group(required=True)
    group.add_argument("--ins", action="store_true", help="burst insertions")
    group.add_argument("--del", dest="dele", action="store_true", help="burst deletions")
    simulate.add_argument("-q", type=int, default=2)
    simulate.add_argument("-b", type=int, required=True)
    simulate.add_argument("-t", type=int, required=True)
    simulate.add_argument("-N", type=int, required=True, help="distinct outputs to draw")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--cap", type=int, default=None)
    simulate.add_argument("--as-json", action="store_true")
    simulate.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="decode a word from channel outputs")
    rec.add_argument("--file", default=None, help="outputs, one per line (default stdin)")
    group = rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--ins", action="store_true")
    group.add_argument("--del", dest="dele", action="store_true")
    rec.add_argument("-n", type=int, required=True, help="length of the transmitted word")
    rec.add_argument("-q", type=int, default=2)
    rec.add_argument("-b", type=int, required=True)
    rec.add_argument("-t", type=int, required=True)
    rec.add_argument("--diagnostics", action="store_true", help="per-step class sizes on stderr")
    rec.add_argument("--as-json", action="store_true")
    rec.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

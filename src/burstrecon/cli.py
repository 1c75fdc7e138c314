"""Command line front end: exact counts, oracle sweeps, simulation, decoding.

Exit codes, for every command:

* 0 success;
* 2 precondition violation, with one stderr line: ``error[ball-too-small]``
  when ``simulate -N`` exceeds the ball, ``error[<class name>]`` for a named
  decoder refusal, ``error[precondition]`` for any other bad input (argparse
  errors also exit 2);
* 3 oracle mismatch in a ``verify`` row;
* 4 enumeration cap exceeded, ``error[cap-exceeded]``.

``main`` holds the only mapping from refusal to exit code.  The enumeration
cap is ``--cap`` on ``verify`` and ``simulate`` (default ``DEFAULT_CAP``; below
1 it exits 2); ``reconstruct --del`` refuses above the fixed ``DEFAULT_CAP``.
A ``verify`` row's work bound is one more ``balls._check_cap`` requirement;
a row over the cap reads ``skip`` with the refusal message.

``verify`` runs one grid point's rows together as a cell, whose ``tables``
dict holds what its rows share, all as word ranks: the insertion or deletion
ball table of every center, and the b-cyclic word's deletion ball.

Neither ``simulate`` nor ``reconstruct`` holds more of its text than one
batch.  ``simulate`` formats ``_TEXT_BATCH`` outputs in one pass and writes
them with their event lines, in both forms, and formats each event once.
``reconstruct`` reads ``_TEXT_BATCH`` lines at a time, parses them in one
pass and keeps only the distinct outputs.  A batch that fails a check is
parsed line by line (``sequences._parse_words``), and a fault in reading is
raised only after the lines read before it are parsed, so the first line
that cannot be parsed is refused before any later line is decoded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, groupby, islice, product, repeat
from operator import attrgetter

from . import combinatorics as comb
from .balls import (
    DEFAULT_CAP,
    _center_masks,
    _check_cap,
    _max_overlap,
    _rank_balls,
    _stepped_deletion_ranks,
)
from .channel import format_event, sample_distinct_outputs
from .errors import (
    BallTooSmall,
    EnumerationCapExceeded,
    ReconstructionError,
)
from .reconstruct import reconstruct_from_deletions, reconstruct_from_insertions
from .sequences import _format_words, _parse_words, all_words, format_word, parse_word, y_sequence

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4

COUNT_KINDS = ("ins-ball", "ins-int", "del-ball", "del-int", "del-int-lb", "sphere")

CSV_HEADER = "q,b,t,n,kind,formula,oracle,match,ms"

# outputs that simulate formats, and input lines that reconstruct parses, in one pass
_TEXT_BATCH = 256


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
    jobs: int

    def __post_init__(self):
        for name, values in zip("qbtn", (self.q_values, self.b_values, self.t_values, self.n_values)):
            if not values:
                raise ValueError(f"empty range for {name}")
            for v in values:
                comb._check_params(**{name: v})
        comb._check_params(cap=self.cap)
        for kind in self.kinds:
            if kind not in CHECKS:
                raise ValueError(f"unknown verify kind {kind!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


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
    when it fails; ``work`` is the brute-force cost, a ``balls._check_cap``
    requirement.  ``formula`` is None for round trips, whose formula column is
    the number of trials.  ``oracle`` takes (q, b, t, n, cap, trials, rng,
    tables), where rng is the row's seeded generator for round trips and None
    otherwise, and tables is the cell's dict of ball tables.  Every callable
    looks library functions up when it runs, so that wrappers installed on the
    modules see the calls.

    The oracles of one cell share what it builds, all on word ranks.  The
    overlap row (``ins-int``, ``del-int``) builds the ball table
    (``balls._center_masks``), stores it in tables under its ball kind and
    searches it; the size row and ``roundtrip-del`` read its popcounts when
    the cell stored it, else build one ball at a time.  The first b-cyclic row
    steps the b-cyclic word's ball along its cuts, and its ``ms`` carries that
    cost; ``del-int-lb`` streams its flip's ranks into the overlap.  The
    tables die with the cell.
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


def _table_overlap(kind, q, b, t, n, cap, trials, rng, tables):
    """The cell's largest ball overlap, from the table it builds and stores in tables."""
    masks = tables[kind] = _center_masks(n, q, b, t, kind, cap)
    return _max_overlap(masks)[0]


def _ball_sizes(kind, q, b, t, n, cap, trials, rng, tables):
    """Every length-n center's ball size, in ``all_words`` order.

    Where the cell's overlap row stored a table, the sizes are its popcounts,
    so the cell builds each ball once.  Elsewhere each ball is built as a set
    of word ranks, one at a time (``balls._rank_balls``), so a size row never
    builds a table.
    """
    if kind in tables:
        return [mask.bit_count() for mask in tables[kind]]
    return list(map(len, _rank_balls(n, q, b, t, kind)))


def _ins_ball_regularity(*args):
    observed = set(_ball_sizes("insertion", *args))
    return observed.pop() if len(observed) == 1 else f"irregular{sorted(observed)}"


def _cyclic_deletion_ball(q, b, t, n, cap, trials, rng, tables):
    """The deletion ball of the b-cyclic word as a set of word ranks, built once per cell.

    ``del-extremal`` and ``del-int-lb`` share it through tables.  The builder
    (``balls._stepped_deletion_ranks``) refuses an over-cap ball before
    anything is stepped or stored.
    """
    if "b-cyclic" not in tables:
        x = y_sequence(n, q, b, q - 1, 0)
        tables["b-cyclic"] = set(_stepped_deletion_ranks(x, q, b, t, cap))
    return tables["b-cyclic"]


def _flip_pair_overlap(q, b, t, n, cap, *rest):
    """The overlap of the b-cyclic word's ball with the ball of its copy whose b-th entry is 1."""
    ball_x = _cyclic_deletion_ball(q, b, t, n, cap, *rest)
    # the copy's ranks stream into the intersection and are never held as a set
    x = y_sequence(n, q, b, q - 1, 0)
    return len(ball_x.intersection(_stepped_deletion_ranks(x[: b - 1] + b"\x01" + x[b:], q, b, t, cap)))


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


def _roundtrip_ins_trials(q, b, t, n, cap, trials, rng, *_):
    # every insertion ball holds threshold+1 words: distinct centers have distinct
    # balls of one size (tests/test_combinatorics.py)
    need = comb.ins_intersection_max(q, b, n, t) + 1
    successes = 0
    for _ in range(trials):
        center = bytes(rng.randrange(q) for _ in range(n))
        successes += _recovered(center, q, b, t, "insertion", need, cap, rng)
    return successes


def _roundtrip_del_trials(q, b, t, n, cap, trials, rng, tables):
    need = comb.del_intersection_max_binary(b, n, t) + 1
    sizes = _ball_sizes("deletion", 2, b, t, n, cap, trials, rng, tables)
    eligible = [x for x, size in zip(all_words(2, n), sizes) if size >= need]
    if not eligible:
        raise _Skip("no center admits threshold+1 distinct outputs")
    return sum(
        _recovered(eligible[rng.randrange(len(eligible))], 2, b, t, "deletion", need, cap, rng)
        for _ in range(trials)
    )


_N_T_POSITIVE = (lambda q, b, t, n: n >= 1 and t >= 1, "needs n >= 1 and t >= 1")
_N_ABOVE_BT = (lambda q, b, t, n: n >= b * t + 1, "needs n >= b*t + 1")
_OVERLAP_RANGE = (
    lambda q, b, t, n: b >= 2 and t >= 1 and n >= b * (t + 1) - 1,
    "needs b >= 2, t >= 1, n >= b*(t+1)-1",
)


CHECKS = {
    "ins-ball": Check(
        work=lambda q, b, t, n: q**n * _ins_ball(q, b, t, n),
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
        oracle=lambda *args: _table_overlap("insertion", *args),
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
        oracle=lambda *args: max(_ball_sizes("deletion", *args)),
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
        oracle=lambda *args: len(_cyclic_deletion_ball(*args)),
    ),
    "del-int": Check(
        domain=(
            (lambda q, b, t, n: q == 2, "exact value known only for q = 2"),
            _OVERLAP_RANGE,
        ),
        work=lambda q, b, t, n: 2**n * (2**n - 1) // 2,
        formula=_del_int,
        oracle=lambda *args: _table_overlap("deletion", *args),
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
        domain=(_OVERLAP_RANGE,),
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
            _OVERLAP_RANGE,
        ),
        work=lambda q, b, t, n: 2**n,
        oracle=_roundtrip_del_trials,
    ),
}

VERIFY_KINDS = tuple(CHECKS)


def _compute_row(config: SweepConfig, point, kind, tables) -> ResultRow:
    """One row: the check of kind at point (q, b, t, n), or a ``skip`` with its reason."""
    q, b, t, n = point
    check = CHECKS[kind]
    started = time.perf_counter()
    try:
        for holds, reason in check.domain:
            if not holds(q, b, t, n):
                raise _Skip(reason)
        if check.work is not None:
            _check_cap(check.work(q, b, t, n), config.cap)
        if check.formula is None:
            formula = config.trials
            # random.seed hashes a str with SHA-512, not hash(), so each row key has its
            # own stream whatever PYTHONHASHSEED is
            rng = random.Random(f"{config.seed} {kind} {q} {b} {t} {n}")
        else:
            formula, rng = check.formula(q, b, t, n), None
        oracle = check.oracle(q, b, t, n, config.cap, config.trials, rng, tables)
    except (_Skip, EnumerationCapExceeded, ValueError) as exc:
        ms = round((time.perf_counter() - started) * 1000.0, 3)
        return ResultRow(q, b, t, n, kind, "", f"skipped: {exc}", "skip", ms)
    match = "true" if formula == oracle else "false"
    ms = round((time.perf_counter() - started) * 1000.0, 3)
    return ResultRow(q, b, t, n, kind, str(formula), str(oracle), match, ms)


def _compute_cell(cell) -> list[ResultRow]:
    """The rows of one cell (config, (q, b, t, n), kinds), in ``VERIFY_KINDS`` order.

    The cell's ball tables live in a local dict, keyed by ball kind or
    ``"b-cyclic"``, and die with the cell.  The overlap rows (``ins-int``,
    ``del-int``) are computed first, so that the size rows can read the
    tables they build.
    """
    config, point, kinds = cell
    tables: dict[str, tuple[int, ...] | set[int]] = {}
    rows = [
        _compute_row(config, point, kind, tables)
        for kind in sorted(kinds, key=lambda kind: kind not in ("ins-int", "del-int"))
    ]
    rows.sort(key=lambda row: VERIFY_KINDS.index(row.kind))
    return rows


def run_sweep(config: SweepConfig) -> list[ResultRow]:
    """Evaluate every grid point of the sweep, ordered by parameter tuple.

    The unit of work is a cell, one grid point with all its kinds and the
    sweep's config, so the rows of a cell share its ball tables; ``--jobs``
    maps the cells over at most one worker process per cell.
    """
    grid = sorted(
        product(config.q_values, config.b_values, config.t_values, config.n_values, config.kinds),
        key=lambda s: (*s[:4], VERIFY_KINDS.index(s[4])),
    )
    cells = [
        (config, point, tuple(kind for *_, kind in group))
        for point, group in groupby(grid, key=lambda s: s[:4])
    ]
    jobs = min(config.jobs, len(cells))  # a pool forks all its workers up front
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for this import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return [row for rows in pool.map(_compute_cell, cells) for row in rows]
    return [row for cell in cells for row in _compute_cell(cell)]


def rows_to_csv(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(map(attrgetter(*CSV_HEADER.split(",")), rows))
    return buffer.getvalue()


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps(list(map(vars, rows)), indent=2)


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
    comb._check_params(q=q, b=b, t=t, n=n)
    value = CHECKS[args.kind].formula(q, b, t, n)
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
    config = SweepConfig(
        q_values=_parse_range(args.q),
        b_values=_parse_range(args.b),
        t_values=_parse_range(args.t),
        n_values=_parse_range(args.n),
        kinds=VERIFY_KINDS if args.kinds == "all" else tuple(args.kinds.split(",")),
        cap=args.cap,
        seed=args.seed,
        trials=args.trials,
        jobs=args.jobs,
    )
    rows = run_sweep(config)
    for i, r in enumerate(rows):  # hidden --corrupt KIND: a mismatch for row readers to catch
        if r.kind == args.corrupt and r.match != "skip":
            formula = str(Fraction(r.formula) + 1)
            rows[i] = replace(r, formula=formula, match="true" if formula == r.oracle else "false")
    if args.format == "csv":
        sys.stdout.write(rows_to_csv(rows))
    else:
        print(rows_to_json(rows))
    if any(r.match == "false" for r in rows):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_simulate(args) -> int:
    q = args.q
    kind = "insertion" if args.ins else "deletion"
    x = parse_word(args.x, q)
    sample = sample_distinct_outputs(x, q, args.t, args.b, kind, args.N, args.seed, args.cap)
    # outputs share event objects, which sample keeps alive: an id names one
    # event here, and maps to its comment line, rendered once
    event_lines = {id(e): e for trace in sample.traces for e in trace}
    for key, e in event_lines.items():
        event_lines[key] = f"\n# {format_event(e, q)}"
    batches = (
        (_format_words(sample.outputs[i : i + _TEXT_BATCH], q), sample.traces[i : i + _TEXT_BATCH])
        for i in range(0, len(sample.outputs), _TEXT_BATCH)
    )
    write = sys.stdout.write
    if args.as_json:
        head = json.dumps({"input": format_word(x, q), "seed": sample.seed, "rng": sample.rng_algorithm})
        write(head[:-1] + ', "outputs": [')
        for i, (words, traces) in enumerate(batches):
            outputs = (  # an event is its comment line without the leading "\n# "
                json.dumps({"word": w, "events": [event_lines[id(e)][3:] for e in trace]})
                for w, trace in zip(words, traces)
            )
            write((", " if i else "") + ", ".join(outputs))
        write("]}\n")
    else:
        write(f"# rng {sample.rng_algorithm} seed {sample.seed}\n")
        for words, traces in batches:
            # every trace holds t events: column j is the j-th event line of each output
            columns = [map(event_lines.__getitem__, map(id, column)) for column in zip(*traces)]
            write("".join(chain.from_iterable(zip(words, *columns, repeat("\n")))))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    q = args.q
    words = set()
    with open(args.file, encoding="utf-8") if args.file else contextlib.nullcontext(sys.stdin) as lines:
        while True:
            batch = []
            try:
                batch.extend(islice(lines, _TEXT_BATCH))  # keeps the lines read before a fault
            finally:
                # a fault in reading is raised after the lines read before it are
                # parsed, so that an earlier faulty line is refused first
                words.update(_parse_words([s for s in map(str.strip, batch) if s and s[0] != "#"], q))
            if len(batch) < _TEXT_BATCH:
                break
    if args.ins:
        result = reconstruct_from_insertions(words, args.n, q, args.b, args.t)
    else:
        if q != 2:
            raise ValueError("deletion reconstruction is defined for q = 2 only")
        result = reconstruct_from_deletions(words, args.n, args.b, args.t)
    if args.diagnostics:
        for step in result.steps:
            print(
                f"# step pos={step.position} symbol={step.symbol} "
                f"bursts={step.consumed_bursts} classes={list(step.class_sizes)}",
                file=sys.stderr,
            )
        if not args.ins:
            print(
                f"# phase2 tried={result.phase2_tried} of {2 ** (args.t * (args.b - 1))}",
                file=sys.stderr,
            )
    if args.as_json:
        print(
            json.dumps(
                {
                    "word": format_word(result.word, q),
                    "iterations": len(result.steps),
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
    verify.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=5, help="round-trip trials per grid point")
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    # the channel arguments shared by simulate and reconstruct
    channel = argparse.ArgumentParser(add_help=False)
    group = channel.add_mutually_exclusive_group(required=True)
    group.add_argument("--ins", action="store_true", help="burst insertions")
    group.add_argument("--del", dest="dele", action="store_true", help="burst deletions")
    channel.add_argument("-q", type=int, default=2)
    channel.add_argument("-b", type=int, required=True)
    channel.add_argument("-t", type=int, required=True)
    channel.add_argument("--as-json", action="store_true")

    simulate = sub.add_parser("simulate", parents=[channel], help="sample distinct channel outputs")
    simulate.add_argument("-x", required=True, help="input word")
    simulate.add_argument("-N", type=int, required=True, help="distinct outputs to draw")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--cap", type=int, default=DEFAULT_CAP)
    simulate.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", parents=[channel], help="decode a word from channel outputs")
    rec.add_argument("--file", default=None, help="outputs, one per line (default stdin)")
    rec.add_argument("-n", type=int, required=True, help="length of the transmitted word")
    rec.add_argument("--diagnostics", action="store_true", help="per-step class sizes on stderr")
    rec.set_defaults(func=cmd_reconstruct)

    return parser


_PARSER = build_parser()  # one build costs about fifteen parses, so build it once


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # the refusal table, checked in order: BallTooSmall is also a ValueError
    try:
        return args.func(args)
    except BallTooSmall as exc:
        label, detail, code = "ball-too-small", f"ball size {exc.ball_size}", EXIT_PRECONDITION
    except EnumerationCapExceeded as exc:
        label, detail, code = "cap-exceeded", exc, EXIT_CAP
    except ReconstructionError as exc:
        label, detail, code = type(exc).__name__, exc, EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        label, detail, code = "precondition", exc, EXIT_PRECONDITION
    print(f"error[{label}]: {detail}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

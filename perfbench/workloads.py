"""The benchmark's workloads: their seeded inputs, their operations, and the
checks every output must pass.

A workload is a fixed list of operations built once from the workload seed.
A round runs every operation of the list once, so every run attempts whole
rounds of the same operations.  Three kinds of operation exist:

* ``RoundTrip`` with ``via_cli=False``: ``sample_distinct_outputs`` for
  threshold+1 outputs, then the matching decoder, through the public API;
* ``RoundTrip`` with ``via_cli=True``: ``burstrecon simulate ... |
  burstrecon reconstruct ...`` through ``cli.main`` in-process, the captured
  stdout of the first command fed to the second as stdin;
* ``VerifyCall``: one ``burstrecon verify --jobs 1`` through ``cli.main``;
  each output row is one operation.

The program is reached only through ``lib`` (the imported package), looked up
at call time, so that a tracer installed on the package sees every call.
Every check uses ``independent``, never the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import sys
from dataclasses import dataclass, field

import independent as ind
from speed import SpeedClock

WORKLOADS = ("roundtrip-small", "pipe-large", "verify-sweep")
WORK_CLASSES = ("ins", "del", "verify")

# outputs per set that are also checked with the benchmark's membership DP
MEMBERSHIP_CHECKED = 2

# roundtrip-small: the acceptance suite's small grid
SMALL_INS_N = (1, 2, 3, 4, 6, 8, 10, 12)
SMALL_INS_MAX_OUTPUTS = 3000  # one random center per insertion cell
SMALL_DEL_MAX_N = 12
SMALL_DEL_CENTERS = 16  # random eligible centers per deletion cell
SMALL_DEL_SAMPLES = 4  # sample seeds per deletion center

# pipe-large: (q, n) with b = 2, t = 2 for insertions; (b, t, n, center) for deletions
PIPE_INS = ((2, 400), (2, 800), (4, 200))
PIPE_DEL = (
    (2, 2, 400, "y_sequence"),
    (2, 2, 200, "random"),
    (4, 2, 200, "random"),
    (5, 2, 80, "random"),
    (2, 3, 80, "y_sequence"),
    (4, 3, 40, "y_sequence"),
    (5, 3, 40, "y_sequence"),
    (6, 3, 40, "y_sequence"),
)

CENTER_DRAWS = 20000  # random draws allowed per deletion center before giving up

INS_ORACLE_KINDS = ("ins-ball", "ins-int")
DEL_ORACLE_KINDS = ("del-ball", "del-extremal", "del-int", "del-int-lb")
CSV_FIELDS = ["q", "b", "t", "n", "kind", "formula", "oracle", "match", "ms"]


# --- statistics of one round --------------------------------------------------


@dataclass
class RoundStats:
    """What one round did: operations, failures, and time per class of work.

    ``work[c]`` is [verified operations, wall seconds, seconds at reference
    speed] for c in "ins", "del" (round trips) and "verify" (rows).
    """

    clock: SpeedClock = field(default_factory=SpeedClock)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose output was wrong, not refused
    op_seconds: float = 0.0
    ref_op_seconds: float = 0.0
    work: dict = field(default_factory=lambda: {c: [0, 0.0, 0.0] for c in WORK_CLASSES})
    verify_ms: dict = field(
        default_factory=lambda: {"ins_oracle": 0.0, "del_oracle": 0.0, "roundtrip": 0.0, "closed_form": 0.0}
    )
    rows_true: int = 0
    rows_skip: int = 0
    problems: list = field(default_factory=list)

    def outcome(self, problem: str | None, wrong: bool = False) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 5:
            self.problems.append(problem)
        return False

    def timed(self) -> tuple[float, float]:
        return self.clock.raw(), self.clock.now()

    def spent(self, started: tuple[float, float], *classes: str) -> None:
        raw, ref = self.clock.raw() - started[0], self.clock.now() - started[1]
        self.op_seconds += raw
        self.ref_op_seconds += ref
        for c in classes:
            self.work[c][1] += raw
            self.work[c][2] += ref

    def rate(self, work_class: str, at_reference_speed: bool = True) -> float:
        done, seconds, ref_seconds = self.work[work_class]
        spent = ref_seconds if at_reference_speed else seconds
        return done / spent if spent > 0 else 0.0


# --- calling the command line in-process -------------------------------------


def call_cli(lib, argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` with stdin, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def text_of(word: bytes) -> str:
    """Digit-string form of a word over an alphabet of at most 10 symbols."""
    return "".join(map(str, word))


def word_of(text: str) -> bytes:
    """Inverse of text_of; a character that is not a digit becomes a symbol
    of 10 or more, which the alphabet check rejects."""
    return bytes((ord(c) - 48) % 256 for c in text)


# --- round trips --------------------------------------------------------------


@dataclass(frozen=True)
class RoundTrip:
    """Sample threshold+1 distinct outputs around ``center`` and decode them."""

    channel: str  # "ins" or "del"
    q: int
    b: int
    t: int
    n: int
    center: bytes
    need: int  # threshold + 1, from the benchmark's own closed forms
    sample_seed: int
    via_cli: bool

    def run(self, lib, stats: RoundStats, seed: int) -> None:
        started = stats.timed()
        try:
            if self.via_cli:
                outputs, decoded, problem = self._pipe(lib)
            else:
                outputs, decoded, problem = self._api(lib)
        except Exception as exc:  # a refusal or crash is a failed operation
            problem, outputs, decoded = f"{self.describe()}: {type(exc).__name__}: {exc}", None, None
        stats.spent(started, self.channel)
        if problem is not None:
            stats.outcome(problem)
            return
        problem = self.check_outputs(outputs)
        if problem is None and decoded != self.center:
            problem = "decoded word differs from the center"
        if stats.outcome(problem and f"{self.describe()}: {problem}", wrong=True):
            stats.work[self.channel][0] += 1

    def _api(self, lib):
        kind = "insertion" if self.channel == "ins" else "deletion"
        sample = lib.sample_distinct_outputs(
            self.center, self.q, self.t, self.b, kind, self.need, self.sample_seed
        )
        if self.channel == "ins":
            result = lib.reconstruct_from_insertions(sample.outputs, self.n, self.q, self.b, self.t)
        else:
            result = lib.reconstruct_from_deletions(sample.outputs, self.n, self.b, self.t)
        return sample.outputs, result.word, None

    def _pipe(self, lib):
        params = ["-q", str(self.q), "-b", str(self.b), "-t", str(self.t)]
        flag = "--" + self.channel
        code, simulated, err = call_cli(
            lib,
            ["simulate", "-x", text_of(self.center), flag, *params,
             "-N", str(self.need), "--seed", str(self.sample_seed)],
        )
        if code != 0:
            return None, None, f"{self.describe()}: simulate exited {code}: {err.strip()}"
        code, decoded, err = call_cli(lib, ["reconstruct", flag, "-n", str(self.n), *params], simulated)
        if code != 0:
            return None, None, f"{self.describe()}: reconstruct exited {code}: {err.strip()}"
        outputs = [word_of(line) for line in simulated.splitlines() if line and not line.startswith("#")]
        return outputs, word_of(decoded.strip()), None

    def check_outputs(self, outputs) -> str | None:
        """Exactly ``need`` distinct words of the right length and alphabet,
        the first few of them members of the center's ball."""
        length = self.n + self.t * self.b if self.channel == "ins" else self.n - self.t * self.b
        if len(outputs) != self.need:
            return f"{len(outputs)} outputs, expected {self.need}"
        if len(set(outputs)) != self.need:
            return "outputs are not distinct"
        for w in outputs:
            if len(w) != length or (w and max(w) >= self.q):
                return f"output {w!r} has the wrong length or alphabet"
        for w in outputs[:MEMBERSHIP_CHECKED]:
            source, target = (w, self.center) if self.channel == "ins" else (self.center, w)
            if not ind.is_burst_deletion_of(source, target, self.t, self.b):
                return f"output {text_of(w)} is not in the center's ball"
        return None

    def describe(self) -> str:
        path = "pipe" if self.via_cli else "api"
        return f"{path} {self.channel} q={self.q} b={self.b} t={self.t} n={self.n}"


# --- verify sweeps ------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCall:
    """One ``burstrecon verify`` over a grid; every row is checked independently.

    When ``roundtrips`` names a channel, every row is a round-trip row and its
    trials count as round trips of that channel too.
    """

    q: tuple[int, ...]
    b: tuple[int, ...]
    t: tuple[int, ...]
    n: tuple[int, ...]
    kinds: tuple[str, ...]
    trials: int = 5
    roundtrips: str | None = None

    def argv(self, seed: int) -> list[str]:
        def values(v):
            return ",".join(map(str, v))

        return [
            "verify", "--q", values(self.q), "--b", values(self.b), "--t", values(self.t),
            "--n", values(self.n), "--kinds", ",".join(self.kinds),
            "--trials", str(self.trials), "--seed", str(seed), "--jobs", "1",
        ]

    def grid(self) -> set[tuple]:
        return {
            (q, b, t, n, kind)
            for q in self.q for b in self.b for t in self.t for n in self.n for kind in self.kinds
        }

    def run(self, lib, stats: RoundStats, seed: int) -> None:
        started = stats.timed()
        try:
            code, out, err = call_cli(lib, self.argv(seed))
        except Exception as exc:  # a crash fails every row of the call
            code, out, err = None, "", f"{type(exc).__name__}: {exc}"
        stats.spent(started, "verify", *([self.roundtrips] if self.roundtrips else []))
        grid = self.grid()
        rows, problem = parse_rows(out, grid)
        if problem is None and code != (3 if any(r["match"] == "false" for r in rows) else 0):
            problem = f"verify exited {code}: {err.strip()[:200]}"
        if problem is not None:
            for _ in grid:
                stats.outcome(f"verify {self.kinds}: {problem}")
            return
        verified = 0
        for row in rows:
            kind, ms = row["kind"], float(row["ms"])
            group = (
                "ins_oracle" if kind in INS_ORACLE_KINDS
                else "del_oracle" if kind in DEL_ORACLE_KINDS
                else "roundtrip" if kind in ind.ROUNDTRIP_KINDS
                else "closed_form"
            )
            stats.verify_ms[group] += ms
            stats.rows_true += row["match"] == "true"
            stats.rows_skip += row["match"] == "skip"
            row_problem, wrong = check_row(row, self.trials)
            if stats.outcome(row_problem and f"verify row {row_key(row)}: {row_problem}", wrong):
                verified += 1
        stats.work["verify"][0] += verified
        if self.roundtrips:
            stats.work[self.roundtrips][0] += self.trials * sum(1 for r in rows if r["match"] == "true")


def row_key(row) -> tuple:
    return (int(row["q"]), int(row["b"]), int(row["t"]), int(row["n"]), row["kind"])


def parse_rows(text: str, grid: set) -> tuple[list[dict], str | None]:
    """Read verify's CSV; exactly one row per grid point and kind."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_FIELDS:
        return [], f"unexpected CSV header {reader.fieldnames}"
    try:
        rows = list(reader)
        keys = [row_key(r) for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [], f"unreadable row: {exc}"
    if len(keys) != len(grid) or set(keys) != grid:
        return [], f"{len(keys)} rows for {len(grid)} grid points"
    return rows, None


def check_row(row: dict, trials: int) -> tuple[str | None, bool]:
    """(problem, wrong) for one verify row; problem is None for a good row.

    ``false`` is a wrong row.  ``skip`` is good only outside the kind's
    domain.  ``true`` must carry the benchmark's own value for closed forms,
    and all trials for round trips.
    """
    q, b, t, n, kind = row_key(row)
    match = row["match"]
    if match == "skip":
        if ind.in_domain(kind, q, b, t, n):
            return f"skip inside the domain: {row['oracle']}", False
        return None, False
    if match != "true":
        return f"row reads {match!r}: formula {row['formula']} oracle {row['oracle']}", True
    if row["formula"] != row["oracle"]:
        return "true row whose formula and oracle differ", True
    if kind in ind.ROUNDTRIP_KINDS:
        expected = str(trials)
    else:
        expected = str(ind.CLOSED_FORM_KINDS[kind](q, b, t, n))
    if row["formula"] != expected:
        return f"formula {row['formula']}, benchmark computes {expected}", True
    return None, False


# --- building the workloads ---------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple

    def run_round(self, lib, tracer=None, clock: SpeedClock | None = None) -> RoundStats:
        stats = RoundStats(clock or SpeedClock())
        for op in self.ops:
            if tracer is not None:
                tracer.op_id += 1
            op.run(lib, stats, self.seed)
        return stats


def y_center(n: int, b: int, prefix: int) -> bytes:
    """``prefix`` zeros, then blocks of b ones and b zeros alternating: a
    binary center with the largest deletion ball."""
    return bytes([0] * prefix + [(1 + i // b) % 2 for i in range(n - prefix)])


def eligible_center(rng: random.Random, b: int, t: int, n: int, need: int, style: str) -> bytes:
    """A deletion center whose ball holds at least ``need`` words.

    Random centers are drawn uniformly and kept only when the benchmark's own
    ball-size count reaches ``need``, which makes them uniform over the
    eligible centers.
    """
    if style == "y_sequence":
        center = y_center(n, b, rng.randrange(b))
        if ind.deletion_ball_size(center, t, b) < need:
            raise RuntimeError(f"y_sequence center too small for b={b} t={t} n={n}")
        return center
    for _ in range(CENTER_DRAWS):
        center = bytes(rng.getrandbits(1) for _ in range(n))
        if ind.deletion_ball_size(center, t, b) >= need:
            return center
    raise RuntimeError(f"no eligible random center for b={b} t={t} n={n}")


def del_need(b: int, t: int, n: int) -> int:
    return ind.del_overlap_binary(b, n, t) + 1


def ins_need(q: int, b: int, t: int, n: int) -> int:
    return ind.ins_overlap(q, b, n, t) + 1


def small_ins_cells():
    return [
        (q, b, t, n)
        for q in (2, 3) for b in (2, 3) for t in (1, 2, 3) for n in SMALL_INS_N
        if ins_need(q, b, t, n) <= SMALL_INS_MAX_OUTPUTS
    ]


def small_del_cells():
    """Binary cells of the small grid where some center holds threshold+1 words."""
    return [
        (b, t, n)
        for b in (2, 3) for t in (1, 2, 3) for n in range(b * (t + 1) - 1, SMALL_DEL_MAX_N + 1)
        if ind.del_ball(2, b, n, t) >= del_need(b, t, n)
    ]


def build(name: str, seed: int) -> Workload:
    """The operations of one round of ``name``, drawn from ``seed``."""
    rng = random.Random(seed)
    ops: list = []
    if name == "roundtrip-small":
        for q, b, t, n in small_ins_cells():
            center = bytes(rng.randrange(q) for _ in range(n))
            ops.append(RoundTrip("ins", q, b, t, n, center, ins_need(q, b, t, n), rng.getrandbits(48), False))
        for b, t, n in small_del_cells():
            need = del_need(b, t, n)
            for _ in range(SMALL_DEL_CENTERS):
                center = eligible_center(rng, b, t, n, need, "random")
                for _ in range(SMALL_DEL_SAMPLES):
                    ops.append(RoundTrip("del", 2, b, t, n, center, need, rng.getrandbits(48), False))
        ops.append(VerifyCall((2, 3), (2, 3), (1, 2), tuple(range(1, 7)),
                              ("roundtrip-ins", "roundtrip-del"), trials=3))
    elif name == "pipe-large":
        b, t = 2, 2
        for q, n in PIPE_INS:
            center = bytes(rng.randrange(q) for _ in range(n))
            ops.append(RoundTrip("ins", q, b, t, n, center, ins_need(q, b, t, n), rng.getrandbits(48), True))
        for b, t, n, style in PIPE_DEL:
            need = del_need(b, t, n)
            center = eligible_center(rng, b, t, n, need, style)
            ops.append(RoundTrip("del", 2, b, t, n, center, need, rng.getrandbits(48), True))
        ops.append(VerifyCall((2,), (2, 3, 4, 5, 6), (2,), (100, 200, 300),
                              ("ins-ball-rec", "ins-int-rec", "del-ball-rec", "del-extremal",
                               "del-int-rec", "del-int-lb", "sphere")))
    elif name == "verify-sweep":
        ops.append(VerifyCall((2, 3), (1, 2, 3), (1, 2), (1, 2, 3, 4),
                              ("ins-ball", "ins-ball-rec", "ins-int", "ins-int-rec", "sphere")))
        ops.append(VerifyCall((2,), (2, 3), (1, 2), tuple(range(4, 11)),
                              ("del-ball", "del-ball-rec", "del-extremal", "del-int", "del-int-rec", "del-int-lb")))
        ops.append(VerifyCall((3,), (2, 3), (1, 2), tuple(range(4, 9)),
                              ("del-ball", "del-ball-rec", "del-extremal", "del-int-lb")))
        ops.append(VerifyCall((2, 3), (2, 3), (1, 2), tuple(range(1, 7)), ("roundtrip-ins",),
                              trials=3, roundtrips="ins"))
        ops.append(VerifyCall((2,), (2, 3), (1, 2), tuple(range(5, 11)), ("roundtrip-del",),
                              trials=150, roundtrips="del"))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, tuple(ops))


def warm_up(workload: Workload, lib) -> None:
    """Run one small operation of each type the workload uses, unchecked, so
    that lazy imports and first-call costs fall into set-up."""
    stats = RoundStats()
    kinds = sorted({k for op in workload.ops if isinstance(op, VerifyCall) for k in op.kinds})
    for cli_path in {op.via_cli for op in workload.ops if isinstance(op, RoundTrip)}:
        RoundTrip("ins", 2, 2, 1, 3, b"\x00\x01\x00", ins_need(2, 2, 1, 3), 1, cli_path).run(lib, stats, 0)
        RoundTrip("del", 2, 2, 1, 6, y_center(6, 2, 0), del_need(2, 1, 6), 1, cli_path).run(lib, stats, 0)
    VerifyCall((2,), (2,), (1,), (3,), tuple(kinds)).run(lib, stats, 0)

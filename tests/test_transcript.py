"""A committed behaviour transcript: fixed commands and the digests of what they print.

Every command runs through ``cli.main`` in-process.  A command of the form
``A | B`` feeds A's stdout to B's stdin, and the digest is B's; a first stage
that names an entry of ``INPUTS`` is that fixed text instead.  A digest is
the sha256 of the exit code, the stdout and the stderr; in ``verify`` output
the ``ms`` column, the one field that varies between runs, is stripped first.
``transcript.txt`` beside this file holds one ``digest  command`` line per
command, so a failure names each command whose behaviour changed.

The commands cover ``simulate | reconstruct`` round trips of both channels,
with and without ``--diagnostics`` and ``--as-json``, at up to 2,000
outputs as well, and at q = 10, the largest alphabet of the digit form;
``reconstruct`` of fixed texts with blank, padded, CRLF, comment, duplicate,
comma-form, non-digit and non-ASCII digit lines, and of texts longer than
256 lines whose first 256 are comments or whose first fault sits past them,
one fault or two; deletion round trips
at t = 3 on centers whose phase 2 tries up to 136 completions; insertion
round trips at t = 3 whose steps consume 0 to 3 bursts, and one on 255
symbols at n = 200; ``simulate`` of both
kinds at t = 3 on alphabets of 3, 11 and 255 symbols and over whole balls,
``--ins`` from empty centers and ``--del`` at b = 1 and 3 and from centers
of length t*b; every ``verify`` kind,
with size-only ``ins-ball`` and ``del-ball`` grids that reach t = 0 and n = 0,
and ``del-extremal,del-int-lb`` grids on short words, on alphabets of 11 and
255 symbols, on words of up to 300 symbols and under caps at, just below and
far above the largest round of their deletion ball, and on alphabets of 4
to 16 symbols at n = 60 to 150; ``count``; and each
refusal and exit code: cap, ball too small, below the decoding threshold,
out-of-range symbol, bad range and argparse errors.

Changing ``transcript.txt`` is a behaviour change.  Regenerate it with
``PYTHONPATH=src python tests/test_transcript.py --write`` only for a change
meant to alter what the commands print, and name the changed commands.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import burstrecon
from burstrecon import combinatorics as comb, y_sequence
from burstrecon.cli import COUNT_KINDS, VERIFY_KINDS, main

TRANSCRIPT = Path(__file__).resolve().with_name("transcript.txt")

# argparse wraps its usage lines to the terminal width, read from COLUMNS
COLUMNS = "80"

MS_COLUMN = re.compile(r'(,|"ms": )[0-9.e+-]+$', re.MULTILINE)


def _center(q, n, key):
    rng = random.Random(key)  # a str seed is hashed with SHA-512, whatever PYTHONHASHSEED is
    return "".join(str(rng.randrange(q)) for _ in range(n))


def roundtrip_commands():
    """simulate, and simulate | reconstruct, at threshold+1 outputs and below it."""
    channels = []
    for q, b, t, n in (
        (2, 1, 1, 3), (2, 2, 1, 4), (2, 2, 2, 3), (2, 3, 1, 5), (3, 1, 2, 2),
        (3, 2, 1, 3), (3, 3, 1, 2), (4, 2, 1, 2), (4, 1, 1, 4), (5, 2, 1, 1),
    ):
        need = comb.ins_intersection_max(q, b, n, t) + 1
        for seed in (1, 2):
            x = _center(q, n, f"ins {q} {b} {t} {n} {seed}")
            channels.append((f"--ins -q {q} -b {b} -t {t}", x, n, need, seed))
    for b, t, n in ((2, 1, 4), (2, 1, 6), (2, 2, 6), (2, 2, 8), (3, 1, 6), (3, 2, 9), (4, 1, 8)):
        need = comb.del_intersection_max_binary(b, n, t) + 1
        found = 0
        for k in range(200):
            x = _center(2, n, f"del {b} {t} {n} {k}")
            if comb.del_ball_size(bytes(map(int, x)), t, b) >= need:
                channels.append((f"--del -q 2 -b {b} -t {t}", x, n, need, k))
                found += 1
                if found == 2:
                    break
    commands = []
    for channel, x, n, need, seed in channels:
        simulate = f"simulate {channel} -x {x} -N {need} --seed {seed}"
        reconstruct = f"reconstruct {channel} -n {n}"
        commands += [
            simulate,
            f"{simulate} --as-json",
            f"{simulate} | {reconstruct}",
            f"{simulate} | {reconstruct} --diagnostics",
            f"{simulate} | {reconstruct} --as-json --diagnostics",
            # below the threshold: the decoder refuses or decodes, and says which
            f"simulate {channel} -x {x} -N {max(need // 2, 1)} --seed {seed} | {reconstruct}",
        ]
    return commands


# fixed reconstruct inputs: the text forms that the line reader must keep
# reading as it does; the binary words decode to 01100 (--del -b 2 -t 1 -n 5)
INPUTS = {
    "padded-lines": " 100\n\n\t000  \n   \n\t \n010\t\n\n",
    "crlf-no-final-newline": "100\r\n000\r\n\r\n010",
    "indented-comments": "  # rng mt19937/unrank-v1 seed 7\n100\n   # del 1\n000\n\t# del 3\n010\n#\n",
    "duplicate-outputs": "100\n000\n100\n010\n000\n100\n",
    "duplicates-below-threshold": "100\n100\n000\n000\n100\n",
    "q11-comma-form": "# ins 1 5\n5,3,10,7\n 3,10,6,7\n3,10,3,7 \n\n3,10,7,8\n5,3,10,7\n",
    "non-digit-after-valid": "100\n000\n010\n01x\n100\n",
    "comments-fill-batch-1": "# comment\n" * 256 + "100\n000\n010\n",
}

# texts of more than one 256-line batch, and a non-ASCII digit: each is
# refused by its first faulty line, as a line-by-line reader refuses it
FAULTY_INPUTS = {
    "fault-in-batch-2": "100\n" * 300 + "01x\n" + "000\n010\n" * 50,
    "out-of-range-in-batch-2": "100\n" * 300 + "0120\n" + "000\n010\n" * 50,
    "faults-in-batches-2-and-3": "100\n" * 300 + "01x\n" + "000\n" * 300 + "0120\n" + "010\n",
    "non-ascii-digit": "100\n0\u06610\n000\n",
}
TEXTS = {**INPUTS, **FAULTY_INPUTS}


def text_commands():
    """reconstruct of each fixed text in INPUTS, and simulate at up to 2,000
    outputs, plain and as JSON, with their pipes into reconstruct: q = 4
    insertions at b = 2, t = 2, n = 16, and binary deletions at b = 2, t = 3,
    n = 40 from a y_sequence center."""
    binary = "reconstruct --del -q 2 -b 2 -t 1 -n 5"
    commands = [f"{name} | {binary}" for name in INPUTS if not name.startswith("q11")]
    commands += [
        f"padded-lines | {binary} --as-json --diagnostics",
        "duplicate-outputs | reconstruct --ins -q 2 -b 1 -t 1 -n 2",
        "q11-comma-form | reconstruct --ins -q 11 -b 1 -t 1 -n 3",
        "q11-comma-form | reconstruct --ins -q 11 -b 1 -t 1 -n 3 --as-json --diagnostics",
        "q11-comma-form | reconstruct --ins -q 10 -b 1 -t 1 -n 3",
    ]
    # q = 10 is the largest alphabet of the digit form: its symbol 9 tops it
    simulate = f"simulate --ins -q 10 -b 1 -t 3 -x {_center(10, 2, 'text 10 1 3 2')} -N 1623 --seed 8"
    commands += [simulate, f"{simulate} | reconstruct --ins -q 10 -b 1 -t 3 -n 2"]
    x_ins = _center(4, 16, "text 4 2 2 16")
    x_del = "".join(map(str, y_sequence(40, 2, 2, 0, 1)))
    for simulate, reconstruct in (
        (f"simulate --ins -q 4 -b 2 -t 2 -x {x_ins} -N 2000 --seed 5",
         "reconstruct --ins -q 4 -b 2 -t 2 -n 16"),
        (f"simulate --del -q 2 -b 2 -t 3 -x {x_del} -N 1200 --seed 6",
         "reconstruct --del -q 2 -b 2 -t 3 -n 40"),
    ):
        commands += [
            simulate,
            f"{simulate} --as-json",
            f"{simulate} | {reconstruct}",
            f"{simulate} | {reconstruct} --as-json --diagnostics",
        ]
    return commands


def phase2_commands():
    """Deletion round trips at t = 3 whose phase 2 tries many completions:
    y_sequence centers at (b, t, n) = (4, 3, 40), (5, 3, 40), (6, 3, 40) and
    (2, 3, 80), threshold+1 outputs, two sample seeds each, with diagnostics,
    so that ``# phase2 tried=`` is pinned past the first candidates."""
    commands = []
    for b, t, n in ((4, 3, 40), (5, 3, 40), (6, 3, 40), (2, 3, 80)):
        need = comb.del_intersection_max_binary(b, n, t) + 1
        prefix = random.Random(f"phase2 {b} {t} {n}").randrange(b)
        x = "".join(map(str, y_sequence(n, 2, b, 0, prefix)))
        channel = f"--del -q 2 -b {b} -t {t}"
        for seed in (1, 2):
            commands.append(
                f"simulate {channel} -x {x} -N {need} --seed {seed}"
                f" | reconstruct {channel} -n {n} --diagnostics"
            )
    return commands + [f"{commands[4]} --as-json"]


def insertion_t3_commands():
    """Insertion round trips at t = 3 and threshold+1 outputs, with diagnostics:
    one seed per cell whose first step consumes all three bursts, and seeds
    whose steps spread them over steps of 0, 1 and 2 bursts."""
    commands = []
    for q, b, n, seeds in ((2, 1, 8, (1, 5, 9)), (3, 1, 12, (1, 15, 24)), (2, 2, 4, (1,))):
        need = comb.ins_intersection_max(q, b, n, 3) + 1
        channel = f"--ins -q {q} -b {b} -t 3"
        for seed in seeds:
            x = _center(q, n, f"ins {q} {b} 3 {n} {seed}")
            commands.append(
                f"simulate {channel} -x {x} -N {need} --seed {seed}"
                f" | reconstruct {channel} -n {n} --diagnostics"
            )
    return commands


def large_alphabet_commands():
    """An insertion round trip on 255 symbols at n = 200 from three outputs,
    threshold+1 at b = t = 1, with diagnostics: each step's tally covers only
    the few symbols that its outputs show."""
    rng = random.Random("ins 255 1 1 200")
    x = ",".join(str(rng.randrange(255)) for _ in range(200))
    channel = "--ins -q 255 -b 1 -t 1"
    return [f"simulate {channel} -x={x} -N 3 --seed 1 | reconstruct {channel} -n 200 --diagnostics"]


def sampler_commands():
    """simulate at t = 3, on alphabets of 3, 11 and 255 symbols, and whole-ball
    draws (-N the ball's size), plain and as JSON: --ins from empty centers,
    --del at b = 1 and 3 and from centers of length t*b, whose ball is one word."""
    commands = []
    for kind, q, b, t, n, count in (
        ("ins", 2, 2, 3, 0, "all"), ("ins", 2, 2, 3, 3, "all"), ("ins", 3, 1, 3, 2, "all"),
        ("ins", 2, 3, 3, 7, 400), ("ins", 11, 1, 3, 0, "all"), ("ins", 11, 1, 3, 2, "all"),
        ("ins", 11, 2, 3, 4, 200), ("ins", 11, 3, 3, 9, 60), ("ins", 255, 1, 1, 3, "all"),
        ("ins", 255, 1, 3, 0, 100), ("ins", 255, 2, 3, 6, 300), ("ins", 255, 3, 3, 5, 50),
        ("del", 2, 1, 3, 20, "all"), ("del", 2, 3, 3, 9, "all"), ("del", 2, 3, 3, 24, 40),
        ("del", 3, 1, 3, 12, "all"), ("del", 3, 2, 3, 20, "all"), ("del", 3, 3, 3, 9, "all"),
        ("del", 3, 3, 2, 16, 20), ("del", 11, 1, 3, 10, "all"), ("del", 11, 2, 3, 18, 150),
        ("del", 11, 3, 3, 9, "all"), ("del", 11, 3, 3, 24, 100), ("del", 255, 1, 3, 3, "all"),
        ("del", 255, 1, 3, 9, "all"), ("del", 255, 3, 2, 20, 60), ("del", 255, 2, 3, 24, 300),
    ):
        rng = random.Random(f"sample {q} {b} {t} {n}")
        symbols = [rng.randrange(q) for _ in range(n)]
        x = ("," if q > 10 else "").join(map(str, symbols))
        if count == "all" and kind == "ins":
            count = comb.ins_ball_size(q, b, n, t)
        elif count == "all":
            count = comb.del_ball_size(bytes(symbols), t, b)
        simulate = f"simulate --{kind} -q {q} -b {b} -t {t} -x={x} -N {count} --seed {n + t}"
        commands += [simulate, f"{simulate} --as-json"]
    return commands


def verify_commands():
    commands = [
        "verify",
        "verify --format json --q 2 --b 1:2 --t 1 --n 1:3",
        "verify --q 2:3 --b 2:3 --t 1:2 --n 3:6 --kinds ins-int,del-int,del-int-lb --cap 5000",
        "verify --q 2 --b 2:3 --t 1:2 --n 4:7 --kinds roundtrip-ins,roundtrip-del --trials 3 --seed 5",
        "verify --q 2 --b 2 --t 1 --n 3 --kinds ins-ball --corrupt ins-ball",
    ]
    commands += [f"verify --q 2 --b 2 --t 2 --n 5 --kinds {kind}" for kind in VERIFY_KINDS]
    # t = 1 deletion tables, whose balls all exceed the largest overlap, and
    # roundtrip-del's eligible centers on the same cells, one skipped
    commands += [
        "verify --kinds del-int --q 2 --b 2,3 --t 1 --n 9:11",
        "verify --kinds roundtrip-del --q 2 --b 2,3 --t 1:2 --n 9:10 --trials 2 --seed 4",
    ]
    for kind in ("ins-ball", "del-ball"):
        commands.append(f"verify --kinds {kind} --q 2:4 --b 1:2 --t 0:2 --n 0:3")
        for cap in (1, 50, 5000, 10**5):
            commands.append(f"verify --kinds {kind} --q 2:3 --b 1:3 --t 0:2 --n 0:5 --cap {cap}")
    # the b-cyclic rows: a small grid, pipe-large's grid of long words, and
    # caps that the deletion round gate refuses
    cyclic = "verify --kinds del-extremal,del-int-lb"
    commands += [
        f"{cyclic} --q 2:4 --b 1:3 --t 0:3 --n 0:9",
        f"{cyclic} --q 11,255 --b 1:3 --t 0:3 --n 0:12",
        "verify --q 2 --b 2:6 --t 2 --n 100,200,300 --kinds "
        "ins-ball-rec,ins-int-rec,del-ball-rec,del-extremal,del-int-rec,del-int-lb,sphere",
    ]
    commands += [f"{cyclic} --q 2:3 --b 1:3 --t 1:3 --n 0:9 --cap {cap}" for cap in (10, 50)]
    # the b-cyclic word's largest round at (q, b, t, n) = (2, 2, 3, 40) is
    # 6,580 words, and (n - b + 1)**t = 59,319 bounds every round
    commands += [f"{cyclic} --q 2 --b 2 --t 3 --n 40 --cap {cap}" for cap in (6580, 6579, 59319)]
    # power-of-two alphabets at large n, whose ranks fold onto few hash residues
    commands += [
        f"{cyclic} --q 4,8,16 --b 2 --t 1:2 --n 120",
        f"{cyclic} --q 4 --b 2:3 --t 2 --n 60,150",
    ]
    return commands


def count_commands():
    commands = []
    for kind in COUNT_KINDS:
        for q, b, t, n in ((2, 2, 2, 7), (3, 1, 1, 5), (2, 3, 0, 4)):
            commands.append(f"count {kind} -q {q} -b {b} -t {t} -n {n}")
            commands.append(f"count {kind} -q {q} -b {b} -t {t} -n {n} --as-json")
    return commands


def refusal_commands():
    return [
        # enumeration cap (exit 4), ball too small and bad ranges (exit 2)
        "simulate --ins -q 2 -b 2 -t 2 -x 0110 -N 5 --cap 10",
        "simulate --del -b 2 -t 1 -x 011001 -N 5 --cap 2",
        "simulate --del -b 2 -t 1 -x 011001 -N 50",
        "simulate --ins -q 2 -b 1 -t 1 -x 012 -N 2",
        "simulate --ins -q 2 -b 1 -t 1 -x 01 -N 2 --cap 0",
        "simulate --ins -q 2 -b 0 -t 1 -x 01 -N 2",
        "simulate --del -b 2 -t 2 -x 011 -N 1",
        "simulate --del -b 2 -t 1 -x 0110 -N 0",
        "simulate --ins -q 2 -b 1 -t 1 -x 01 -N 2 --seed -1",
        # an out-of-range symbol, a wrong length and a non-binary deletion decoder
        "simulate --ins -q 3 -b 1 -t 1 -x 212 -N 4 | reconstruct --ins -q 2 -b 1 -t 1 -n 3",
        "simulate --ins -q 2 -b 1 -t 1 -x 010 -N 4 | reconstruct --ins -q 2 -b 1 -t 1 -n 4",
        "simulate --del -q 3 -b 1 -t 1 -x 2120 -N 3 | reconstruct --del -q 3 -b 1 -t 1 -n 4",
        "reconstruct --ins -q 2 -b 1 -t 1 -n 3",
        "reconstruct --del -q 2 -b 2 -t 1 -n 6 --file missing-outputs.txt",
        # a faulty line past the first batch of a text, and a non-ASCII digit
        *(f"{name} | reconstruct --del -q 2 -b 2 -t 1 -n 5" for name in FAULTY_INPUTS),
        "count del-int -q 3 -b 2 -t 2 -n 7",
        "count del-int -q 2 -b 2 -t 1 -n 2",
        "count ins-ball -q 1 -b 2 -t 1 -n 2",
        "verify --kinds nope",
        "verify --jobs 0",
        "verify --trials 0",
        "verify --cap 0",
        "verify --q 1",
        "verify --n 3:2",
        "verify --q 2 --b 2 --t 2 --n 4 --kinds del-int --cap 10",
        # argparse refusals (exit 2 through SystemExit)
        "nope",
        "count nope -q 2 -b 1 -t 1 -n 2",
        "count ins-ball -q 2 -b 1 -t 1",
        "verify --cap x",
        "verify --format xml",
        "simulate --ins --del -b 1 -t 1 -x 01 -N 1",
        "simulate -b 1 -t 1 -x 01 -N 1",
        "reconstruct --ins -b 1 -t 1",
    ]


def commands():
    return (
        roundtrip_commands() + text_commands() + phase2_commands() + insertion_t3_commands()
        + large_alphabet_commands() + sampler_commands() + verify_commands() + count_commands() + refusal_commands()
    )


def run(argv, stdin):
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def transcript(command_list):
    """Map each command to (exit code, stdout, stderr) of its last stage."""
    stdout_of = {}  # upstream stages, run once however many pipes share them
    found = {}
    for command in command_list:
        stages = command.split(" | ")
        stdin = ""
        for k, stage in enumerate(stages):
            prefix = " | ".join(stages[: k + 1])
            if prefix in stdout_of and k < len(stages) - 1:
                stdin = stdout_of[prefix]
                continue
            if k == 0 and stage in TEXTS:
                stdin = TEXTS[stage]
                continue
            argv = stage.split()
            code, out, err = run(argv, stdin)
            if argv[:1] == ["verify"]:
                out = MS_COLUMN.sub(r"\1", out)
            stdout_of[prefix] = stdin = out
        found[command] = (code, out, err)
    return found


def digest(code, out, err):
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def read_transcript():
    lines = TRANSCRIPT.read_text(encoding="utf-8").splitlines()
    return {line[66:]: line[:64] for line in lines}


def test_commands_print_what_the_transcript_recorded(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.chdir(tmp_path)  # no file that a command names exists here
    expected = read_transcript()
    command_list = commands()
    assert len(command_list) == len(set(command_list))
    assert sorted(command_list) == sorted(expected)
    found = transcript(command_list)
    changed = [command for command in command_list if digest(*found[command]) != expected[command]]
    assert changed == []
    # the set stays meaningful: every exit code, and a row of every verify kind
    assert {code for code, _, _ in found.values()} == {0, 2, 3, 4}
    kinds = {
        row.split(",")[4]
        for command, (_, out, _) in found.items()
        if command.startswith("verify") and "--format" not in command
        for row in out.splitlines()[1:]
    }
    assert kinds == set(VERIFY_KINDS)


def test_refusals_and_insertion_steps_hold_under_python_O(tmp_path):
    # python -O strips assert statements, so every refusal and every decoder
    # step must come from code that still runs there; the refusals and the
    # t = 3 and 255-symbol insertion pipes print their recorded digests in an
    # -O interpreter
    command_list = refusal_commands() + insertion_t3_commands() + large_alphabet_commands()
    script = (
        "import json, sys, test_transcript as T\n"
        "found = T.transcript(json.loads(sys.stdin.read()))\n"
        "print(json.dumps([sys.flags.optimize, {c: T.digest(*f) for c, f in found.items()}]))\n"
    )
    path = os.pathsep.join([str(Path(burstrecon.__file__).parent.parent), str(TRANSCRIPT.parent)])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=json.dumps(command_list), capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, COLUMNS=COLUMNS), check=True,
    )
    optimize, digests = json.loads(done.stdout)
    expected = read_transcript()
    assert optimize == 1
    assert digests == {command: expected[command] for command in command_list}


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        lines = [f"{digest(*found)}  {command}" for command, found in transcript(commands()).items()]
    TRANSCRIPT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} digests to {TRANSCRIPT}")

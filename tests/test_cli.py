"""Command line behavior: outputs, exit codes, determinism, round trips."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import groupby, product

import pytest

import burstrecon.cli
from burstrecon import (
    AmbiguousSymbol,
    all_words,
    del_ball_size,
    del_intersection_max_binary,
    enumerate_deletion_ball,
    enumerate_insertion_ball,
    y_sequence,
)
from burstrecon.cli import (
    EXIT_CAP,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    CSV_HEADER,
    VERIFY_KINDS,
    ResultRow,
    SweepConfig,
    _roundtrip_del_trials,
    main,
    rows_to_csv,
    run_sweep,
)
from burstrecon.balls import _center_masks
from test_balls import reference_max_intersection


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    """Parse verify's CSV output back into ResultRow values."""
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames == CSV_HEADER.split(",")
    return [
        ResultRow(
            int(r["q"]), int(r["b"]), int(r["t"]), int(r["n"]),
            r["kind"], r["formula"], r["oracle"], r["match"], float(r["ms"]),
        )
        for r in reader
    ]


class TestCount:
    def test_ins_ball(self, capsys):
        code, out, _ = run_cli(capsys, "count", "ins-ball", "-q", "2", "-b", "2", "-n", "3", "-t", "1")
        assert code == EXIT_OK
        assert out.strip() == "10"

    def test_del_int(self, capsys):
        code, out, _ = run_cli(capsys, "count", "del-int", "-q", "2", "-b", "2", "-n", "7", "-t", "2")
        assert code == EXIT_OK
        assert out.strip() == "6"

    def test_del_int_nonbinary_guarded(self, capsys):
        code, out, err = run_cli(capsys, "count", "del-int", "-q", "3", "-b", "2", "-n", "7", "-t", "2")
        assert code == EXIT_PRECONDITION
        assert "del-int-lb" in err

    def test_del_int_lower_bound(self, capsys):
        code, out, _ = run_cli(capsys, "count", "del-int-lb", "-q", "3", "-b", "2", "-n", "5", "-t", "1")
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_sphere(self, capsys):
        code, out, _ = run_cli(capsys, "count", "sphere", "-q", "2", "-b", "1", "-n", "3", "-t", "1")
        assert code == EXIT_OK
        assert out.strip() == "16/5 floor 3"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "ins-int", "-q", "2", "-b", "2", "-n", "2", "-t", "2", "--as-json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == 32
        assert payload["params"] == {"q": 2, "b": 2, "t": 2, "n": 2}

    def test_precondition_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "del-int", "-q", "2", "-b", "2", "-n", "2", "-t", "1")
        assert code == EXIT_PRECONDITION
        assert "precondition" in err


class TestVerify:
    def test_small_grid_all_match(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "3:5")
        assert code == EXIT_OK
        rows = rows_of(out)
        assert rows and all(r.match in ("true", "skip") for r in rows)
        spot = [r for r in rows if r.kind == "del-int" and r.n == 3]
        assert spot and spot[0].formula == "2"  # overlap max at n = 2b-1 is b

    def test_corrupted_formula_detected(self, capsys, monkeypatch):
        # the checks look the closed form up when they run, so a wrong one shows
        real = burstrecon.cli.comb.ins_ball_size
        monkeypatch.setattr(burstrecon.cli.comb, "ins_ball_size", lambda *args: real(*args) + 1)
        code, out, _ = run_cli(
            capsys,
            "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "2:3", "--kinds", "ins-ball",
        )
        assert code == EXIT_MISMATCH
        rows = rows_of(out)
        assert rows and all(r.match == "false" for r in rows)

    def test_work_over_the_cap_reads_the_cap_refusal(self, capsys):
        # 1408 = 2**4 * I_{2,2}(4, 2), the closed-form work of both rows
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "2", "--n", "4",
            "--kinds", "ins-ball,ins-int", "--cap", "1000",
        )
        assert code == EXIT_OK
        assert [(r.kind, r.oracle, r.match) for r in rows_of(out)] == [
            (kind, "skipped: enumeration needs 1408 words, cap is 1000", "skip")
            for kind in ("ins-ball", "ins-int")
        ]

    def test_overlap_range_has_one_reason(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "3", "--t", "2", "--n", "4",
            "--kinds", "del-int,del-int-lb,roundtrip-del",
        )
        assert code == EXIT_OK
        rows = rows_of(out)
        assert [r.kind for r in rows] == ["del-int", "del-int-lb", "roundtrip-del"]
        assert {(r.oracle, r.match) for r in rows} == {
            ("skipped: needs b >= 2, t >= 1, n >= b*(t+1)-1", "skip")
        }

    def test_csv_round_trip(self):
        config = SweepConfig(
            q_values=(2,), b_values=(2,), t_values=(1, 2), n_values=(3, 4),
            kinds=("ins-ball", "del-int", "sphere", "del-int-lb"),
            cap=10**7, seed=0, trials=2, jobs=1,
        )
        rows = run_sweep(config)
        assert rows_of(rows_to_csv(rows)) == rows

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "1", "--t", "1", "--n", "1:2",
            "--kinds", "ins-ball,sphere", "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert all(r["match"] == "true" for r in rows)

    def test_skips_marked_not_failed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "3", "--b", "2", "--t", "1", "--n", "3",
            "--kinds", "del-int",
        )
        assert code == EXIT_OK
        rows = rows_of(out)
        assert rows[0].match == "skip"
        assert "q = 2" in rows[0].oracle

    def test_rows_ordered_by_parameter_tuple(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--q", "2:3", "--b", "1:2", "--t", "1", "--n", "1:2", "--kinds", "sphere")
        rows = rows_of(out)
        keys = [(r.q, r.b, r.t, r.n) for r in rows]
        assert keys == sorted(keys)

    def test_unknown_kind_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--kinds", "no-such-kind")
        assert code == EXIT_PRECONDITION
        assert "unknown" in err

    @pytest.mark.parametrize(
        "option, message",
        [
            ("--q=1:2", "alphabet size must be in [2, 255], got 1"),
            ("--q=255:256", "alphabet size must be in [2, 255], got 256"),
            ("--b=0", "burst length must be at least 1, got 0"),
            ("--t=-1:1", "radius must be nonnegative, got -1"),
            ("--n=-1", "word length must be nonnegative, got -1"),
        ],
    )
    def test_invalid_range_rejected(self, capsys, option, message):
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "2",
            "--kinds", "ins-ball", option,
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert f"error[precondition]: {message}" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "4",
            "--kinds", "roundtrip-ins,roundtrip-del", "--trials", trials,
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert f"error[precondition]: trials must be at least 1, got {trials}" in err

    def test_decoder_refusal_is_a_failed_trial(self, capsys, monkeypatch):
        def refuse(*args):
            raise AmbiguousSymbol("simulated refusal")

        monkeypatch.setattr(burstrecon.cli, "reconstruct_from_insertions", refuse)
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "3:4",
            "--kinds", "roundtrip-ins", "--trials", "2",
        )
        assert code == EXIT_MISMATCH
        rows = rows_of(out)
        assert [(r.formula, r.oracle, r.match) for r in rows] == [("2", "0", "false")] * 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "3",
            "--kinds", "ins-ball", "--jobs", jobs,
        )
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == f"error[precondition]: jobs must be at least 1, got {jobs}\n"

    @staticmethod
    def recording_pool(monkeypatch):
        """Swap in a pool that records its size and maps in this process; forks nothing."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return map(func, items)

        # run_sweep imports the pool class when it needs one, so patch it at its source
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return started

    def test_pool_machinery_not_imported_with_the_cli(self):
        code = "import sys, burstrecon.cli; print('concurrent.futures.process' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout == "False\n"

    @pytest.mark.parametrize("n_values, workers", [("3", []), ("3:4", [2]), ("1:9", [6])])
    def test_pool_no_larger_than_the_grid(self, capsys, monkeypatch, n_values, workers):
        started = self.recording_pool(monkeypatch)
        code, _, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", n_values,
            "--kinds", "ins-ball", "--jobs", "6",
        )
        assert code == EXIT_OK
        assert started == workers

    def test_pool_no_larger_than_the_cells(self, capsys, monkeypatch):
        # a cell, one grid point with all its kinds, is the unit of work
        started = self.recording_pool(monkeypatch)
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "3:4",
            "--kinds", "ins-ball,ins-int,del-ball", "--jobs", "6",
        )
        assert code == EXIT_OK
        assert len(rows_of(out)) == 6
        assert started == [2]

    # the size and overlap rows of a cell share one ball table
    TABLE_GRIDS = (
        ((2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2, 3, 4), ("ins-ball", "ins-int", "del-ball", "del-int")),
        ((2,), (2, 3), (1, 2), (5, 6, 7, 8), ("del-ball", "del-int")),
    )

    @classmethod
    def table_rows(cls, jobs, only=None):
        rows = []
        for q, b, t, n, kinds in cls.TABLE_GRIDS:
            kinds = tuple(k for k in kinds if only is None or k in only)
            if not kinds:
                continue
            config = SweepConfig(
                q_values=q, b_values=b, t_values=t, n_values=n, kinds=kinds,
                cap=10**7, seed=0, trials=1, jobs=jobs,
            )
            rows += [dataclasses.replace(r, ms=0.0) for r in run_sweep(config)]
        return rows

    def test_table_oracles_match_per_center_references(self, monkeypatch):
        shared = self.table_rows(jobs=1)
        assert {r.kind for r in shared if r.match == "true"} == {
            "ins-ball", "ins-int", "del-ball", "del-int"
        }

        def ins_ball(q, b, t, n, cap, *_):
            observed = {len(enumerate_insertion_ball(x, q, t, b, cap)) for x in all_words(q, n)}
            return observed.pop() if len(observed) == 1 else f"irregular{sorted(observed)}"

        references = {
            "ins-ball": ins_ball,
            "ins-int": lambda q, b, t, n, *_: reference_max_intersection(n, q, b, t, "insertion")[0],
            "del-ball": lambda q, b, t, n, cap, *_: max(
                len(enumerate_deletion_ball(x, t, b, cap)) for x in all_words(q, n)
            ),
            "del-int": lambda q, b, t, n, *_: reference_max_intersection(n, 2, b, t, "deletion")[0],
        }
        for kind, oracle in references.items():
            check = dataclasses.replace(burstrecon.cli.CHECKS[kind], oracle=oracle)
            monkeypatch.setitem(burstrecon.cli.CHECKS, kind, check)
        assert shared == self.table_rows(jobs=1)

    def test_table_oracles_parallel_match_sequential(self):
        # each worker builds its own tables
        assert self.table_rows(jobs=2) == self.table_rows(jobs=1)

    def test_cells_keep_the_row_order(self):
        # repeated and unsorted values and kinds: rows come out ordered by
        # (q, b, t, n, kind), repeats side by side, each as computed alone
        config = SweepConfig(
            q_values=(3, 2, 2), b_values=(2,), t_values=(1,), n_values=(4, 3, 4),
            kinds=("del-int", "ins-ball", "ins-int", "ins-ball", "del-ball"),
            cap=10**7, seed=0, trials=1, jobs=1,
        )
        order = sorted(
            (q, n, VERIFY_KINDS.index(kind), kind)
            for q in config.q_values for n in config.n_values for kind in config.kinds
        )
        alone = [
            run_sweep(dataclasses.replace(config, q_values=(q,), n_values=(n,), kinds=(kind,)))[0]
            for q, n, _, kind in order
        ]
        strip = lambda rows: [dataclasses.replace(r, ms=0.0) for r in rows]
        assert strip(run_sweep(config)) == strip(alone)
        assert {r.match for r in alone} == {"true", "skip"}

    def test_tables_built_only_for_overlap_rows(self, monkeypatch):
        # a size row reads its cell's table when the overlap row built one and
        # otherwise enumerates ball by ball; the rows are the same either way
        reference = self.table_rows(jobs=1)
        built = []
        real = burstrecon.balls._center_masks

        def counting(n, q, b, t, kind, cap):
            built.append((q, b, t, n, kind))
            return real(n, q, b, t, kind, cap)

        monkeypatch.setattr(burstrecon.balls, "_center_masks", counting)
        monkeypatch.setattr(burstrecon.cli, "_center_masks", counting)
        for kinds in (("ins-ball",), ("del-ball",), ("ins-ball", "ins-int"), ("del-ball", "del-int")):
            expected = [r for r in reference if r.kind in kinds]
            overlap_rows = [
                (r.q, r.b, r.t, r.n, "insertion" if r.kind == "ins-int" else "deletion")
                for r in expected
                if r.kind in ("ins-int", "del-int") and r.match != "skip"
            ]
            for jobs in (1, 2):
                built.clear()
                assert self.table_rows(jobs, only=kinds) == expected, (kinds, jobs)
                if jobs == 1:  # workers count in their own processes
                    assert built == overlap_rows, kinds
            assert overlap_rows or len(kinds) == 1

    # del-extremal and del-int-lb start from the same b-cyclic center
    CYCLIC_GRID = dict(q_values=(2, 3), b_values=(2, 3), t_values=(1, 2), n_values=tuple(range(3, 10)))
    CYCLIC_KINDS = ("del-extremal", "del-int-lb")

    @classmethod
    def cyclic_rows(cls, kinds, jobs=1, cap=10**7):
        config = SweepConfig(**cls.CYCLIC_GRID, kinds=kinds, cap=cap, seed=0, trials=1, jobs=jobs)
        return [dataclasses.replace(r, ms=0.0) for r in run_sweep(config)]

    def test_cyclic_ball_enumerated_once_per_cell(self, monkeypatch):
        # the b-cyclic word's ball is stepped on ranks once per cell, and the
        # flipped word's only for del-int-lb; each build is counted by its
        # center word, and no cyclic row builds a ball of every center
        built = []
        real = burstrecon.cli._stepped_deletion_ranks

        def counting(x, q, b, t, cap):
            built.append((q, b, t, len(x), x))
            return real(x, q, b, t, cap)

        def every_center(*args):
            raise AssertionError("a cyclic row built every center's ball")

        monkeypatch.setattr(burstrecon.cli, "_stepped_deletion_ranks", counting)
        monkeypatch.setattr(burstrecon.cli, "_rank_balls", every_center)
        shared = 0
        for kinds in (self.CYCLIC_KINDS, ("del-int-lb",)):
            built.clear()
            rows = self.cyclic_rows(kinds)
            expected = []
            for (q, b, t, n), cell in groupby(rows, key=lambda r: (r.q, r.b, r.t, r.n)):
                ran = {r.kind for r in cell if r.match != "skip"}
                shared += len(ran) == 2
                center = bytes(i // b % q for i in range(n))
                flipped = center[: b - 1] + b"\x01" + center[b:]
                expected += [(q, b, t, n, center)] * bool(ran)
                expected += [(q, b, t, n, flipped)] * ("del-int-lb" in ran)
            assert built == expected, kinds
            assert {r.match for r in rows} == {"true", "skip"}, kinds
        assert shared > 0

    @pytest.mark.parametrize("cap", [10**7, 10])
    def test_cyclic_rows_match_each_kind_alone(self, cap):
        # the second row of a cell reads the shared ball, or refuses as the
        # first did when the ball is over the cap
        alone = sorted(
            (row for kind in self.CYCLIC_KINDS for row in self.cyclic_rows((kind,), cap=cap)),
            key=lambda r: (r.q, r.b, r.t, r.n, VERIFY_KINDS.index(r.kind)),
        )
        for jobs in (1, 2):
            assert self.cyclic_rows(self.CYCLIC_KINDS, jobs, cap) == alone, jobs
        assert {r.match for r in alone} == {"true", "skip"}
        refusals = [
            [r.oracle for r in cell]
            for _, cell in groupby(alone, key=lambda r: (r.q, r.b, r.t, r.n))
        ]
        refused_twice = [
            oracles for oracles in refusals
            if len(oracles) == 2 and oracles[0] == oracles[1] and "enumeration needs" in oracles[0]
        ]
        assert len(refused_twice) == (4 if cap == 10 else 0)

    def test_extremal_row_reads_the_old_center(self):
        # the center moved from y_sequence(n, q, b, 0, 0) to its image under
        # s -> s-1; a symbol permutation keeps the ball size
        rows = self.cyclic_rows(("del-extremal",))
        for r in rows:
            if r.match != "skip":
                old_center = y_sequence(r.n, r.q, r.b, 0, 0)
                assert r.oracle == str(len(enumerate_deletion_ball(old_center, r.t, r.b))), r
        assert any(r.match == "true" for r in rows)

    def test_parallel_jobs_match_sequential(self):
        # every kind crosses the process boundary as a plain tuple
        def sweep(jobs):
            return run_sweep(
                SweepConfig(
                    q_values=(2,), b_values=(1, 2), t_values=(1,), n_values=(2, 3, 4),
                    kinds=VERIFY_KINDS, cap=10**7, seed=3, trials=2, jobs=jobs,
                )
            )

        strip_ms = lambda rows: [
            (r.q, r.b, r.t, r.n, r.kind, r.formula, r.oracle, r.match) for r in rows
        ]
        sequential = strip_ms(sweep(1))
        assert {row[4] for row in sequential if row[7] == "true"} == set(VERIFY_KINDS)
        assert sequential == strip_ms(sweep(3))

    def test_roundtrip_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "4:5",
            "--kinds", "roundtrip-ins,roundtrip-del", "--trials", "3", "--seed", "1",
        )
        assert code == EXIT_OK
        rows = rows_of(out)
        done = [r for r in rows if r.match != "skip"]
        assert done and all(r.formula == r.oracle == "3" for r in done)

    def test_roundtrip_del_centers_are_those_del_ball_size_admits(self, monkeypatch):
        # every roundtrip-del cell of the default grid and of the benchmark's
        # verify calls (b 2,3 x t 1,2 x n up to 10), with the table that a
        # del-int row of the cell stores and without it
        drawn = []
        monkeypatch.setattr(burstrecon.cli, "_recovered", lambda center, *_: drawn.append(center) or True)

        class EachIndex:
            """An rng whose draws are 0, 1, 2, ..., recording each range asked for."""

            def __init__(self):
                self.ranges = []

            def randrange(self, size):
                self.ranges.append(size)
                return len(self.ranges) - 1

        cells = 0
        for b, t, n in product((2, 3), (1, 2), range(1, 11)):
            if n < b * (t + 1) - 1:
                continue
            need = del_intersection_max_binary(b, n, t) + 1
            expected = [x for x in all_words(2, n) if del_ball_size(x, t, b) >= need]
            for tables in ({}, {"deletion": _center_masks(n, 2, b, t, "deletion", 10**7)}):
                drawn.clear()
                rng = EachIndex()
                if not expected:
                    with pytest.raises(burstrecon.cli._Skip):
                        _roundtrip_del_trials(2, b, t, n, 10**7, 1, rng, tables)
                    continue
                trials = _roundtrip_del_trials(2, b, t, n, 10**7, len(expected), rng, tables)
                assert trials == len(expected)
                assert drawn == expected, (b, t, n, sorted(tables))
                assert rng.ranges == [len(expected)] * len(expected)
                cells += 1
        assert cells > 30

    def test_roundtrip_rows_draw_one_stream_per_key(self, monkeypatch):
        # (2, 1, 1, 4097) and (2, 1, 2, 1) once packed into the same seed index
        first = {}

        def oracle(q, b, t, n, cap, trials, rng, tables):
            first[(q, b, t, n)] = rng.random()
            return trials

        monkeypatch.setitem(burstrecon.cli.CHECKS, "roundtrip-ins", burstrecon.cli.Check(oracle=oracle))
        for q, b, t, n in ((2, 1, 1, 4097), (2, 1, 2, 1)):
            (row,) = run_sweep(
                SweepConfig(
                    q_values=(q,), b_values=(b,), t_values=(t,), n_values=(n,),
                    kinds=("roundtrip-ins",), cap=10**7, seed=0, trials=1, jobs=1,
                )
            )
            assert row.match == "true"
        assert first[(2, 1, 1, 4097)] != first[(2, 1, 2, 1)]


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        args = ("simulate", "-x", "01100", "--del", "-b", "2", "-t", "1", "-N", "3", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        words = [ln for ln in out1.splitlines() if not ln.startswith("#")]
        assert len(set(words)) == 3
        assert set(words) <= {"100", "000", "010", "011"}

    # seeded output pinned byte for byte: a sampler change that alters it must
    # also change RNG_ALGORITHM
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                "-x 01100 --del -b 2 -t 1 -N 3 --seed 7",
                "# rng mt19937/unrank-v1 seed 7\n010\n# del 3\n011\n# del 4\n100\n# del 1\n",
            ),
            (
                "-x 0110 --ins -q 2 -b 2 -t 1 -N 9 --seed 11",
                "# rng mt19937/unrank-v1 seed 11\n"
                "011011\n# ins 5 11\n100110\n# ins 1 10\n110110\n# ins 1 11\n"
                "000110\n# ins 2 00\n001110\n# ins 2 01\n011010\n# ins 5 10\n"
                "010010\n# ins 3 00\n011100\n# ins 4 10\n011110\n# ins 4 11\n",
            ),
        ],
        ids=["readme-del", "readme-ins"],
    )
    def test_readme_examples_golden(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "simulate", *argv.split())
        assert code == EXIT_OK
        assert out == expected

    # stdout of one large insertion pipe, pinned by its sha256: a change to the
    # text layer or to how simulate writes must keep every byte
    def test_large_pipe_bytes_pinned(self, capsys, tmp_path):
        thue_morse = "".join(str(bin(i).count("1") % 2) for i in range(400))
        code, out, err = run_cli(
            capsys, "simulate", "-x", thue_morse, "--ins", "-q", "2", "-b", "2", "-t", "2",
            "-N", "3217", "--seed", "11",
        )
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8142e843c29de46ac998a5171ba7f0fb07b4ec2cb9709ff9fcf6a905a3700dec"
        )
        path = tmp_path / "outputs.txt"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "reconstruct", "--ins", "--file", str(path),
            "-n", "400", "-q", "2", "-b", "2", "-t", "2",
        )
        assert code == EXIT_OK
        assert out == thue_morse + "\n"

    def test_invalid_cap_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "-x", "0110", "--ins", "-b", "2", "-t", "1", "-N", "2", "--cap", "abc"])
        captured = capsys.readouterr()
        assert info.value.code == EXIT_PRECONDITION
        assert captured.out == ""
        assert "argument --cap: invalid int value: 'abc'" in captured.err

    def test_ball_too_small_passthrough(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "-x", "0101", "--del", "-b", "2", "-t", "1", "-N", "2")
        assert code == EXIT_PRECONDITION
        assert "ball size 1" in err

    def test_trace_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-x", "010", "--ins", "-q", "2", "-b", "2", "-t", "1",
            "-N", "2", "--seed", "3",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# rng mt19937/unrank-v1 seed 3")
        trace_lines = [ln for ln in lines if ln.startswith("# ins")]
        assert len(trace_lines) == 2

    def test_json_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-x", "010", "--ins", "-q", "2", "-b", "2", "-t", "1",
            "-N", "2", "--seed", "3", "--as-json",
        )
        payload = json.loads(out)
        assert payload["rng"] == "mt19937/unrank-v1"
        assert len(payload["outputs"]) == 2
        assert all(o["events"] for o in payload["outputs"])

    def test_count_above_cap_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "-x", "0101", "--ins", "-b", "1", "-t", "1", "-N", "6", "--cap", "5"
        )
        assert code == EXIT_CAP
        assert out == ""
        assert "error[cap-exceeded]: enumeration needs 6 words, cap is 5" in err

    def test_cap_exceeded_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "-x", "011010", "--del", "-b", "2", "-t", "1", "-N", "3", "--cap", "2"
        )
        assert code == EXIT_CAP
        assert "cap" in err


class TestReconstructCommand:
    def test_round_trip_pipe_insertion(self, tmp_path):
        sim = subprocess.run(
            [sys.executable, "-m", "burstrecon", "simulate", "-x", "0110", "--ins",
             "-q", "2", "-b", "2", "-t", "1", "-N", "9", "--seed", "11"],
            capture_output=True, text=True, check=True,
        )
        rec = subprocess.run(
            [sys.executable, "-m", "burstrecon", "reconstruct", "--ins",
             "-n", "4", "-q", "2", "-b", "2", "-t", "1"],
            input=sim.stdout, capture_output=True, text=True,
        )
        assert rec.returncode == EXIT_OK
        assert rec.stdout.strip() == "0110"

    def test_round_trip_pipe_deletion(self):
        sim = subprocess.run(
            [sys.executable, "-m", "burstrecon", "simulate", "-x", "01100110", "--del",
             "-b", "2", "-t", "1", "-N", "4", "--seed", "5"],
            capture_output=True, text=True, check=True,
        )
        rec = subprocess.run(
            [sys.executable, "-m", "burstrecon", "reconstruct", "--del",
             "-n", "8", "-b", "2", "-t", "1"],
            input=sim.stdout, capture_output=True, text=True,
        )
        assert rec.returncode == EXIT_OK
        assert rec.stdout.strip() == "01100110"

    def test_below_threshold_named_error(self, capsys, tmp_path):
        # the exact two-center overlap: one output short of decodability
        path = tmp_path / "outputs.txt"
        path.write_text("100\n110\n001\n011\n")
        code, _, err = run_cli(
            capsys, "reconstruct", "--ins", "--file", str(path),
            "-n", "1", "-q", "2", "-b", "2", "-t", "1",
        )
        assert code == EXIT_PRECONDITION
        assert "BelowThreshold" in err

    def test_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "outputs.txt"
        path.write_text("100\n000\n010\n# a comment\n\n")
        code, out, err = run_cli(
            capsys, "reconstruct", "--del", "--file", str(path),
            "-n", "5", "-b", "2", "-t", "1", "--diagnostics",
        )
        assert code == EXIT_OK
        assert out.strip() == "01100"
        assert "step pos=1" in err

    def test_diagnostics_phase2_line(self, capsys, tmp_path):
        # one '# phase2' line on stderr for a deletion decode; stdout unchanged
        path = tmp_path / "outputs.txt"
        path.write_text("100\n000\n010\n")
        base = ("reconstruct", "--del", "--file", str(path), "-n", "5", "-b", "2", "-t", "1")
        for extra in ((), ("--as-json",)):
            _, plain, quiet = run_cli(capsys, *base, *extra)
            code, out, err = run_cli(capsys, *base, *extra, "--diagnostics")
            assert code == EXIT_OK and out == plain and quiet == ""
            assert [ln for ln in err.splitlines() if ln.startswith("# phase2")] == [
                "# phase2 tried=2 of 2"
            ]
        _, _, err = run_cli(
            capsys, "reconstruct", "--ins", "--file", str(path),
            "-n", "1", "-q", "2", "-b", "2", "-t", "1", "--diagnostics",
        )
        assert "phase2" not in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "outputs.txt"
        path.write_text("100\n000\n010\n")
        code, out, _ = run_cli(
            capsys, "reconstruct", "--del", "--file", str(path),
            "-n", "5", "-b", "2", "-t", "1", "--as-json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["word"] == "01100"
        assert payload["steps"]

    def test_phase2_above_cap_refused(self, capsys, tmp_path):
        # 2**(t*(b-1)) = 2**24 phase-2 candidates exceed the default cap
        path = tmp_path / "outputs.txt"
        path.write_text("0" * 14 + "\n")
        code, out, err = run_cli(
            capsys, "reconstruct", "--del", "--file", str(path),
            "-n", "40", "-b", "13", "-t", "2",
        )
        assert code == EXIT_CAP
        assert out == ""
        assert err == "error[cap-exceeded]: enumeration needs 16777216 words, cap is 10000000\n"

    def test_non_ascii_digits_rejected(self, capsys, tmp_path):
        path = tmp_path / "outputs.txt"
        path.write_text("\uff11\uff10\uff10\n100\n110\n001\n011\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "reconstruct", "--ins", "--file", str(path),
            "-n", "1", "-q", "2", "-b", "2", "-t", "1",
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("error[precondition]: expected a digit string for alphabet of size 2")

    def test_nonbinary_deletion_rejected(self, capsys, tmp_path):
        path = tmp_path / "outputs.txt"
        path.write_text("012\n")
        code, _, err = run_cli(
            capsys, "reconstruct", "--del", "--file", str(path),
            "-n", "5", "-q", "3", "-b", "2", "-t", "1",
        )
        assert code == EXIT_PRECONDITION
        assert "q = 2" in err


class TestStreamedText:
    """reconstruct keeps only the distinct outputs it reads, and simulate writes
    one batch of outputs at a time, so neither holds its whole text."""

    THUE_MORSE = "".join(str(bin(i).count("1") % 2) for i in range(200))
    SIMULATE = (
        "simulate", "--ins", "-q", "2", "-b", "2", "-t", "2", "-x", THUE_MORSE,
        "-N", "2000", "--seed", "3",
    )

    @staticmethod
    def peak(*argv):
        """Peak traced memory of one ``main`` call, with stdout discarded."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(list(argv))
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    @pytest.fixture
    def outputs_file(self, capsys, tmp_path):
        """simulate's plain form: each output followed by its two event comment lines."""
        code, out, _ = run_cli(capsys, *self.SIMULATE)
        assert code == EXIT_OK
        path = tmp_path / "outputs.txt"
        path.write_text(out)
        return path, out

    def test_reconstruct_holds_the_distinct_words(self, outputs_file):
        path, text = outputs_file
        words = {bytes(map(int, ln)) for ln in text.splitlines() if not ln.startswith("#")}
        code, peak = self.peak(
            "reconstruct", "--ins", "--file", str(path), "-n", "200", "-q", "2", "-b", "2", "-t", "2"
        )
        assert code == EXIT_OK
        # holding every line as well, as a line list does, reads about 3x
        assert peak < 2 * sum(map(sys.getsizeof, words))

    def test_simulate_json_peaks_as_the_plain_form(self):
        # the first call in a process also allocates what later calls reuse,
        # so one warm-up call lets the bound compare two warm peaks
        self.peak(*self.SIMULATE)
        code, plain = self.peak(*self.SIMULATE)
        assert code == EXIT_OK
        code, as_json = self.peak(*self.SIMULATE, "--as-json")
        assert code == EXIT_OK
        assert as_json < 1.5 * plain

    def test_simulate_holds_one_batch_of_text(self, capsys):
        # the first call in a process also allocates what later calls reuse
        code, text, _ = run_cli(capsys, *self.SIMULATE)
        assert code == EXIT_OK
        x = bytes(map(int, self.THUE_MORSE))
        tracemalloc.start()
        try:
            burstrecon.sample_distinct_outputs(x, 2, 2, 2, "insertion", 2000, 3)
            sample = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        code, plain = self.peak(*self.SIMULATE)
        assert code == EXIT_OK
        # one batch of 256 outputs adds about a ninth of the text to the sample
        # (46 of 460 KB); joining the whole text adds all of it
        assert plain < sample + len(text) / 4

    def test_parses_the_lines_in_bounded_batches(self, outputs_file, capsys, monkeypatch):
        path, text = outputs_file
        batches, parse_word_calls = [], []
        parse_words = burstrecon.cli._parse_words
        monkeypatch.setattr(
            burstrecon.cli, "_parse_words", lambda texts, q: batches.append(texts) or parse_words(texts, q)
        )
        parse_word = burstrecon.sequences.parse_word
        monkeypatch.setattr(
            burstrecon.sequences, "parse_word",
            lambda line, q: parse_word_calls.append(line) or parse_word(line, q),
        )
        code, out, _ = run_cli(
            capsys, "reconstruct", "--ins", "--file", str(path),
            "-n", "200", "-q", "2", "-b", "2", "-t", "2",
        )
        assert (code, out) == (EXIT_OK, self.THUE_MORSE + "\n")
        assert [line for batch in batches for line in batch] == [
            ln for ln in text.splitlines() if not ln.startswith("#")
        ]
        assert len(batches) > 1
        assert max(map(len, batches)) <= burstrecon.cli._TEXT_BATCH
        # no line is faulty, so no batch is parsed line by line
        assert parse_word_calls == []


# the refusal table in main, row by row: each refusal's exact stderr line and
# exit code, and nothing on stdout
@pytest.mark.parametrize(
    "argv, file_text, code, err",
    [
        (
            "simulate -x 0101 --del -b 2 -t 1 -N 2",
            None, EXIT_PRECONDITION, "error[ball-too-small]: ball size 1",
        ),
        (
            "simulate -x 0101 --ins -b 1 -t 1 -N 6 --cap 5",
            None, EXIT_CAP, "error[cap-exceeded]: enumeration needs 6 words, cap is 5",
        ),
        (
            "reconstruct --del --file {file} -n 40 -b 13 -t 2",
            "0" * 14 + "\n", EXIT_CAP,
            "error[cap-exceeded]: enumeration needs 16777216 words, cap is 10000000",
        ),
        (
            "reconstruct --ins --file {file} -n 1 -q 2 -b 2 -t 1",
            "100\n110\n001\n011\n", EXIT_PRECONDITION,
            "error[BelowThreshold]: 4 outputs given, need at least 5",
        ),
        (
            "reconstruct --ins --file {file} -n 1 -q 2 -b 2 -t 1",
            None, EXIT_PRECONDITION,
            "error[precondition]: [Errno 2] No such file or directory: '{file}'",
        ),
        (
            "count del-int -q 3 -b 2 -n 7 -t 2",
            None, EXIT_PRECONDITION,
            "error[precondition]: exact deletion overlap is known only for q = 2; "
            "use 'del-int-lb' for the general-q lower bound",
        ),
        (
            "reconstruct --del --file {file} -n 5 -q 3 -b 2 -t 1",
            "012\n", EXIT_PRECONDITION,
            "error[precondition]: deletion reconstruction is defined for q = 2 only",
        ),
        (
            "reconstruct --ins --file {file} -n 1 -q 2 -b 2 -t 1",
            "1a0\n100\n", EXIT_PRECONDITION,
            "error[precondition]: expected a digit string for alphabet of size 2: '1a0'",
        ),
        (
            # a parse fault before an undecodable byte past the first read chunk:
            # the line is read, and refused, before the byte is decoded
            "reconstruct --ins --file {file} -n 1 -q 2 -b 2 -t 1",
            b"1a0\n" + b"100\n" * 5000 + b"\xff", EXIT_PRECONDITION,
            "error[precondition]: expected a digit string for alphabet of size 2: '1a0'",
        ),
        (
            # a parse fault, then an undecodable byte two read chunks later but
            # within the same 256-line batch: the lines read are parsed first
            "reconstruct --ins --file {file} -n 1 -q 2 -b 2 -t 1",
            b"1a0\n" + (b"1" * 100 + b"\n") * 200 + b"\xff", EXIT_PRECONDITION,
            "error[precondition]: expected a digit string for alphabet of size 2: '1a0'",
        ),
        (
            # both faults in the first read chunk: the chunk fails to decode
            "reconstruct --ins --file {file} -n 1 -q 2 -b 2 -t 1",
            b"1a0\n\xff\n", EXIT_PRECONDITION,
            "error[precondition]: 'utf-8' codec can't decode byte 0xff in position 4: "
            "invalid start byte",
        ),
        (
            "verify --q 2 --b 2 --t 1 --n 4 --trials 0",
            None, EXIT_PRECONDITION, "error[precondition]: trials must be at least 1, got 0",
        ),
        (
            "verify --q 2 --b 2 --t 1 --n 2:3 --kinds ins-ball,ins-int,del-ball --cap -1",
            None, EXIT_PRECONDITION, "error[precondition]: cap must be at least 1, got -1",
        ),
        (
            "verify --q 2 --b 2 --t 1 --n 4 --cap 0",
            None, EXIT_PRECONDITION, "error[precondition]: cap must be at least 1, got 0",
        ),
        (
            "simulate -x 0110 --ins -b 2 -t 1 -N 3 --cap 0",
            None, EXIT_PRECONDITION, "error[precondition]: cap must be at least 1, got 0",
        ),
        (
            "simulate -x 0110 --ins -b 2 -t 1 -N 3 --seed -7",
            None, EXIT_PRECONDITION, "error[precondition]: seed must be nonnegative, got -7",
        ),
        (
            "count del-ball -q 2 -b 2 -t -1 -n 5",
            None, EXIT_PRECONDITION, "error[precondition]: radius must be nonnegative, got -1",
        ),
        (
            "count del-ball -q 2 -b 2 -t 1 -n -3",
            None, EXIT_PRECONDITION, "error[precondition]: word length must be nonnegative, got -3",
        ),
    ],
    ids=[
        "ball-too-small", "simulate-cap", "phase2-cap", "below-threshold", "missing-file",
        "del-int-q3", "reconstruct-del-q3", "non-digit-word", "non-digit-before-bad-byte",
        "non-digit-before-bad-byte-in-one-batch", "bad-byte-in-first-chunk", "trials-zero",
        "verify-cap-negative", "verify-cap-zero", "simulate-cap-zero", "simulate-seed-negative",
        "count-del-ball-t-negative", "count-del-ball-n-negative",
    ],
)
def test_refusal_table(capsys, tmp_path, argv, file_text, code, err):
    path = tmp_path / "outputs.txt"
    if isinstance(file_text, bytes):
        path.write_bytes(file_text)
    elif file_text is not None:
        path.write_text(file_text)
    got_code, out, got_err = run_cli(capsys, *argv.format(file=path).split())
    assert (got_code, out, got_err) == (code, "", err.format(file=path) + "\n")

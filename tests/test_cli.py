"""Command line behavior: outputs, exit codes, determinism, round trips."""

import json
import subprocess
import sys

import pytest

import burstrecon.cli
from burstrecon import AmbiguousSymbol
from burstrecon.cli import (
    EXIT_CAP,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    VERIFY_KINDS,
    ResultRow,
    SweepConfig,
    main,
    rows_from_csv,
    rows_to_csv,
    run_sweep,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        rows = rows_from_csv(out)
        assert rows and all(r.match in ("true", "skip") for r in rows)
        spot = [r for r in rows if r.kind == "del-int" and r.n == 3]
        assert spot and spot[0].formula == "2"  # overlap max at n = 2b-1 is b

    def test_corrupted_formula_detected(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "2:3",
            "--kinds", "ins-ball", "--corrupt", "ins-ball",
        )
        assert code == EXIT_MISMATCH
        rows = rows_from_csv(out)
        assert all(r.match == "false" for r in rows)

    def test_csv_round_trip(self):
        config = SweepConfig(
            q_values=(2,), b_values=(2,), t_values=(1, 2), n_values=(3, 4),
            kinds=("ins-ball", "del-int", "sphere", "del-int-lb"),
            cap=10**7, seed=0, trials=2, fmt="csv", jobs=1,
        )
        rows = run_sweep(config)
        assert rows_from_csv(rows_to_csv(rows)) == rows

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
        rows = rows_from_csv(out)
        assert rows[0].match == "skip"
        assert "q = 2" in rows[0].oracle

    def test_rows_ordered_by_parameter_tuple(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--q", "2:3", "--b", "1:2", "--t", "1", "--n", "1:2", "--kinds", "sphere")
        rows = rows_from_csv(out)
        keys = [(r.q, r.b, r.t, r.n) for r in rows]
        assert keys == sorted(keys)

    def test_unknown_kind_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--kinds", "no-such-kind")
        assert code == EXIT_PRECONDITION
        assert "unknown" in err

    @pytest.mark.parametrize(
        "option, message",
        [
            ("--q=1:2", "q must be in [2, 255], got 1"),
            ("--q=255:256", "q must be in [2, 255], got 256"),
            ("--b=0", "b must be at least 1, got 0"),
            ("--t=-1:1", "t must be at least 0, got -1"),
            ("--n=-1", "n must be at least 0, got -1"),
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

    def test_decoder_refusal_is_a_failed_trial(self, capsys, monkeypatch):
        def refuse(*args):
            raise AmbiguousSymbol("simulated refusal")

        monkeypatch.setattr(burstrecon.cli, "reconstruct_from_insertions", refuse)
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--b", "2", "--t", "1", "--n", "3:4",
            "--kinds", "roundtrip-ins", "--trials", "2",
        )
        assert code == EXIT_MISMATCH
        rows = rows_from_csv(out)
        assert [(r.formula, r.oracle, r.match) for r in rows] == [("2", "0", "false")] * 2

    def test_parallel_jobs_match_sequential(self):
        # every kind crosses the process boundary as a plain tuple
        def sweep(jobs):
            return run_sweep(
                SweepConfig(
                    q_values=(2,), b_values=(1, 2), t_values=(1,), n_values=(2, 3, 4),
                    kinds=VERIFY_KINDS, cap=10**7, seed=3, trials=2, fmt="csv", jobs=jobs,
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
        rows = rows_from_csv(out)
        done = [r for r in rows if r.match != "skip"]
        assert done and all(r.formula == r.oracle == "3" for r in done)


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
        assert lines[0].startswith("# rng mt19937 seed 3")
        trace_lines = [ln for ln in lines if ln.startswith("# ins")]
        assert len(trace_lines) == 2

    def test_json_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-x", "010", "--ins", "-q", "2", "-b", "2", "-t", "1",
            "-N", "2", "--seed", "3", "--as-json",
        )
        payload = json.loads(out)
        assert payload["rng"] == "mt19937"
        assert len(payload["outputs"]) == 2
        assert all(o["events"] for o in payload["outputs"])

    def test_count_above_cap_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "-x", "0101", "--ins", "-b", "1", "-t", "1", "-N", "6", "--cap", "5"
        )
        assert code == EXIT_CAP
        assert out == ""
        assert "error[cap-exceeded]: enumeration needs 6 words, cap is 5" in err

    def test_cap_exceeded_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("BURSTRECON_CAP", "2")
        code, _, err = run_cli(capsys, "simulate", "-x", "011010", "--del", "-b", "2", "-t", "1", "-N", "2")
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

    def test_nonbinary_deletion_rejected(self, capsys, tmp_path):
        path = tmp_path / "outputs.txt"
        path.write_text("012\n")
        code, _, err = run_cli(
            capsys, "reconstruct", "--del", "--file", str(path),
            "-n", "5", "-q", "3", "-b", "2", "-t", "1",
        )
        assert code == EXIT_PRECONDITION
        assert "q = 2" in err

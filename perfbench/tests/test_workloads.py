"""Fast tests of the workloads, the checks and the tracer on tiny inputs."""

import json
import random
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import burstrecon
import burstrecon.cli
import independent as ind
import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def tiny(op, rng):
    """The same operation at a size that runs in milliseconds."""
    if isinstance(op, wl.VerifyCall):
        return replace(op, n=op.n[:1], trials=1)
    if op.channel == "ins":
        n = 4
        return replace(op, n=n, center=bytes(rng.randrange(op.q) for _ in range(n)),
                       need=wl.ins_need(op.q, op.b, op.t, n))
    n = op.b * (op.t + 1) - 1
    while ind.del_ball(2, op.b, n, op.t) < wl.del_need(op.b, op.t, n):
        n += 1
    need = wl.del_need(op.b, op.t, n)
    return replace(op, n=n, need=need, center=wl.eligible_center(rng, op.b, op.t, n, need, "y_sequence"))


def tiny_workload(name, seed=5):
    rng = random.Random(seed)
    full = wl.build(name, seed)
    kinds_seen, ops = set(), []
    for op in full.ops:
        key = (type(op), getattr(op, "channel", None), getattr(op, "t", None), getattr(op, "kinds", None))
        if key not in kinds_seen:
            kinds_seen.add(key)
            ops.append(tiny(op, rng))
    return wl.Workload(name, seed, tuple(ops))


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_round_of_each_workload_passes_every_check(name):
    workload = tiny_workload(name)
    stats = workload.run_round(burstrecon)
    assert stats.failed == 0, stats.problems
    assert stats.attempted >= len(workload.ops)
    assert all(stats.rate(c) > 0 for c in ("ins", "del", "verify"))


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert wl.build("pipe-large", 3) == wl.build("pipe-large", 3)
    assert wl.build("pipe-large", 3) != wl.build("pipe-large", 4)


def test_deletion_centers_hold_threshold_plus_one_words():
    for op in wl.build("pipe-large", 9).ops:
        if isinstance(op, wl.RoundTrip) and op.channel == "del":
            assert ind.deletion_ball_size(op.center, op.t, op.b) >= op.need


def _lib_with(**replacements):
    """The package's namespace with some functions replaced."""
    return types.SimpleNamespace(**{**vars(burstrecon), **replacements})


@pytest.mark.parametrize("via_cli", [False, True])
def test_wrong_decoded_word_is_a_failed_wrong_operation(via_cli, monkeypatch):
    real = burstrecon.reconstruct_from_insertions

    def flipped(*args):
        result = real(*args)
        return replace(result, word=bytes([1 - result.word[0]]) + result.word[1:])

    op = wl.RoundTrip("ins", 2, 2, 1, 5, b"\x00\x01\x01\x00\x01", wl.ins_need(2, 2, 1, 5), 7, via_cli)
    if via_cli:
        monkeypatch.setattr(burstrecon.cli, "reconstruct_from_insertions", flipped)
        lib = burstrecon
    else:
        lib = _lib_with(reconstruct_from_insertions=flipped)
    stats = wl.RoundStats()
    op.run(lib, stats, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (1, 1, 1)
    assert stats.work["ins"][0] == 0
    assert "decoded word differs" in stats.problems[0]


def test_refusal_is_failed_but_not_wrong():
    op = wl.RoundTrip("ins", 2, 2, 1, 5, b"\x00\x01\x01\x00\x01", 3, 7, False)  # below threshold
    stats = wl.RoundStats()
    op.run(burstrecon, stats, 0)
    assert (stats.failed, stats.wrong) == (1, 0)


def test_output_set_checks():
    op = wl.RoundTrip("del", 2, 2, 1, 6, b"\x00\x00\x01\x01\x00\x00", 3, 1, False)
    assert op.check_outputs([b"0011", b"1100", b"0000"]) is not None  # not symbols 0/1
    assert op.check_outputs([b"\x01\x01\x00\x00", b"\x00\x00\x00\x00", b"\x00\x00\x01\x01"]) is None
    assert "distinct" in op.check_outputs([b"\x01\x01\x00\x00"] * 3)
    assert "expected 3" in op.check_outputs([b"\x01\x01\x00\x00"])
    assert "ball" in op.check_outputs([b"\x01\x01\x01\x01", b"\x00\x00\x00\x00", b"\x00\x00\x01\x01"])


def test_verify_row_reading_false_is_a_failed_wrong_operation():
    real_main = burstrecon.cli.main
    corrupting_cli = types.SimpleNamespace(main=lambda argv: real_main(argv + ["--corrupt", "ins-ball"]))
    call = wl.VerifyCall((2,), (2,), (1,), (1, 2), ("ins-ball", "ins-int"))
    stats = wl.RoundStats()
    call.run(_lib_with(cli=corrupting_cli), stats, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (4, 2, 2)
    assert stats.work["verify"][0] == 2
    assert all("reads 'false'" in p for p in stats.problems)


def test_skip_inside_the_domain_is_a_failed_operation(monkeypatch):
    def broken(*args):
        raise ValueError("simulated defect")

    monkeypatch.setattr(burstrecon.cli.comb, "ins_ball_size", broken)
    call = wl.VerifyCall((2,), (2,), (1,), (1, 2), ("ins-ball",))
    stats = wl.RoundStats()
    call.run(burstrecon, stats, 0)
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 2, 0)
    assert all("skip inside the domain" in p for p in stats.problems)


def test_check_row_compares_with_the_benchmarks_own_formula():
    row = {"q": "2", "b": "2", "t": "1", "n": "3", "kind": "ins-ball", "formula": "11",
           "oracle": "11", "match": "true", "ms": "0.1"}
    problem, wrong = wl.check_row(row, 5)
    assert wrong and "benchmark computes 10" in problem
    assert wl.check_row({**row, "formula": "10", "oracle": "10"}, 5) == (None, False)
    outside = {**row, "kind": "del-int", "q": "3", "match": "skip", "formula": "", "oracle": "skipped"}
    assert wl.check_row(outside, 5) == (None, False)


def test_tracer_records_layers_and_restores_the_package():
    original = (burstrecon.cli.main, burstrecon.channel.apply_burst_insertion,
                burstrecon.reconstruct.ins_intersection_max)
    tracer = tracing.Tracer(burstrecon)
    tracer.install()
    try:
        assert burstrecon.cli.main is not original[0]
        tiny_workload("pipe-large").run_round(burstrecon, tracer)
    finally:
        tracer.uninstall()
    assert (burstrecon.cli.main, burstrecon.channel.apply_burst_insertion,
            burstrecon.reconstruct.ins_intersection_max) == original
    metrics = tracer.layer_metrics(1)
    assert set(metrics) == set(tracing.TRACED_TOTALS) | {"channel.draw_yield", "reconstruct.phase2_yield"}
    for name in ("channel.sample_s", "channel.bursts_applied", "reconstruct.ins_s", "reconstruct.del_phase2_s",
                 "sequences.parse_s", "sequences.symbols", "cli.simulate_self_s", "combinatorics.calls"):
        assert metrics[name] > 0, name
    assert 0 < metrics["channel.draw_yield"] <= 1
    names = {record[3] for record in tracer.spans}
    assert {"cli.simulate", "cli.reconstruct", "cli.verify", "channel.sample", "reconstruct.del"} <= names


def test_benchmark_json_matches_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_clock_ticks_and_leaves_out_its_kernel():
    import time

    from speed import SpeedClock

    clock = SpeedClock()
    clock.start()
    try:
        wall, raw, ref = time.perf_counter(), clock.raw(), clock.now()
        while time.perf_counter() - wall < 0.2:
            sum(i * i for i in range(1000))
        wall, raw, ref = time.perf_counter() - wall, clock.raw() - raw, clock.now() - ref
    finally:
        clock.stop()
    assert clock.ticks >= 3
    assert 0 < raw < wall
    assert ref > 0

"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import digests, run, worker
from perfbench.layers import LayerTimers, TimingEvaluator
from perfbench.workloads import REDUCED, WORKLOADS, advise_check, advise_run, advise_setup
from repro.exec import build_evaluator
from repro.platform.presets import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.sim.measure import MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def reduced_runs(tmp_path_factory):
    """Every workload at reduced size, untraced and traced."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            tmp = str(tmp_path_factory.mktemp(f"{workload}{trace}"))
            out[workload, trace] = worker.measure(
                workload, 0, 0.0, bool(trace), tmp, time.monotonic(), sizes=REDUCED
            )
    return out


@pytest.mark.parametrize("family, params", [
    ("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),  # batch backend
    ("tree_allreduce", {"rounds": 1, "elems": 16384}),  # MPI: reference engine
])
def test_timing_evaluator_returns_the_wrapped_measurements(family, params):
    program = build_workload(WorkloadSpec(family, params, seed=3))
    machine = perlmutter_like(noise_seed=3).with_ranks(program.n_ranks)
    space = DesignSpace(program, n_streams=2)
    schedules = next(iter(space.iter_blocks(48))).schedules
    plain = build_evaluator(program, machine, MeasurementConfig())
    timers = LayerTimers()
    proxy = TimingEvaluator(build_evaluator(program, machine, MeasurementConfig()), timers)
    batch = schedules[:20] + schedules[:5]  # the repeats hit the memo
    assert proxy.evaluate_batch(batch) == plain.evaluate_batch(batch)
    assert proxy.evaluate(schedules[30]) == plain.evaluate(schedules[30])
    assert proxy.n_simulations == plain.n_simulations
    backend = proxy.backend
    assert timers.seconds[f"sim.{backend}_s"] > 0
    assert timers.counts["exec.eval_calls"] == 2
    assert timers.counts["exec.schedules"] == 26
    assert timers.counts["exec.memo_hits"] == 5
    assert timers.counts[f"sim.{backend}_schedules"] == 21


def test_steps_are_scaled_by_the_probes_around_them():
    # A step during which the probe read twice the reference wall ran on
    # a host at half speed: it counts half.
    assert worker.at_reference_speed([2.0, 3.0], [1.0, 1.0, 0.5]) == pytest.approx(
        2.0 * 0.5 / 1.0 + 3.0 * 0.5 / 0.75
    )


def test_layer_timers_keep_self_time():
    timers = LayerTimers()
    with timers.span("outer"):
        time.sleep(0.02)
        with timers.span("inner"):
            time.sleep(0.03)
    assert 0.02 <= timers.seconds["outer"] < 0.03
    assert timers.seconds["inner"] >= 0.03
    assert timers.total_s() == pytest.approx(timers.seconds["outer"] + timers.seconds["inner"])


def test_store_digest_flags_a_one_byte_change(tmp_path):
    state = advise_setup(0, REDUCED, str(tmp_path))
    raw, _, _ = worker.timed_steps(advise_run(state), 0.5)
    unit = advise_check(state, raw)
    golden = dict(unit.outputs)
    assert digests.mismatches(unit.outputs, golden) == []
    name = sorted(os.listdir(state.store_root))[0]
    path = os.path.join(state.store_root, name)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    changed = dict(unit.outputs, store=digests.store_digest(state.store_root))
    assert digests.mismatches(changed, golden) == ["store"]


def test_mismatches_counts_each_list_entry():
    golden = {"search": "a", "recommendations": ["ok:1", "ok:2", "ok:3"]}
    got = {"search": "a", "recommendations": ["ok:1", "no-signature-match:-", "ok:3"]}
    assert digests.mismatches(got, golden) == ["recommendations[1]"]
    assert digests.mismatches(got, None) == []
    assert digests.n_checked(got) == 4


def test_reduced_runs_complete_and_check_out(reduced_runs):
    for (workload, trace), result in reduced_runs.items():
        assert result["attempted"] >= (2 if trace else 1), (workload, trace)
        assert result["failed"] == 0, (workload, trace, result["problems"])
        assert result["work_s"] > 0
        if trace:
            assert result["layers"]["bench.coverage"] >= worker.MIN_COVERAGE


def test_emitted_names_are_declared(reduced_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for (workload, trace), result in reduced_runs.items():
        line = run.result_line(trace, result, [result["setup_s"]])
        declared = bench["per_layer"] if trace else bench["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in declared]
        assert all(NAME.fullmatch(n) for n in line["metrics"])
        assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_traced_sweep_matches_the_sharded_digests(reduced_runs):
    result = reduced_runs["sweep", 1]
    assert result["outputs"] == reduced_runs["sweep", 0]["outputs"]
    assert result["layers"]["exec.schedules_per_call"] > 1
    assert 0 < result["layers"]["orchestrate.parallel_efficiency"]


def test_mcts_calls_the_evaluator_once_per_schedule(reduced_runs):
    layers = reduced_runs["mcts", 1]["layers"]
    assert layers["exec.schedules_per_call"] == 1.0
    assert layers["ml.fit_s"] == 0.0 and layers["sim.reference_s"] == 0.0
    assert layers["search.policy_s"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcts", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

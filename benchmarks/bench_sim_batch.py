"""Compiled batch replay vs the reference discrete-event engine.

Pins the batch backend's headline claim: compiling the ``(program,
machine, MeasurementConfig)`` context once and replaying schedule blocks
as numpy array sweeps is at least ``3x`` faster than interpreting each
schedule on the reference engine — with **bit-identical** measurements
and identical ``n_simulations`` accounting.  The sweep reuses the
branch-and-bound bench's 39.5M-leaf space (layered_random 4x3) and takes
its first six-figure enumeration slice (smoke mode: a 3k slice of the
same space so nightly CI still exercises the exact code path).

Two MPI benches replay the whole spmv and halo3d spaces, where ranks
advance together and NIC channels serialize transfers, and pin at least
``10x`` over the reference engine at bit-identical results (noisy, so no
row is flagged for the reference engine).

A separate bench pins the one-off compile cost — the price paid per
process, amortized over every block the evaluator replays.
"""

import time

import pytest

from benchmarks.conftest import SMOKE
from repro.platform import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.sim.batch import compile_context
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

MEASUREMENT = MeasurementConfig(max_samples=1)
SPEC = WorkloadSpec("layered_random", {"layers": 4, "width": 3, "edge_p": 0.5})
N_SCHEDULES = 3_000 if SMOKE else 100_000
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="session")
def context():
    program = build_workload(SPEC)
    machine = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    return program, machine


@pytest.fixture(scope="session")
def schedules(context):
    """First ``N_SCHEDULES`` of the space's enumeration order."""
    program, _ = context
    space = DesignSpace(program, n_streams=2)
    out = [
        s
        for block in space.iter_blocks(
            1024, cursor=space.seek(0), limit=N_SCHEDULES
        )
        for s in block.schedules
    ]
    assert len(out) == N_SCHEDULES
    return out


@pytest.fixture(scope="session")
def reference_sweep(context, schedules):
    """Reference-engine sweep: results plus wall seconds."""
    program, machine = context
    bench = Benchmarker(ScheduleExecutor(program, machine), MEASUREMENT)
    t0 = time.perf_counter()
    results = [bench.measure(s) for s in schedules]
    wall = time.perf_counter() - t0
    return results, bench.n_simulations, wall


def test_bench_sim_batch_replay(benchmark, context, schedules, reference_sweep):
    """Batch replay of the whole slice: bit-identical, >= 3x faster."""
    program, machine = context
    ctx = compile_context(program, machine, MEASUREMENT)
    assert ctx.ok, ctx.reason
    walls = []

    def run():
        bench = Benchmarker(ScheduleExecutor(program, machine), MEASUREMENT)
        t0 = time.perf_counter()
        results, n_replayed, n_fallbacks = ctx.measure_into(bench, schedules)
        walls.append(time.perf_counter() - t0)
        assert (n_replayed, n_fallbacks) == (len(schedules), 0)
        return results, bench.n_simulations

    (results, n_sims) = benchmark.pedantic(run, rounds=2, iterations=1)
    ref_results, ref_sims, ref_wall = reference_sweep
    assert results == ref_results  # bit-identical, float for float
    assert n_sims == ref_sims
    speedup = ref_wall / min(walls)
    benchmark.extra_info["n_schedules"] = len(schedules)
    benchmark.extra_info["reference_wall_s"] = ref_wall
    benchmark.extra_info["speedup_vs_reference"] = speedup
    assert speedup >= MIN_SPEEDUP, (
        f"batch replay only {speedup:.2f}x faster than reference "
        f"(pinned floor {MIN_SPEEDUP}x)"
    )


MPI_SPECS = (
    WorkloadSpec("spmv", {"scale": 0.025}),
    WorkloadSpec(
        "halo3d",
        {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
    ),
)
MPI_MEASUREMENT = MeasurementConfig(max_samples=2)
MIN_MPI_SPEEDUP = 10.0


@pytest.mark.parametrize("spec", MPI_SPECS, ids=lambda s: s.family)
def test_bench_sim_batch_mpi(benchmark, spec):
    """Whole MPI space replayed: bit-identical, >= 10x faster."""
    program = build_workload(spec)
    machine = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    schedules = list(DesignSpace(program, n_streams=2).enumerate_schedules())
    ref_bench = Benchmarker(ScheduleExecutor(program, machine), MPI_MEASUREMENT)
    t0 = time.perf_counter()
    ref_results = [ref_bench.measure(s) for s in schedules]
    ref_wall = time.perf_counter() - t0
    ctx = compile_context(program, machine, MPI_MEASUREMENT)
    assert ctx.ok, ctx.reason
    walls = []

    def run():
        bench = Benchmarker(ScheduleExecutor(program, machine), MPI_MEASUREMENT)
        t0 = time.perf_counter()
        results, n_replayed, n_fallbacks = ctx.measure_into(bench, schedules)
        walls.append(time.perf_counter() - t0)
        assert (n_replayed, n_fallbacks) == (len(schedules), 0)
        return results, bench.n_simulations

    results, n_sims = benchmark.pedantic(run, rounds=2, iterations=1)
    assert results == ref_results  # bit-identical, float for float
    assert n_sims == ref_bench.n_simulations
    speedup = ref_wall / min(walls)
    benchmark.extra_info["n_schedules"] = len(schedules)
    benchmark.extra_info["reference_wall_s"] = ref_wall
    benchmark.extra_info["speedup_vs_reference"] = speedup
    assert speedup >= MIN_MPI_SPEEDUP, (
        f"{spec.family}: batch replay only {speedup:.2f}x faster than "
        f"reference (pinned floor {MIN_MPI_SPEEDUP}x)"
    )


def test_bench_sim_compile(benchmark, context):
    """One-off compile cost (paid once per process, then amortized)."""
    program, machine = context

    def run():
        return compile_context(program, machine, MEASUREMENT)

    ctx = benchmark.pedantic(run, rounds=3, iterations=1)
    assert ctx.ok
    benchmark.extra_info["n_vertices"] = len(
        tuple(program.schedulable_vertices())
    )
    benchmark.extra_info["n_ranks"] = machine.n_ranks

"""Differential tests for the compiled batch simulation backend.

The contract under test (:mod:`repro.sim.batch`): replayed measurements
are **bit-identical** to the reference discrete-event engine — not close,
equal — for every registered workload family, MPI programs included,
with and without noise, and anything the compiled context cannot replay
falls back to the reference engine transparently (counted in
``sim.fallbacks``).
"""

import numpy as np
import pytest

from repro import obs
from repro.dag.vertex import START, OpKind, Vertex, gpu_op
from repro.exec import SerialEvaluator, build_evaluator
from repro.platform import noiseless, perlmutter_like
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.sim.batch import CompiledContext, compile_context, resolve_backend
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.workloads import build_workload, builtin_suites

#: Every registered workload family, at CI-fast sizes.
SMOKE_SPECS = builtin_suites()["smoke"].specs
#: Families whose programs carry MPI actions.  Noiseless, their SPMD
#: ranks can reach a NIC channel at the same instant, so replay may flag
#: rows for the reference engine.
MPI_FAMILIES = {"spmv", "halo3d", "tree_allreduce"}

N_SCHEDULES = 20


def _machines():
    return (
        ("noiseless", noiseless(perlmutter_like())),
        ("noisy", perlmutter_like(noise_sigma=0.01)),
    )


def _random_schedules(program, n, seed=7, n_streams=2):
    space = DesignSpace(program, n_streams=n_streams)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        s = space.random_schedule(rng)
        if s is not None:
            out.append(s)
    return out


def _reference(program, machine, cfg, schedules):
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    return [bench.measure(s) for s in schedules]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SMOKE_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("noise", ["noiseless", "noisy"])
def test_bit_identical_to_reference_every_family(spec, noise):
    """Replay == reference, float for float, across all families."""
    program = build_workload(spec)
    machine = dict(_machines())[noise].with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=3)
    ctx = CompiledContext(program, machine, cfg)
    assert ctx.ok, ctx.reason
    schedules = _random_schedules(program, N_SCHEDULES)
    assert all(ctx.supports(s) for s in schedules)
    ref = _reference(program, machine, cfg, schedules)
    got = ctx.measure_block(schedules)
    if spec.family not in MPI_FAMILIES or noise == "noisy":
        assert None not in got
    assert any(a is not None for a in got)
    for a, b in zip(got, ref):
        if a is not None:  # None: flagged for the reference engine
            assert a == b  # bit-identical: time, n_samples, per_rank_time


def test_bit_identical_under_adaptive_sampling():
    """The target-time break conditions fire identically to reference."""
    spec = next(s for s in SMOKE_SPECS if s.family == "wavefront")
    program = build_workload(spec)
    machine = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    # A target small enough that some schedules stop before max_samples.
    cfg = MeasurementConfig(target_time_s=1e-5, min_samples=2, max_samples=6)
    ctx = CompiledContext(program, machine, cfg)
    assert ctx.ok
    schedules = _random_schedules(program, N_SCHEDULES)
    ref = _reference(program, machine, cfg, schedules)
    got = ctx.measure_block(schedules)
    assert {m.n_samples for m in ref} != {cfg.max_samples}
    for a, b in zip(got, ref):
        assert a == b


def test_measure_into_counts_and_seeds_memo():
    spec = next(s for s in SMOKE_SPECS if s.family == "fork_join")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=2)
    ctx = CompiledContext(program, machine, cfg)
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    schedules = _random_schedules(program, 8)
    # Duplicate the batch: dedup must replay each unique schedule once.
    results, n_replayed, n_fallbacks = ctx.measure_into(
        bench, schedules + schedules, backend="batch"
    )
    unique = len({s.fingerprint() for s in schedules})
    assert n_replayed == unique and n_fallbacks == 0
    assert len(results) == 2 * len(schedules)
    assert results[: len(schedules)] == results[len(schedules) :]
    # n_simulations accounting matches the reference protocol.
    ref_bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    ref = [ref_bench.measure(s) for s in schedules]
    assert results[: len(schedules)] == ref
    assert bench.n_simulations == ref_bench.n_simulations
    # A second call is fully memoized: nothing replayed, nothing simulated.
    sims = bench.n_simulations
    _, n_replayed, n_fallbacks = ctx.measure_into(
        bench, schedules, backend="batch"
    )
    assert (n_replayed, n_fallbacks) == (0, 0)
    assert bench.n_simulations == sims


# -- fallback paths ----------------------------------------------------
def _exhaustive(program):
    return list(DesignSpace(program, n_streams=2).enumerate_schedules())


def test_tie_flagged_rows_fall_back_to_reference():
    """Noiseless spmv: symmetric ranks reach NIC channels at equal times,
    replay flags those rows, and they come back from the reference
    engine — every result equals the reference."""
    spec = next(s for s in SMOKE_SPECS if s.family == "spmv")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    ctx = CompiledContext(program, machine, cfg)
    assert ctx.ok
    schedules = _exhaustive(program)
    flagged = sum(m is None for m in ctx.measure_block(schedules))
    assert 0 < flagged < len(schedules)
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    results, n_replayed, n_fallbacks = ctx.measure_into(
        bench, schedules, backend="batch"
    )
    assert (n_replayed, n_fallbacks) == (len(schedules) - flagged, flagged)
    ref_bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    assert results == [ref_bench.measure(s) for s in schedules]
    assert bench.n_simulations == ref_bench.n_simulations


def test_serial_evaluator_counts_fallbacks():
    """An explicit batch backend given unsupported schedules: reference
    results, every schedule counted in ``sim.fallbacks``."""
    spec = next(s for s in SMOKE_SPECS if s.family == "layered_random")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    # Each schedule's first GPU op swapped for a same-named vertex with
    # an explicit duration: the reference engine prices the vertex it
    # is given, replay only knows the compiled program's, so every
    # schedule falls back.
    schedules = []
    for s in _random_schedules(program, 5):
        ops = list(s.ops)
        i = next(i for i, op in enumerate(ops) if op.kind is OpKind.GPU)
        impostor = Vertex(name=ops[i].name, kind=OpKind.GPU, duration=3e-6)
        ops[i] = BoundOp(impostor, stream=ops[i].stream)
        schedules.append(Schedule(ops))
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    ev = SerialEvaluator(bench, sim_backend="batch")
    assert ev.sim_backend == "batch" and ev._compiled is not None
    assert all(
        ev._compiled.unsupported_reason(s).startswith("op-mismatch:")
        for s in schedules
    )
    before = obs.metrics_snapshot()
    results = ev.evaluate_batch(schedules)
    delta = obs.metrics_snapshot().diff(before)
    assert delta.counter("sim.fallbacks") == len(schedules)
    assert delta.counter("sim.batch_replays") == 0
    assert results == _reference(program, machine, cfg, schedules)


def test_serial_evaluator_counts_replays():
    spec = next(s for s in SMOKE_SPECS if s.family == "layered_random")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=1)
    schedules = _random_schedules(program, 6)
    bench = Benchmarker(ScheduleExecutor(program, machine), cfg)
    ev = SerialEvaluator(bench, sim_backend="auto")
    assert ev.sim_backend == "batch"
    before = obs.metrics_snapshot()
    results = ev.evaluate_batch(schedules)
    delta = obs.metrics_snapshot().diff(before)
    assert delta.counter("sim.batch_replays") == len(
        {s.fingerprint() for s in schedules}
    )
    assert delta.counter("sim.fallbacks") == 0
    assert results == _reference(program, machine, cfg, schedules)


def test_auto_resolves_to_batch_on_mpi_programs():
    spec = next(s for s in SMOKE_SPECS if s.family == "halo3d")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    before = obs.metrics_snapshot()
    backend, ctx = resolve_backend("auto", program, machine)
    assert backend == "batch" and ctx is not None and ctx.ok
    assert obs.metrics_snapshot().diff(before).counter(
        "sim.resolved_reference"
    ) == 0
    for needs in (True, "trace", "payload"):
        before = obs.metrics_snapshot()
        backend, ctx = resolve_backend(
            "auto", program, machine, needs_reference=needs
        )
        assert backend == "reference" and ctx is None
        assert obs.metrics_snapshot().diff(before).counter(
            "sim.resolved_reference"
        ) == 1
    with pytest.raises(ValueError, match="unknown sim backend"):
        resolve_backend("vectorized", program, machine)


def test_needs_reference_forces_reference_backend():
    spec = next(s for s in SMOKE_SPECS if s.family == "wavefront")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    backend, ctx = resolve_backend(
        "auto", program, machine, needs_reference=True
    )
    assert backend == "reference" and ctx is None


# -- per-schedule capability guards ------------------------------------
@pytest.fixture(scope="module")
def guard_ctx():
    spec = next(s for s in SMOKE_SPECS if s.family == "layered_random")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    return program, CompiledContext(program, machine, MeasurementConfig())


def _rec(name, event, stream=0):
    v = Vertex(name=name, kind=OpKind.EVENT_RECORD)
    return BoundOp(v, stream=stream, event=event)


def _wait(name, event, stream=0):
    v = Vertex(name=name, kind=OpKind.STREAM_WAIT)
    return BoundOp(v, stream=stream, event=event)


def _sync(name, event):
    v = Vertex(name=name, kind=OpKind.EVENT_SYNC)
    return BoundOp(v, event=event)


def test_guard_unknown_and_mismatched_ops(guard_ctx):
    program, ctx = guard_ctx
    unknown = Schedule([BoundOp(gpu_op("NOT-IN-PROGRAM"), stream=0)])
    assert ctx.unsupported_reason(unknown) == "unknown-op:NOT-IN-PROGRAM"
    v = next(v for v in program.schedulable_vertices() if v.kind is OpKind.GPU)
    impostor = Vertex(name=v.name, kind=v.kind, duration=123.0)
    mismatched = Schedule([BoundOp(impostor, stream=0)])
    assert ctx.unsupported_reason(mismatched) == f"op-mismatch:{v.name}"


def test_guard_stream_and_kind(guard_ctx):
    program, ctx = guard_ctx
    v = next(v for v in program.schedulable_vertices() if v.kind is OpKind.GPU)
    assert (
        ctx.unsupported_reason(Schedule([BoundOp(v, stream=99)]))
        == "stream-out-of-range:99"
    )
    assert ctx.unsupported_reason(Schedule([BoundOp(START)])) == "op-kind:start"


def test_guard_event_ordering(guard_ctx):
    _, ctx = guard_ctx
    assert (
        ctx.unsupported_reason(Schedule([_wait("W0", "e0", stream=1)]))
        == "event-before-record:e0"
    )
    assert (
        ctx.unsupported_reason(Schedule([_sync("S0", "e0")]))
        == "event-before-record:e0"
    )
    rerecord = Schedule([_rec("R0", "e0"), _rec("R1", "e0", stream=1)])
    assert ctx.unsupported_reason(rerecord) == "event-rerecord:e0"
    ordered = Schedule([_rec("R0", "e0"), _wait("W0", "e0", stream=1)])
    assert ctx.unsupported_reason(ordered) is None


# -- compile instrumentation -------------------------------------------
def test_compile_context_metrics():
    spec = next(s for s in SMOKE_SPECS if s.family == "stencil_reduce")
    program = build_workload(spec)
    machine = noiseless(perlmutter_like()).with_ranks(program.n_ranks)
    before = obs.metrics_snapshot()
    ctx = compile_context(program, machine)
    delta = obs.metrics_snapshot().diff(before)
    assert ctx.ok
    assert delta.counter("sim.compiled_contexts") == 1
    # The unusable compile is timed but not counted as a usable context.
    before = obs.metrics_snapshot()
    ctx = compile_context(
        program,
        noiseless(perlmutter_like()).with_ranks(program.n_ranks + 1),
    )
    delta = obs.metrics_snapshot().diff(before)
    assert not ctx.ok and ctx.reason == "rank-mismatch"
    assert delta.counter("sim.compiled_contexts") == 0


# -- evaluator-level equivalence ---------------------------------------
def test_build_evaluator_batch_vs_reference_serial():
    spec = next(s for s in SMOKE_SPECS if s.family == "fork_join")
    program = build_workload(spec)
    machine = perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks)
    cfg = MeasurementConfig(max_samples=2)
    schedules = _random_schedules(program, 25)
    ref_ev = build_evaluator(program, machine, cfg, sim_backend="reference")
    bat_ev = build_evaluator(program, machine, cfg, sim_backend="auto")
    assert bat_ev.sim_backend == "batch"
    try:
        assert bat_ev.evaluate_batch(schedules) == ref_ev.evaluate_batch(
            schedules
        )
        assert bat_ev.n_simulations == ref_ev.n_simulations
    finally:
        ref_ev.close()
        bat_ev.close()

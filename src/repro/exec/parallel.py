"""Process-parallel batched schedule evaluation.

A :class:`ParallelEvaluator` shards a batch of schedules across a pool of
worker processes.  Each worker owns a private
:class:`~repro.sim.executor.ScheduleExecutor` and
:class:`~repro.sim.measure.Benchmarker` built in its initializer, so no
simulator state is ever shared between processes.

Determinism
-----------
Parallel results are **bit-identical** to
:class:`~repro.exec.evaluator.SerialEvaluator` because a measurement is a
pure function of ``(schedule, program, machine, measurement config,
sample offset)``: the noise model derives every jitter factor from a
stable hash of ``(noise seed, sample index, op key)`` rather than from
shared RNG state, so neither batch composition, nor worker assignment,
nor completion order can change a result.  Each schedule is effectively
"seeded" by its own content.

Start methods
-------------
The default start method is ``fork`` (when the platform offers it):
worker initializer arguments are inherited through the forked address
space, so programs carrying non-picklable payload closures work
unchanged.  Under ``spawn``/``forkserver`` the program and machine must
be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.dag.program import Program
from repro.exec.cache import MeasurementCache, context_fingerprint
from repro.exec.evaluator import Evaluator, SerialEvaluator
from repro.platform.machine import MachineConfig
from repro.schedule.schedule import Schedule
from repro.sim.batch import CompiledContext, compile_count, resolve_backend
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, Measurement, MeasurementConfig

#: Per-worker benchmarker, created once by :func:`_init_worker`.
_WORKER_BENCH: Optional[Benchmarker] = None
#: Per-worker compiled replay context — also built exactly once, in the
#: pool initializer, and reused across every chunk/task the worker runs.
_WORKER_REPLAYER: Optional[CompiledContext] = None
#: Compiles performed by *this* worker process (regression hook: must be
#: one per worker, never one per task).
_WORKER_COMPILES: int = 0


def _init_worker(
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig,
    sample_offset: int,
    sim_backend: str = "reference",
) -> None:
    global _WORKER_BENCH, _WORKER_REPLAYER, _WORKER_COMPILES
    compiles_before = compile_count()
    executor = ScheduleExecutor(program, machine)
    _WORKER_BENCH = Benchmarker(executor, config, sample_offset=sample_offset)
    _WORKER_REPLAYER = None
    if sim_backend == "batch":
        # Parent resolved "auto" already; only the concrete backend
        # arrives here.  obs counters recorded in this process are never
        # shipped home — the parent does the metrics accounting.
        _, _WORKER_REPLAYER = resolve_backend(
            sim_backend, program, machine, config, sample_offset=sample_offset
        )
    _WORKER_COMPILES = compile_count() - compiles_before


def _measure_one(schedule: Schedule) -> Measurement:
    assert _WORKER_BENCH is not None, "worker pool not initialized"
    return _WORKER_BENCH.measure(schedule)


def _measure_chunk(
    schedules: List[Schedule],
) -> Tuple[List[Measurement], int, int]:
    """Measure one dispatched chunk with the worker's warm state.

    Chunks (not single schedules) are the dispatch unit so the replay
    backend gets a real batch dimension per sweep.  Returns ``(results,
    n_replayed, n_fallbacks)``: only replay knows which rows it had to
    send to the reference engine, and this worker's obs counters are
    never shipped home, so the parent counts them.
    """
    assert _WORKER_BENCH is not None, "worker pool not initialized"
    if _WORKER_REPLAYER is not None:
        return _WORKER_REPLAYER.measure_into(
            _WORKER_BENCH, schedules, backend="batch"
        )
    return [_WORKER_BENCH.measure(s) for s in schedules], 0, 0


def _worker_compile_stats(_: object = None) -> tuple:
    """(pid, compiles done by this worker) — warm-start regression probe."""
    return (os.getpid(), _WORKER_COMPILES)


def _worker_resource_probe(_: object = None):
    """One :class:`ResourceSample` of this eval-pool worker (telemetry).

    Inner pool workers have no sampler of their own (worker registries
    are never shipped home), so the parent probes them once at pool
    shutdown to catch each worker's peak-ish footprint.
    """
    from repro.obs.telemetry import sample_now

    return sample_now(path="eval.worker")


def build_evaluator(
    program: Program,
    machine: MachineConfig,
    config: MeasurementConfig = MeasurementConfig(),
    *,
    workers: int = 0,
    cache: Optional[MeasurementCache] = None,
    benchmarker: Optional[Benchmarker] = None,
    sample_offset: int = 0,
    sim_backend: str = "auto",
) -> Evaluator:
    """Construct the configured evaluation backend in one place.

    ``workers > 1`` yields a :class:`ParallelEvaluator`; anything else a
    :class:`~repro.exec.evaluator.SerialEvaluator` wrapping
    ``benchmarker`` (or a fresh one).  Call sites that offer a
    workers/cache knob (pipeline, workbench) share this logic so the
    two backends cannot drift.  ``sim_backend`` defaults to ``"auto"``
    here (batch replay wherever the compiled context supports the
    program) while the raw evaluator constructors keep their
    ``"reference"`` default.
    """
    if workers > 1:
        return ParallelEvaluator(
            program,
            machine,
            config,
            n_workers=workers,
            cache=cache,
            sample_offset=sample_offset,
            sim_backend=sim_backend,
        )
    if benchmarker is None:
        benchmarker = Benchmarker(
            ScheduleExecutor(program, machine),
            config,
            sample_offset=sample_offset,
        )
    return SerialEvaluator(benchmarker, cache=cache, sim_backend=sim_backend)


class ParallelEvaluator(Evaluator):
    """Evaluates schedule batches on a ``multiprocessing`` worker pool.

    Parameters
    ----------
    program, machine:
        The measurement context; every worker builds its own executor
        from these.
    config:
        Measurement protocol knobs (identical semantics to serial).
    n_workers:
        Pool size; defaults to ``os.cpu_count()``.
    cache:
        Optional persistent :class:`MeasurementCache` consulted before
        dispatch and updated with fresh results.
    sample_offset:
        Forwarded to each worker's benchmarker.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when
        available (required for programs with closure payloads).
    chunksize:
        Schedules per worker task; defaults to a heuristic that spreads
        each batch roughly four tasks per worker.
    sim_backend:
        ``"reference"`` (default), ``"batch"``, or ``"auto"``.  The
        parent resolves ``"auto"`` by compiling the context once, and
        each worker then compiles its replay context exactly once, in
        the pool initializer.  Workers return their replay and fallback
        counts with each chunk, since worker registries are never
        shipped home.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        config: MeasurementConfig = MeasurementConfig(),
        *,
        n_workers: Optional[int] = None,
        cache: Optional[MeasurementCache] = None,
        sample_offset: int = 0,
        start_method: Optional[str] = None,
        chunksize: Optional[int] = None,
        sim_backend: str = "reference",
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.program = program
        self.machine = machine
        self.config = config
        self.n_workers = n_workers or os.cpu_count() or 1
        self.cache = cache
        self.sample_offset = sample_offset
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.chunksize = chunksize
        self.sim_backend, _ = resolve_backend(
            sim_backend, program, machine, config, sample_offset=sample_offset
        )
        self._context = context_fingerprint(program, machine, config, sample_offset)
        self._memo: Dict[str, Measurement] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._n_simulations = 0

    # ------------------------------------------------------------------
    @property
    def n_simulations(self) -> int:
        return self._n_simulations

    @property
    def n_unique_schedules(self) -> int:
        return len(self._memo)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_init_worker,
                initargs=(
                    self.program,
                    self.machine,
                    self.config,
                    self.sample_offset,
                    self.sim_backend,
                ),
            )
        return self._pool

    # ------------------------------------------------------------------
    def evaluate_batch(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        with obs.span(
            "eval.batch",
            n=len(schedules),
            backend="parallel",
            sim=self.sim_backend,
        ):
            sims_before = self._n_simulations
            fps = [s.fingerprint() for s in schedules]
            pending: Dict[str, Schedule] = {
                fp: s for fp, s in zip(fps, schedules) if fp not in self._memo
            }
            if len(fps) > len(pending):
                obs.add("eval.memo_hits", len(fps) - len(pending))
            if pending and self.cache is not None:
                hits = self.cache.get_many(self._context, list(pending))
                for fp, m in hits.items():
                    self._memo[fp] = m
                    del pending[fp]
            if pending:
                fresh = self._dispatch(list(pending.values()))
                if self.cache is not None:
                    self.cache.put_many(self._context, fresh.items())
                self._memo.update(fresh)
            obs.add("eval.schedules", len(schedules))
            obs.add("eval.simulations", self._n_simulations - sims_before)
        return [self._memo[fp] for fp in fps]

    def _dispatch(self, schedules: List[Schedule]) -> Dict[str, Measurement]:
        pool = self._ensure_pool()
        chunksize = self.chunksize or max(1, len(schedules) // (4 * self.n_workers))
        chunks = [
            schedules[i : i + chunksize]
            for i in range(0, len(schedules), chunksize)
        ]
        results: List[Measurement] = []
        n_replayed = n_fallbacks = 0
        for chunk, replayed, fallbacks in pool.map(_measure_chunk, chunks):
            results.extend(chunk)
            n_replayed += replayed
            n_fallbacks += fallbacks
        # Workers do the replaying, but their metrics registries are
        # never shipped home — count here, where the snapshot lives.
        if n_replayed:
            obs.add("sim.batch_replays", n_replayed)
        if n_fallbacks:
            obs.add("sim.fallbacks", n_fallbacks)
        fresh: Dict[str, Measurement] = {}
        for schedule, m in zip(schedules, results):
            fresh[schedule.fingerprint()] = m
            self._n_simulations += m.n_samples
        return fresh

    # ------------------------------------------------------------------
    def _probe_worker_resources(self) -> None:
        """Best-effort RSS probe of each pool worker before shutdown.

        Dispatches enough probe tasks to likely hit every worker, dedups
        by pid, and folds one sample per worker into the ambient sampler
        (path ``eval.worker``) plus an ``eval.pool_rss_max_bytes`` gauge.
        Telemetry must never fail an evaluation, hence the broad except.
        """
        if self._pool is None or not obs.telemetry_active():
            return
        try:
            probes = list(
                self._pool.map(
                    _worker_resource_probe,
                    range(4 * self.n_workers),
                    chunksize=1,
                )
            )
            by_pid = {}
            for rec in probes:
                prev = by_pid.get(rec.pid)
                if prev is None or rec.rss_bytes > prev.rss_bytes:
                    by_pid[rec.pid] = rec
            if by_pid:
                obs.absorb(resources=tuple(by_pid.values()))
                obs.gauge(
                    "eval.pool_rss_max_bytes",
                    float(max(r.rss_bytes for r in by_pid.values())),
                )
        except Exception:
            pass

    def close(self) -> None:
        if self._pool is not None:
            self._probe_worker_resources()
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelEvaluator(workers={self.n_workers}, "
            f"method={self.start_method!r}, "
            f"memo={len(self._memo)})"
        )

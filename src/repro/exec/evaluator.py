"""Batched schedule evaluation: the uniform measurement interface.

Search strategies submit *batches* of schedules through an
:class:`Evaluator` instead of owning their measurement loops.  The
interface decouples *what* is measured (the paper's protocol,
:mod:`repro.sim.measure`) from *how* it is scheduled onto hardware
(serially here, across a worker pool in
:class:`repro.exec.parallel.ParallelEvaluator`, potentially across a
cluster later) — all backends must return bit-identical measurements.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.exec.cache import MeasurementCache, context_fingerprint
from repro.schedule.schedule import Schedule
from repro.sim.batch import CompiledContext, resolve_backend
from repro.sim.measure import Benchmarker, Measurement


class Evaluator(abc.ABC):
    """Measures schedules; the only way search strategies touch the sim.

    Implementations must be *pure* with respect to the measurement
    semantics: for a fixed program/machine/measurement-config context,
    ``evaluate_batch`` returns the same :class:`Measurement` for a given
    schedule regardless of batch composition, ordering, concurrency, or
    cache state.
    """

    @abc.abstractmethod
    def evaluate_batch(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        """Measure every schedule; results align with the input order."""

    @property
    @abc.abstractmethod
    def n_simulations(self) -> int:
        """Total simulator invocations (samples) performed so far."""

    # ------------------------------------------------------------------
    def evaluate(self, schedule: Schedule) -> Measurement:
        return self.evaluate_batch([schedule])[0]

    def time_of(self, schedule: Schedule) -> float:
        return self.evaluate(schedule).time

    def times_of(self, schedules: Sequence[Schedule]) -> List[float]:
        return [m.time for m in self.evaluate_batch(schedules)]

    def evaluate_blocks(
        self, blocks: Iterable[Sequence[Schedule]]
    ) -> Iterator[List[Measurement]]:
        """Measure a *stream* of schedule blocks, one result list per block.

        The lazy generator form of :meth:`evaluate_batch`: only the block
        currently being measured is resident, so an exhaustive pipeline
        can walk a six-figure design space (via
        :meth:`repro.schedule.space.DesignSpace.iter_blocks`) holding
        ``block_size`` schedules at a time.  Backends inherit this
        loop — a :class:`~repro.exec.parallel.ParallelEvaluator` fans
        each block across its worker pool — and the per-schedule purity
        contract makes the measurements independent of the block split.

        Interface contract: implementations must consume ``blocks``
        lazily, at most one block ahead of the results they yield —
        callers (the streaming pipeline) rely on that to bound schedule
        residency.  An override that prefetches the stream breaks the
        bound.
        """
        for block in blocks:
            yield self.evaluate_batch(block)

    def close(self) -> None:
        """Release any resources (worker pools, cache connections)."""


class SerialEvaluator(Evaluator):
    """Evaluates batches in-process through a
    :class:`~repro.sim.measure.Benchmarker`.

    ``sim_backend`` selects how un-memoized schedules are simulated:

    * ``"reference"`` (the constructor default) — the event-loop engine,
      one schedule at a time.  Every other backend must agree with it
      bit-for-bit.
    * ``"batch"`` — the compiled array-replay backend
      (:mod:`repro.sim.batch`), MPI programs included; only malformed
      schedules and rows whose NIC-channel order replay cannot prove fall
      back to the reference engine per schedule, counted in
      ``sim.fallbacks``.
    * ``"auto"`` — ``"batch"`` when the program compiles cleanly,
      ``"reference"`` otherwise.  :func:`repro.exec.parallel
      .build_evaluator` defaults to this.

    Executors that collect a trace or run payloads always use the
    reference engine; every evaluator that resolves to it is counted in
    ``sim.resolved_reference``.

    The compiled context is built once here and reused across every
    batch and block this evaluator measures.  An optional
    :class:`MeasurementCache` is consulted before the benchmarker and
    updated with fresh results; the benchmarker's in-memory memo and the
    disk cache share the same schedule fingerprints (the disk cache is
    backend-agnostic — backends are bit-identical by CI-asserted
    contract — while the in-memory memo is backend-keyed so mixed
    sessions can never alias).
    """

    def __init__(
        self,
        benchmarker: Benchmarker,
        cache: Optional[MeasurementCache] = None,
        sim_backend: str = "reference",
    ) -> None:
        self.benchmarker = benchmarker
        self.cache = cache
        executor = benchmarker.executor
        resolved: Tuple[str, Optional[CompiledContext]] = resolve_backend(
            sim_backend,
            executor.program,
            executor.machine,
            benchmarker.config,
            sample_offset=benchmarker.sample_offset,
            needs_reference=(
                "trace"
                if executor.collect_trace
                else "payload"
                if executor.payload_init is not None
                else False
            ),
        )
        self.sim_backend, self._compiled = resolved
        self._context: Optional[str] = None
        #: Fingerprints known to be on disk (read or written by us), so a
        #: warm-cache run doesn't rewrite the database it just read.
        self._on_disk: set = set()
        if cache is not None:
            self._context = context_fingerprint(
                benchmarker.executor.program,
                benchmarker.executor.machine,
                benchmarker.config,
                benchmarker.sample_offset,
            )

    # ------------------------------------------------------------------
    @property
    def n_simulations(self) -> int:
        return self.benchmarker.n_simulations

    def evaluate_batch(self, schedules: Sequence[Schedule]) -> List[Measurement]:
        with obs.span(
            "eval.batch",
            n=len(schedules),
            backend="serial",
            sim=self.sim_backend,
        ):
            sims_before = self.benchmarker.n_simulations
            if self.cache is not None:
                self._preload_from_cache(schedules)
            if self._compiled is not None:
                results, n_replayed, n_fallbacks = self._compiled.measure_into(
                    self.benchmarker, schedules, backend=self.sim_backend
                )
                if n_replayed:
                    obs.add("sim.batch_replays", n_replayed)
                if n_fallbacks:
                    obs.add("sim.fallbacks", n_fallbacks)
            else:
                results = [
                    self.benchmarker.measure(s, backend=self.sim_backend)
                    for s in schedules
                ]
            if self.cache is not None:
                self._write_back(schedules, results)
            obs.add("eval.schedules", len(schedules))
            obs.add("eval.simulations", self.benchmarker.n_simulations - sims_before)
        return results

    # ------------------------------------------------------------------
    def _preload_from_cache(self, schedules: Sequence[Schedule]) -> None:
        missing: Dict[str, Schedule] = {
            s.fingerprint(): s
            for s in schedules
            if self.benchmarker.cached(s, backend=self.sim_backend) is None
        }
        if not missing:
            return
        hits = self.cache.get_many(self._context, list(missing))
        for fp, m in hits.items():
            self.benchmarker.seed_cache(missing[fp], m, backend=self.sim_backend)
        self._on_disk.update(hits)

    def _write_back(
        self, schedules: Sequence[Schedule], results: Sequence[Measurement]
    ) -> None:
        entries = {
            s.fingerprint(): m
            for s, m in zip(schedules, results)
            if s.fingerprint() not in self._on_disk
        }
        if entries:
            self.cache.put_many(self._context, entries.items())
            self._on_disk.update(entries)


def as_evaluator(obj) -> Evaluator:
    """Coerce a :class:`Benchmarker` (or pass through an
    :class:`Evaluator`) so call sites accept either."""
    if isinstance(obj, Evaluator):
        return obj
    if isinstance(obj, Benchmarker):
        return SerialEvaluator(obj)
    raise TypeError(f"expected an Evaluator or Benchmarker, got {type(obj).__name__}")

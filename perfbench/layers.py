"""Outside-in layer timers for the traced benchmark run.

Every per-layer number is measured from the benchmark's own files, around
calls into each layer's public functions; nothing inside ``repro`` is
instrumented.  :class:`LayerTimers` keeps *self* time per layer: when a
timed call contains another timed call (the search loop contains the
evaluator), the inner wall is subtracted from the outer layer, so the
layer totals never double count and their sum can be compared with the
traced phase's wall (the coverage check).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

from repro.exec import Evaluator


class LayerTimers:
    """Self seconds and counts per layer metric name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # Open spans as [name, start, seconds spent in child spans].
        self._open: List[list] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            self._open.pop()
            elapsed = time.perf_counter() - frame[1]
            self.seconds[name] += elapsed - frame[2]
            if self._open:
                self._open[-1][2] += elapsed

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def total_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.seconds.values())


class TimingEvaluator(Evaluator):
    """Evaluator proxy that times each batch under its simulation backend.

    The backend is the one :func:`repro.sim.batch.resolve_backend` chose
    when the wrapped evaluator was built (its ``sim_backend``), so batch
    walls land in ``sim.batch_s`` or ``sim.reference_s``.  Memo hits are
    read from the wrapped benchmarker's memo size; measurements pass
    through unchanged.
    """

    def __init__(self, inner: Evaluator, timers: LayerTimers) -> None:
        self.inner = inner
        self.timers = timers
        self.backend = inner.sim_backend

    @property
    def n_simulations(self) -> int:
        return self.inner.n_simulations

    def evaluate_batch(self, schedules: Sequence) -> list:
        memo_before = self.inner.benchmarker.n_unique_schedules
        with self.timers.span(f"sim.{self.backend}_s"):
            out = self.inner.evaluate_batch(schedules)
        fresh = self.inner.benchmarker.n_unique_schedules - memo_before
        self.timers.add("exec.eval_calls")
        self.timers.add("exec.schedules", len(schedules))
        self.timers.add("exec.memo_hits", len(schedules) - fresh)
        self.timers.add(f"sim.{self.backend}_schedules", fresh)
        return out

    def close(self) -> None:
        self.timers.add("sim.simulations", self.inner.n_simulations)
        self.inner.close()

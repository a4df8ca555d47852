"""Named workload suites and the cross-workload suite runner.

A :class:`Suite` names a set of workload specs and search strategies; the
:class:`SuiteRunner` fans every (workload × strategy) cell through the
batched :mod:`repro.exec` evaluation substrate — honoring ``workers`` and
a shared persistent :class:`~repro.exec.MeasurementCache` — and collects
one :class:`SuiteCell` per cell into a :class:`SuiteReport` (JSON +
ASCII).

Built-in suites
---------------
``smoke``
    Every registered family at tiny parameters; random + MCTS.  Fast
    enough for CI, broad enough to exercise every generator and both
    app adapters end-to-end.
``paper``
    The two paper workloads at meaningful sizes with all sampling
    strategies — the per-workload comparison the paper's §VI asks for.
``generalization``
    Small-space workloads explored exhaustively so full pipelines are
    affordable; the runner additionally extracts per-workload rules and
    scores every workload's fastest-class rules on every other workload
    (see :mod:`repro.workloads.generalization`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import WorkloadError
from repro.platform.machine import MachineConfig
from repro.platform.presets import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.search.base import SearchResult
from repro.sim.measure import MeasurementConfig
from repro.textutil import format_table
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class Suite:
    """A named collection of workloads × strategies."""

    name: str
    description: str
    specs: Tuple[WorkloadSpec, ...]
    strategies: Tuple[str, ...] = ("random", "mcts")
    #: Search iterations per (workload, strategy) cell.
    n_iterations: int = 8
    n_streams: int = 2
    measurement: MeasurementConfig = field(
        default_factory=lambda: MeasurementConfig(max_samples=2)
    )
    #: When set, the runner also extracts rules per workload and scores
    #: them across workloads (requires small, exhaustible spaces).
    cross_workload_rules: bool = False


def _smoke_specs() -> Tuple[WorkloadSpec, ...]:
    return (
        WorkloadSpec("spmv", {"scale": 0.025}),
        WorkloadSpec(
            "halo3d",
            {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"},
        ),
        WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),
        WorkloadSpec("fork_join", {"stages": 2, "branches": 2, "depth": 1}),
        WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
        WorkloadSpec("wavefront", {"width": 2, "height": 2}),
        WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
    )


def builtin_suites() -> Dict[str, Suite]:
    """The named suites shipped with the system."""
    return {
        "smoke": Suite(
            name="smoke",
            description=(
                "every workload family at tiny parameters; CI-fast "
                "end-to-end exercise of the evaluation substrate"
            ),
            specs=_smoke_specs(),
            strategies=("random", "mcts"),
            n_iterations=6,
        ),
        "paper": Suite(
            name="paper",
            description=(
                "the two paper workloads at meaningful sizes, all "
                "sampling strategies"
            ),
            specs=(
                WorkloadSpec("spmv", {"scale": 0.1}),
                WorkloadSpec(
                    "halo3d",
                    {
                        "nx": 128,
                        "ny": 128,
                        "nz": 128,
                        "px": 2,
                        "py": 2,
                        "pz": 1,
                        "axes": "xy",
                    },
                ),
            ),
            strategies=("random", "mcts", "beam"),
            n_iterations=32,
        ),
        "generalization": Suite(
            name="generalization",
            description=(
                "small-space workloads explored exhaustively; rules "
                "extracted per workload and scored on every other"
            ),
            specs=(
                WorkloadSpec("spmv", {"scale": 0.025}),
                WorkloadSpec(
                    "halo3d",
                    {
                        "nx": 32,
                        "ny": 32,
                        "nz": 32,
                        "px": 2,
                        "py": 2,
                        "pz": 1,
                        "axes": "x",
                    },
                ),
                WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
                WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
                WorkloadSpec("wavefront", {"width": 2, "height": 2}),
                WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
            ),
            strategies=("random", "mcts"),
            n_iterations=12,
            cross_workload_rules=True,
        ),
    }


def get_suite(name: str) -> Suite:
    suites = builtin_suites()
    try:
        return suites[name]
    except KeyError:
        known = ", ".join(sorted(suites))
        raise WorkloadError(
            f"unknown suite {name!r}; available: {known}"
        ) from None


@dataclass(frozen=True)
class SuiteCell:
    """One (workload, strategy) result row."""

    workload: str
    family: str
    strategy: str
    n_ops: int
    n_iterations: int
    n_unique: int
    n_simulations: int
    best_time: float
    mean_time: float
    wall_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "family": self.family,
            "strategy": self.strategy,
            "n_ops": self.n_ops,
            "n_iterations": self.n_iterations,
            "n_unique": self.n_unique,
            "n_simulations": self.n_simulations,
            "best_time_us": self.best_time * 1e6,
            "mean_time_us": self.mean_time * 1e6,
            "wall_s": self.wall_s,
        }


@dataclass
class SuiteReport:
    """Everything a suite run produced."""

    suite: str
    machine: str
    cells: List[SuiteCell]
    #: Cross-workload rule transfer rows (generalization suites only).
    rules_table: List[Dict[str, object]] = field(default_factory=list)
    #: Signature-matched discrimination matrix rows (repro.transfer).
    transfer_table: List[Dict[str, object]] = field(default_factory=list)
    #: Leave-one-workload-out union-tree accuracy rows (repro.transfer).
    union_table: List[Dict[str, object]] = field(default_factory=list)
    #: Why union rows are missing / incomplete (empty when none skipped).
    union_note: str = ""
    #: Execution-plan timing: shard count, total wall, per-task wall and
    #: per-stage breakdown (:meth:`repro.orchestrate.PlanRun.timing`).
    #: Wall-clock only — every other field is identical for any shard or
    #: worker count.
    timing: Dict[str, object] = field(default_factory=dict)
    #: Run telemetry from the obs metrics registry delta — today the
    #: measurement-cache hit/miss/lock-retry counts, which are
    #: deterministic (unlike ``timing``) for a given cache state.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Advisor artifacts this run published (paths; empty when no store
    #: was configured) and why publishing was skipped, if it was.
    published: List[str] = field(default_factory=list)
    store_note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "machine": self.machine,
            "cells": [c.to_dict() for c in self.cells],
            "rules_table": self.rules_table,
            "transfer_table": self.transfer_table,
            "union_table": self.union_table,
            "union_note": self.union_note,
            "timing": self.timing,
            "metrics": self.metrics,
            "published": self.published,
            "store_note": self.store_note,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    # ------------------------------------------------------------------
    def ascii_table(self) -> str:
        """Fixed-width comparison table, one row per cell."""
        headers = (
            "workload",
            "strategy",
            "ops",
            "iters",
            "unique",
            "sims",
            "best(us)",
            "mean(us)",
        )
        rows = [
            (
                c.workload,
                c.strategy,
                str(c.n_ops),
                str(c.n_iterations),
                str(c.n_unique),
                str(c.n_simulations),
                f"{c.best_time * 1e6:.2f}",
                f"{c.mean_time * 1e6:.2f}",
            )
            for c in self.cells
        ]
        lines = [
            f"Suite {self.suite!r} on {self.machine} "
            f"({len(self.cells)} cells)"
        ]
        lines += format_table(headers, rows)
        if self.rules_table:
            lines.append("")
            lines.append(self._rules_ascii())
        if self.transfer_table:
            lines.append("")
            lines.append(self._transfer_ascii())
        if self.union_table:
            lines.append("")
            lines.append(self._union_ascii())
        if self.union_note:
            lines.append(self.union_note)
        if self.timing:
            shards = int(self.timing.get("shard_workers", 0) or 0)
            lines.append(
                f"Executed {self.timing.get('n_tasks', 0)} workload tasks "
                + (f"across {shards} shards" if shards > 1 else "in-process")
                + f" in {float(self.timing.get('wall_s', 0.0)):.2f}s"
            )
        cache_stats = self.metrics.get("cache") if self.metrics else None
        if cache_stats and (cache_stats["hits"] or cache_stats["misses"]):
            lines.append(
                f"Measurement cache: {cache_stats['hits']} hits / "
                f"{cache_stats['misses']} misses "
                f"({cache_stats['lock_retries']} lock retries)"
            )
        sim_stats = self.metrics.get("sim") if self.metrics else None
        if sim_stats and (
            sim_stats["batch_replays"] or sim_stats["fallbacks"]
        ):
            lines.append(
                f"Sim backend {sim_stats['backend']!r}: "
                f"{sim_stats['batch_replays']} batch replays / "
                f"{sim_stats['fallbacks']} reference fallbacks "
                f"({sim_stats['compiled_contexts']} compiled contexts)"
            )
        if self.published:
            lines.append(
                f"Published {len(self.published)} advisor artifacts "
                "(rules + signatures + union tree) to the store"
            )
        if self.store_note:
            lines.append(self.store_note)
        return "\n".join(lines)

    def _rules_ascii(self) -> str:
        headers = ("rules from", "scored on", "rules", "transfer", "satisfied")
        rows = [
            (
                str(r["source"]),
                str(r["target"]),
                str(r["n_rules"]),
                str(r["n_transferable"]),
                f"{100.0 * float(r['mean_satisfaction']):.0f}%",
            )
            for r in self.rules_table
        ]
        lines = ["Cross-workload rule transfer (fastest-class rules):"]
        lines += format_table(headers, rows)
        return "\n".join(lines)

    def _transfer_ascii(self) -> str:
        headers = ("rules from", "scored on", "transfer", "disc", "cover")
        rows = [
            (
                str(r["source"]),
                str(r["target"]),
                f"{r['n_transferable']}/{r['n_rules']}",
                f"{float(r['mean_discrimination']):+.2f}",
                f"{100.0 * float(r['mean_coverage']):.0f}%",
            )
            for r in self.transfer_table
        ]
        lines = [
            "Signature-matched transfer (discrimination = fast/slow "
            "satisfaction gap):"
        ]
        lines += format_table(headers, rows)
        return "\n".join(lines)

    def _union_ascii(self) -> str:
        headers = ("held-out target", "feat", "leaves", "train acc", "held-out acc")
        rows = [
            (
                str(r["target"]),
                str(r["n_features"]),
                str(r["n_leaves"]),
                f"{100.0 * float(r['train_accuracy']):.0f}%",
                f"{100.0 * float(r['holdout_accuracy']):.0f}%",
            )
            for r in self.union_table
        ]
        lines = ["Union-trained tree, leave-one-workload-out accuracy:"]
        lines += format_table(headers, rows)
        return "\n".join(lines)

    def report(self) -> str:
        return self.ascii_table()


# ----------------------------------------------------------------------
class SuiteRunner:
    """Runs every (workload × strategy) cell of a suite.

    The run is compiled into a :class:`repro.orchestrate.ExecutionPlan` —
    one task per workload (plus one exhaustive rule-pipeline task per
    workload for cross-workload suites) — and executed in-process or,
    with ``shard_workers > 1``, across a pool of whole-workload shards.
    Within each task one evaluator is shared by all strategies (so they
    share its memo), optionally backed by ``workers`` inner evaluation
    processes and a shared persistent measurement cache.  Measurement
    determinism makes every report field except ``timing`` (and, when a
    cache is shared — concurrent tasks cross-seed it — the incidental
    ``n_simulations`` counters) independent of ``shard_workers``,
    ``workers``, and cache state.
    """

    def __init__(
        self,
        suite: Suite,
        *,
        machine: Optional[MachineConfig] = None,
        workers: int = 0,
        cache_path: Optional[str] = None,
        seed: int = 0,
        shard_workers: int = 0,
        block_size: Optional[int] = None,
        store_path: Optional[str] = None,
        progress: bool = False,
        sim_backend: str = "auto",
    ) -> None:
        self.suite = suite
        self.machine = machine if machine is not None else perlmutter_like()
        self.workers = workers
        self.cache_path = cache_path
        self.seed = seed
        self.shard_workers = shard_workers
        self.block_size = block_size
        #: Advisor artifact store directory; cross-workload suite runs
        #: publish their trained outputs there (:mod:`repro.advisor`).
        self.store_path = store_path
        #: Live stderr progress over completed plan tasks (``--progress``).
        self.progress = progress
        #: Simulation backend for every task evaluator
        #: (``reference`` | ``batch`` | ``auto``).
        self.sim_backend = sim_backend

    # ------------------------------------------------------------------
    def run(self) -> SuiteReport:
        from repro.orchestrate import (
            TASK_SUITE_CELLS,
            TASK_WORKLOAD_RULES,
            execute_plan,
            plan_suite,
            restore_rules_payload,
        )

        suite = self.suite
        plan = plan_suite(
            suite,
            machine=self.machine,
            workers=self.workers,
            cache_path=self.cache_path,
            seed=self.seed,
            block_size=self.block_size,
            sim_backend=self.sim_backend,
        )
        obs.log.info(
            "suite.run",
            suite=suite.name,
            n_tasks=len(plan.tasks),
            shard_workers=self.shard_workers,
        )
        metrics_before = obs.metrics_snapshot()
        # Suite progress counts whole tasks: the denominator is exact and
        # task completions are the granularity sharded suites observe.
        with obs.progress_scope(
            len(plan.tasks),
            label=f"suite {suite.name}",
            counters=obs.PLAN_PROGRESS_COUNTERS,
            enabled=self.progress,
        ):
            run = execute_plan(plan, shard_workers=self.shard_workers)
        delta = obs.metrics_snapshot().diff(metrics_before)
        cells: List[SuiteCell] = [
            cell
            for task in run.of_kind(TASK_SUITE_CELLS)
            for cell in task.payload
        ]
        report = SuiteReport(
            suite=suite.name,
            machine=self.machine.name,
            cells=cells,
            timing=run.timing(),
            metrics={
                "cache": {
                    "hits": int(delta.counter("cache.hits")),
                    "misses": int(delta.counter("cache.misses")),
                    "lock_retries": int(delta.counter("cache.lock_retries")),
                },
                "sim": {
                    "backend": self.sim_backend,
                    "batch_replays": int(delta.counter("sim.batch_replays")),
                    "fallbacks": int(delta.counter("sim.fallbacks")),
                    "resolved_reference": int(
                        delta.counter("sim.resolved_reference")
                    ),
                    "compiled_contexts": int(
                        delta.counter("sim.compiled_contexts")
                    ),
                },
            },
        )
        if suite.cross_workload_rules:
            from repro.transfer.matrix import transfer_matrix_from
            from repro.workloads.generalization import score_cross_workload

            # The plan already ran one exhaustive pipeline task per
            # workload; both tables reduce over those shared outputs.
            per_workload = [
                restore_rules_payload(task)
                for task in run.of_kind(TASK_WORKLOAD_RULES)
            ]
            report.rules_table = score_cross_workload(per_workload).rows()
            matrix = transfer_matrix_from(per_workload)
            report.transfer_table = matrix.rows()
            report.union_table = [u.to_dict() for u in matrix.union_rows]
            report.union_note = matrix.union_note
            if self.store_path is not None:
                from repro.advisor import ArtifactStore, publish_artifacts

                report.published = publish_artifacts(
                    ArtifactStore(self.store_path),
                    per_workload,
                    machine=self.machine.name,
                    n_streams=suite.n_streams,
                    advisories=[
                        (c.source, c.target, c.mean_discrimination)
                        for c in matrix.advisories()
                    ],
                )
        elif self.store_path is not None:
            report.store_note = (
                f"store {self.store_path!r} not updated: suite "
                f"{suite.name!r} does not run the cross-workload rule "
                "pipelines (artifacts need exhaustively labeled spaces)"
            )
        return report


def _cell_from_result(
    spec: WorkloadSpec,
    strategy: str,
    space: DesignSpace,
    result: SearchResult,
    n_simulations: int,
    wall: float,
) -> SuiteCell:
    times = result.times()
    return SuiteCell(
        workload=spec.label,
        family=spec.family,
        strategy=strategy,
        n_ops=len(space.program_ops),
        n_iterations=result.n_iterations,
        n_unique=len(result.unique()),
        n_simulations=n_simulations,
        best_time=float(times.min()),
        mean_time=float(times.mean()),
        wall_s=wall,
    )


def run_suite(
    name: str,
    *,
    machine: Optional[MachineConfig] = None,
    workers: int = 0,
    cache_path: Optional[str] = None,
    seed: int = 0,
    shard_workers: int = 0,
    block_size: Optional[int] = None,
    store_path: Optional[str] = None,
    progress: bool = False,
    sim_backend: str = "auto",
) -> SuiteReport:
    """Convenience: look up a built-in suite by name and run it."""
    return SuiteRunner(
        get_suite(name),
        machine=machine,
        workers=workers,
        cache_path=cache_path,
        seed=seed,
        shard_workers=shard_workers,
        block_size=block_size,
        store_path=store_path,
        progress=progress,
        sim_backend=sim_backend,
    ).run()

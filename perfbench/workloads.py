"""The benchmark's three workloads, run through ``repro``'s public functions.

Each workload has

* ``setup(seed, sizes, tmp)``: what a command-line user pays before any
  work: building every program, ``DesignSpace.count()``, evaluator
  construction (which compiles the batch replay context) and, for
  ``advise``, creating the empty artifact store;
* ``run(state)``: the timed phase, through the same high-level calls the
  CLI makes, as a generator that yields between its steps (the harness
  times the host's speed there) and returns what ``check`` takes;
* ``check(state, raw)``: digests and invariant checks of what ``run``
  returned, outside the timed phase;
* ``traced(seed, sizes, tmp, timers)``: the same computation rebuilt
  from lower-level public calls, each wrapped in a :class:`LayerTimers`
  span, with a :class:`TimingEvaluator` around every evaluator.  It must
  reproduce ``run``'s digests.

The seed drives what a run computes without changing how much work it
is, because the benchmark's spread is taken across seeds:

* advise: the recommend seed and the held-out targets' ``WorkloadSpec.seed``
  (``seed+5`` to ``seed+28``), as ``repro advise --smoke --seed`` does;
* sweep: ``perlmutter_like(noise_seed=)``, hence every measured time;
* mcts: the MCTS seed and ``perlmutter_like(noise_seed=)``.

The searched programs keep ``WorkloadSpec.seed`` 0 and advise trains with
noise seed 0, the CLI's defaults.  A program's seed shapes its DAG, and
the training noise shapes the labels and so the trees Algorithm 1 fits:
between seeds 0 and 1 the DAG seed moved advise's work from 27 s to
16 s and the MCTS space's ``count()`` from 4.1 s to 6.3 s, and over noise
seeds 1 to 5 advise's work ranged from 17 to 28 s at equal host speed.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.advisor import ArtifactStore, publish_artifacts, recommend
from repro.advisor.publish import union_artifact, workload_artifact
from repro.core.pipeline import PipelineResult
from repro.errors import ArtifactError, ScheduleError
from repro.exec import build_evaluator
from repro.ml import FeatureExtractor, search_tree_size, training_error
from repro.ml.labeling import LabelingConfig, label_by_performance
from repro.orchestrate import partition_ranges, plan_rules, run_range_sharded_search
from repro.platform.presets import perlmutter_like
from repro.rules import extract_rulesets
from repro.schedule.space import DesignSpace
from repro.search.base import SearchResult
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.mcts import MctsConfig, MctsSearch
from repro.sim.measure import MeasurementConfig
from repro.transfer.matrix import transfer_matrix_from
from repro.workloads import WorkloadSpec, build_workload, get_suite, rules_for_specs
from repro.workloads.generalization import reduce_workload_rules

from perfbench.digests import recommendation_digest, samples_digest, store_digest
from perfbench.layers import LayerTimers, TimingEvaluator

N_STREAMS = 2
#: ``repro advise --smoke`` measures each schedule once.
ADVISE_MEASUREMENT = MeasurementConfig(max_samples=1)
#: Samples re-measured on a fresh evaluator after a search, as a check
#: that holds for every seed, golden or not.
RECHECK_SAMPLES = 8
#: Shard pool size of ``sweep``: one per core of the 2-core host.
SHARD_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads."""

    train: Tuple[WorkloadSpec, ...]
    target: Tuple[str, Dict[str, object]]
    n_targets: int
    sweep: Tuple[Tuple[str, Dict[str, object]], ...]
    n_ranges: int
    mcts: Tuple[str, Dict[str, object]]
    mcts_iterations: int


#: ``repro advise --smoke`` trains on the smoke suite.  Its halo3d spec is
#: left out: with it one advise run takes about 45 s of work, and the
#: benchmark's 70 runs must fit in under an hour.  ``sweep`` covers halo3d.
ADVISE_TRAIN = tuple(s for s in get_suite("smoke").specs if s.family != "halo3d")

FULL = Sizes(
    train=ADVISE_TRAIN,
    target=("layered_random", {"layers": 3, "width": 2, "edge_p": 0.7}),
    n_targets=24,
    sweep=(
        ("spmv", {"scale": 0.025}),
        ("halo3d", {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"}),
        ("fork_join", {"stages": 2, "branches": 2, "depth": 1}),
    ),
    n_ranges=4,
    mcts=("layered_random", {"layers": 4, "width": 3, "edge_p": 0.5}),
    mcts_iterations=3000,
)

#: A few-second variant of every workload, for the benchmark's own tests.
REDUCED = Sizes(
    train=tuple(s for s in FULL.train if s.family in ("tree_allreduce", "wavefront", "stencil_reduce")),
    target=FULL.target,
    n_targets=2,
    sweep=(("tree_allreduce", {"rounds": 1, "elems": 16384}), ("wavefront", {"width": 2, "height": 2})),
    n_ranges=2,
    mcts=("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),
    mcts_iterations=40,
)


@dataclass
class Unit:
    """One timed execution of a workload and what it produced."""

    #: Checked output name -> digest, or a list of digests.
    outputs: Dict[str, object]
    #: Schedules evaluated by the search layer.
    schedules: int
    #: Invariant violations (each one a failed check).
    problems: List[str] = field(default_factory=list)
    recommend_ms: List[float] = field(default_factory=list)


@dataclass
class Traced:
    """A traced execution: its checked unit, the traced phase's wall, the
    part of that wall inside layer timers and, where the traced form does
    not run the end-to-end calls, the untraced wall of that same form."""

    unit: Unit
    work_s: float
    covered_s: float
    untraced_s: Optional[float] = None


class _NoTimers(LayerTimers):
    """Stand-in for an untraced run of the decomposed code."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    def add(self, name, n=1):
        pass


def _evaluator(program, machine, config, timers: LayerTimers):
    """``build_evaluator`` for ``program``, timed and proxied when traced."""
    if isinstance(timers, _NoTimers):
        return build_evaluator(program, machine.with_ranks(program.n_ranks), config)
    with timers.span("sim.compile_s"):
        inner = build_evaluator(program, machine.with_ranks(program.n_ranks), config)
    timers.add("sim.compiles")
    return TimingEvaluator(inner, timers)


def _build_and_count(specs, timers: LayerTimers):
    programs, counts = [], []
    for spec in specs:
        with timers.span("workloads.build_s"):
            programs.append(build_workload(spec))
        with timers.span("schedule.count_s"):
            counts.append(DesignSpace(programs[-1], n_streams=N_STREAMS).count())
    return programs, counts


def _compile_all(programs, machine, config, timers: LayerTimers) -> None:
    for program in programs:
        _evaluator(program, machine, config, timers).close()


def _recheck(result: SearchResult, program, machine, config, label: str) -> List[str]:
    """Re-measure evenly spaced samples on a fresh evaluator: a sharded,
    batched or memoized measurement must equal a lone one bit for bit."""
    n = len(result.samples)
    picks = sorted({i * n // RECHECK_SAMPLES for i in range(RECHECK_SAMPLES)}) if n else []
    evaluator = build_evaluator(program, machine.with_ranks(program.n_ranks), config)
    try:
        bad = [
            i
            for i in picks
            if evaluator.evaluate(result.samples[i].schedule).time != result.samples[i].time
        ]
    finally:
        evaluator.close()
    return [f"{label}: sample {i} differs on re-measurement" for i in bad]


# ----------------------------------------------------------------------
# advise: `repro advise --smoke` through its public functions
@dataclass
class AdviseState:
    seed: int
    sizes: Sizes
    machine: object
    specs: List[WorkloadSpec]
    counts: List[int]
    targets: List[object]
    store_root: str


def _target_specs(seed: int, sizes: Sizes) -> List[WorkloadSpec]:
    family, params = sizes.target
    return [WorkloadSpec(family, params, seed=seed + 5 + i) for i in range(sizes.n_targets)]


def advise_setup(seed: int, sizes: Sizes, tmp: str, timers: Optional[LayerTimers] = None) -> AdviseState:
    timers = timers or _NoTimers()
    machine = perlmutter_like()
    specs = list(sizes.train)
    programs, counts = _build_and_count(specs, timers)
    _compile_all(programs, machine, ADVISE_MEASUREMENT, timers)
    with timers.span("workloads.build_s"):
        targets = [build_workload(t) for t in _target_specs(seed, sizes)]
    with timers.span("advisor.publish_s"):
        store_root = tempfile.mkdtemp(prefix="store-", dir=tmp)
    return AdviseState(seed, sizes, machine, specs, counts, targets, store_root)


def _recommend_all(state: AdviseState, store, timers: LayerTimers):
    recs, latencies = [], []
    for program in state.targets:
        t0 = time.perf_counter()
        with timers.span("advisor.recommend_s"):
            rec = recommend(
                program, store, machine=state.machine.name, n_streams=N_STREAMS, seed=state.seed
            )
        latencies.append((time.perf_counter() - t0) * 1e3)
        timers.add("advisor.candidates", rec.n_candidates)
        recs.append(rec)
    return recs, latencies


def advise_check(state: AdviseState, raw) -> Unit:
    per_workload, store, recs, latencies = raw
    unit = Unit(
        outputs={
            "store": store_digest(state.store_root),
            "recommendations": [recommendation_digest(r) for r in recs],
        },
        schedules=sum(state.counts),
        recommend_ms=latencies,
    )
    evaluated = sum(len(wl.result.search) for wl in per_workload)
    if evaluated != unit.schedules:
        unit.problems.append(f"pipelines evaluated {evaluated} schedules, spaces hold {unit.schedules}")
    keys = store.keys()
    if len(keys) != len(state.specs) + 1:
        unit.problems.append(f"store holds {len(keys)} artifacts, expected {len(state.specs) + 1}")
    for key in keys:
        try:
            store.load(key, validate=True)
        except ArtifactError as exc:
            unit.problems.append(f"artifact {key}: {exc}")
    for i, (program, rec) in enumerate(zip(state.targets, recs)):
        if rec.schedule is None:
            continue
        try:
            DesignSpace(program, n_streams=N_STREAMS).validate_schedule(rec.schedule)
        except ScheduleError as exc:
            unit.problems.append(f"recommendation {i}: {exc}")
    return unit


def advise_run(state: AdviseState):
    per_workload = rules_for_specs(
        state.specs, machine=state.machine, n_streams=N_STREAMS, measurement=ADVISE_MEASUREMENT
    )
    yield
    store = ArtifactStore(state.store_root)
    publish_artifacts(store, per_workload, machine=state.machine.name, n_streams=N_STREAMS)
    yield
    recs, latencies = _recommend_all(state, store, _NoTimers())
    return per_workload, store, recs, latencies


def _traced_rules(task, machine, timers: LayerTimers):
    """One ``workload-rules`` plan task, as ``DesignRulePipeline.run``
    does it, call by call."""
    spec = task.spec
    with timers.span("workloads.build_s"):
        program = build_workload(spec)
    with timers.span("schedule.enumerate_s"):
        space = DesignSpace(program, n_streams=task.n_streams)
    evaluator = _evaluator(program, machine, task.measurement, timers)
    with timers.span("schedule.enumerate_s"):
        search = ExhaustiveSearch(space, evaluator).run(None)
        unique = search.unique()
    evaluator.close()
    timers.add("schedule.schedules", search.n_iterations)
    timers.add("search.iterations", search.n_iterations)
    timers.add("search.unique", len(unique))
    with timers.span("ml.label_s"):
        labeling = label_by_performance(unique.times(), LabelingConfig())
    with timers.span("ml.featurize_s"):
        extractor = FeatureExtractor()
        features = extractor.fit_transform(unique.schedules())
    with timers.span("ml.fit_s"):
        tree, trace = search_tree_size(features.matrix, labeling.labels, criterion="gini")
        err = training_error(tree, features.matrix, labeling.labels)
    timers.add("ml.trees_fit", len(trace.leaf_nodes))
    with timers.span("rules.extract_s"):
        result = PipelineResult(
            search=unique,
            labeling=labeling,
            extractor=extractor,
            features=features,
            tree=tree,
            hyperparam_trace=trace,
            rulesets=extract_rulesets(tree, features.features),
            training_error=err,
        )
        return reduce_workload_rules(spec, program, result)


def advise_traced(seed: int, sizes: Sizes, tmp: str, timers: LayerTimers) -> Traced:
    state = advise_setup(seed, sizes, tmp, timers)
    machine = state.machine
    t0 = time.perf_counter()
    covered0 = timers.total_s()
    with timers.span("orchestrate.plan_s"):
        plan = plan_rules(state.specs, machine=machine, n_streams=N_STREAMS, measurement=ADVISE_MEASUREMENT)
    per_workload = [_traced_rules(task, machine, timers) for task in plan.tasks]
    with timers.span("transfer.matrix_s"):
        matrix = transfer_matrix_from(per_workload)
        advisories = [(c.source, c.target, c.mean_discrimination) for c in matrix.advisories()]
    with timers.span("advisor.artifact_s"):
        artifacts = [workload_artifact(wl, machine=machine.name, n_streams=N_STREAMS) for wl in per_workload]
    with timers.span("transfer.union_s"):
        union = union_artifact(per_workload, machine=machine.name, n_streams=N_STREAMS, advisories=advisories)
    store = ArtifactStore(state.store_root)
    with timers.span("advisor.publish_s"):
        for artifact in artifacts + ([union] if union is not None else []):
            store.publish(artifact)
    recs, latencies = _recommend_all(state, store, timers)
    work_s = time.perf_counter() - t0
    covered = timers.total_s() - covered0
    timers.add("advisor.store_bytes", sum(os.path.getsize(store.path_of(k)) for k in store.keys()))
    return Traced(advise_check(state, (per_workload, store, recs, latencies)), work_s, covered)


# ----------------------------------------------------------------------
# sweep: range-sharded exhaustive search over three whole spaces
@dataclass
class SweepState:
    seed: int
    sizes: Sizes
    machine: object
    specs: List[WorkloadSpec]
    programs: List[object]
    counts: List[int]


def sweep_setup(seed: int, sizes: Sizes, tmp: str, timers: Optional[LayerTimers] = None) -> SweepState:
    timers = timers or _NoTimers()
    machine = perlmutter_like(noise_seed=seed)
    specs = [WorkloadSpec(family, params) for family, params in sizes.sweep]
    programs, counts = _build_and_count(specs, timers)
    _compile_all(programs, machine, MeasurementConfig(), timers)
    return SweepState(seed, sizes, machine, specs, programs, counts)


def sweep_check(state: SweepState, results: List[SearchResult]) -> Unit:
    unit = Unit(outputs={}, schedules=sum(state.counts))
    for spec, program, count, result in zip(state.specs, state.programs, state.counts, results):
        unit.outputs[spec.family] = samples_digest(result)
        if result.n_iterations != count or len(result.samples) != count:
            unit.problems.append(f"{spec.family}: swept {result.n_iterations} of {count} schedules")
        unit.problems += _recheck(result, program, state.machine, MeasurementConfig(), spec.family)
    return unit


def sweep_run(state: SweepState):
    results = []
    for i, spec in enumerate(state.specs):
        if i:
            yield
        run = run_range_sharded_search(
            spec,
            machine=state.machine,
            n_streams=N_STREAMS,
            n_shards=state.sizes.n_ranges,
            measurement=MeasurementConfig(),
            shard_workers=SHARD_WORKERS,
        )
        results.append(run.result)
    return results


def sweep_in_process(state: SweepState, timers: LayerTimers) -> List[SearchResult]:
    """The sharded sweep's ranges, one after another in this process,
    each through a ``seek`` cursor exactly as a shard worker runs it.
    Layer timers cannot reach into shard workers, so this is the traced
    form of ``sweep_run``."""
    results = []
    for spec in state.specs:
        with timers.span("workloads.build_s"):
            program = build_workload(spec)
        with timers.span("schedule.count_s"):
            total = DesignSpace(program, n_streams=N_STREAMS).count()
        with timers.span("orchestrate.plan_s"):
            ranges = partition_ranges(total, state.sizes.n_ranges)
            merged = SearchResult(strategy="exhaustive")
        for r in ranges:
            with timers.span("workloads.build_s"):
                program = build_workload(spec)
            with timers.span("orchestrate.plan_s"):
                space = DesignSpace(program, n_streams=N_STREAMS)
                cursor = space.seek(r.start)
            evaluator = _evaluator(program, state.machine, MeasurementConfig(), timers)
            with timers.span("schedule.enumerate_s"):
                shard = ExhaustiveSearch(space, evaluator, cursor=cursor, limit=r.limit).run()
            evaluator.close()
            timers.add("schedule.schedules", shard.n_iterations)
            with timers.span("orchestrate.plan_s"):
                merged.samples.extend(shard.samples)
                merged.n_iterations += shard.n_iterations
        timers.add("search.iterations", merged.n_iterations)
        timers.add("search.unique", len(merged.unique()))
        results.append(merged)
    return results


def sweep_traced(seed: int, sizes: Sizes, tmp: str, timers: LayerTimers) -> Traced:
    """The in-process sweep, untraced (the single-process baseline for
    parallel efficiency, and the reference for trace overhead), then
    traced."""
    state = sweep_setup(seed, sizes, tmp, timers)
    t0 = time.perf_counter()
    sweep_in_process(state, _NoTimers())
    untraced_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    covered0 = timers.total_s()
    results = sweep_in_process(state, timers)
    work_s = time.perf_counter() - t0
    return Traced(sweep_check(state, results), work_s, timers.total_s() - covered0, untraced_s)


# ----------------------------------------------------------------------
# mcts: the paper's serial MCTS, one schedule per evaluator call
@dataclass
class MctsState:
    seed: int
    sizes: Sizes
    machine: object
    program: object
    space: DesignSpace
    evaluator: object


def mcts_setup(seed: int, sizes: Sizes, tmp: str, timers: Optional[LayerTimers] = None) -> MctsState:
    timers = timers or _NoTimers()
    machine = perlmutter_like(noise_seed=seed)
    family, params = sizes.mcts
    (program,), _ = _build_and_count([WorkloadSpec(family, params)], timers)
    space = DesignSpace(program, n_streams=N_STREAMS)
    evaluator = _evaluator(program, machine, MeasurementConfig(), timers)
    return MctsState(seed, sizes, machine, program, space, evaluator)


def _mcts_search(state: MctsState) -> SearchResult:
    config = MctsConfig(seed=state.seed, rollout_batch=1)
    try:
        return MctsSearch(state.space, state.evaluator, config).run(state.sizes.mcts_iterations)
    finally:
        state.evaluator.close()


def mcts_run(state: MctsState):
    yield from ()  # one step: the search is a single call
    return _mcts_search(state)


def mcts_check(state: MctsState, result: SearchResult) -> Unit:
    best = result.best()
    unit = Unit(
        outputs={"search": f"{samples_digest(result)}/{best.schedule.fingerprint()[:16]}"},
        schedules=result.n_iterations,
    )
    if result.n_iterations != state.sizes.mcts_iterations:
        unit.problems.append(f"ran {result.n_iterations} of {state.sizes.mcts_iterations} iterations")
    if best.time != min(s.time for s in result.samples):
        unit.problems.append("best() is not the fastest sample")
    unit.problems += _recheck(result, state.program, state.machine, MeasurementConfig(), "mcts")
    return unit


def mcts_traced(seed: int, sizes: Sizes, tmp: str, timers: LayerTimers) -> Traced:
    state = mcts_setup(seed, sizes, tmp, timers)
    t0 = time.perf_counter()
    covered0 = timers.total_s()
    with timers.span("search.policy_s"):
        result = _mcts_search(state)
    work_s = time.perf_counter() - t0
    covered = timers.total_s() - covered0
    timers.add("schedule.schedules", result.n_iterations)
    timers.add("search.iterations", result.n_iterations)
    timers.add("search.unique", len(result.unique()))
    return Traced(mcts_check(state, result), work_s, covered)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    traced: Callable


WORKLOADS = {
    "advise": Workload(advise_setup, advise_run, advise_check, advise_traced),
    "sweep": Workload(sweep_setup, sweep_run, sweep_check, sweep_traced),
    "mcts": Workload(mcts_setup, mcts_run, mcts_check, mcts_traced),
}

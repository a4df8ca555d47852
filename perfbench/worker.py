"""One fresh benchmark process, started by ``run.py``.

Prints one JSON object as its last stdout line.  The set-up wall runs
from ``--spawn-ts`` (``time.monotonic()`` in the parent just before it
started this process; the clock is system-wide) to the start of the
timed phase, so it includes interpreter start-up and importing
``repro``.  With ``--setup-only`` the process stops there.

Run directly only for debugging:
``python3 perfbench/worker.py --workload mcts --seed 0 --seconds 0 --trace 0
--spawn-ts 0 --tmp /some/dir`` (``setup_s`` is then meaningless).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics, in ``BENCHMARK.json`` order.  Times are layer self
#: times summed over the traced run (its set-up included).
LAYER_METRICS = (
    "workloads.build_s",
    "schedule.count_s",
    "schedule.enumerate_s",
    "schedule.schedules",
    "sim.compile_s",
    "sim.compiles",
    "sim.reference_s",
    "sim.reference_schedules",
    "sim.batch_s",
    "sim.batch_schedules",
    "sim.simulations",
    "exec.eval_calls",
    "exec.schedules_per_call",
    "exec.memo_hit_ratio",
    "search.policy_s",
    "search.unique_ratio",
    "ml.label_s",
    "ml.featurize_s",
    "ml.fit_s",
    "ml.trees_fit",
    "rules.extract_s",
    "transfer.matrix_s",
    "transfer.union_s",
    "advisor.artifact_s",
    "advisor.publish_s",
    "advisor.store_bytes",
    "advisor.recommend_s",
    "advisor.recommend_p50_ms",
    "advisor.candidates",
    "orchestrate.plan_s",
    "orchestrate.parallel_efficiency",
    "bench.trace_overhead",
    "bench.coverage",
    "machine.probe_s",
)

#: The outside-in timers must cover this share of the traced work wall.
MIN_COVERAGE = 0.95

#: Iterations of the calibration loop, and the loop's wall on the host
#: speed the gated times are scaled to (about a quiet 2 GHz core).
PROBE_ITERATIONS = 3_500_000
REFERENCE_S = 0.5


def probe() -> float:
    """Wall of a fixed pure-Python loop: the host's speed right now.

    On the 2-core host the benchmark was built on, this wall ranged from
    0.36 to 0.72 s within minutes, and the workloads' walls moved with it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    """Largest max-RSS of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(workload: str, timers, traced, untraced_work_s: float, probes) -> dict:
    """Per-layer metric values from one traced execution."""
    from perfbench.workloads import SHARD_WORKERS

    sec, cnt = timers.seconds, timers.counts
    # The traced sweep runs its ranges in-process, so it compares with the
    # untraced in-process wall, not with the sharded one.
    baseline = traced.untraced_s if traced.untraced_s is not None else untraced_work_s
    derived = {
        "exec.schedules_per_call": _ratio(cnt["exec.schedules"], cnt["exec.eval_calls"]),
        "exec.memo_hit_ratio": _ratio(cnt["exec.memo_hits"], cnt["exec.schedules"]),
        "search.unique_ratio": _ratio(cnt["search.unique"], cnt["search.iterations"]),
        "advisor.recommend_p50_ms": p50(traced.unit.recommend_ms),
        "orchestrate.parallel_efficiency": (
            traced.untraced_s / (SHARD_WORKERS * untraced_work_s) if workload == "sweep" else 0.0
        ),
        "bench.trace_overhead": traced.work_s / baseline - 1.0,
        "bench.coverage": traced.covered_s / traced.work_s,
        "machine.probe_s": statistics.mean(probes),
    }
    return {
        name: float(derived[name] if name in derived else sec.get(name, cnt.get(name, 0.0)))
        for name in LAYER_METRICS
    }


def timed_steps(steps, first_probe: float):
    """Drive a workload's timed phase, timing each step, with the
    calibration loop after every step.

    Returns the phase's result, the step walls and the probe walls
    (``first_probe``, taken just before the phase, then one per step).
    """
    walls, probes = [], [first_probe]
    while True:
        t0 = time.perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            walls.append(time.perf_counter() - t0)
            probes.append(probe())
            return stop.value, walls, probes
        walls.append(time.perf_counter() - t0)
        probes.append(probe())


def at_reference_speed(walls, probes) -> float:
    """Seconds the steps would take on a host that runs the probe in
    ``REFERENCE_S``: each step's wall scaled by the probes around it."""
    return sum(w * 2 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, w in enumerate(walls))


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str,
            spawn_ts: float, setup_only: bool = False, sizes=None) -> dict:
    """Set up, run the timed phase (and the traced run), check outputs."""
    from perfbench import digests
    from perfbench.layers import LayerTimers
    from perfbench.workloads import FULL, WORKLOADS

    sizes = sizes or FULL
    wl = WORKLOADS[workload]
    state = wl.setup(seed, sizes, tmp)
    setup_wall = time.monotonic() - spawn_ts
    first_probe = probe()
    result = {"setup_wall_s": setup_wall, "setup_s": setup_wall * REFERENCE_S / first_probe}
    if setup_only:
        return result

    golden = digests.golden_for(workload, seed) if sizes is FULL else None
    units, works, walls, probes = [], [], [], []
    phase_start = time.perf_counter()
    while True:
        raw, step_walls, step_probes = timed_steps(wl.run(state), first_probe)
        works.append(at_reference_speed(step_walls, step_probes))
        walls.append(sum(step_walls))
        probes += step_probes
        units.append(wl.check(state, raw))
        del raw
        # Whole units only; later units start from a fresh (untimed) set-up.
        if trace or time.perf_counter() - phase_start >= seconds:
            break
        state = wl.setup(seed, sizes, tmp)
        first_probe = probe()
    del state
    work_s = statistics.median(works)
    result.update(
        work_s=work_s,
        work_wall_s=statistics.median(walls),
        probes_s=probes,
        schedules_per_s=units[0].schedules / work_s,
        recommend_p50_ms=p50([ms for u in units for ms in u.recommend_ms]),
    )

    layers = None
    if trace:
        timers = LayerTimers()
        traced = wl.traced(seed, sizes, tmp, timers)
        if traced.unit.outputs != units[0].outputs:
            traced.unit.problems.append("traced run's digests differ from the untraced run's")
        units.append(traced.unit)
        layers = layer_metrics(workload, timers, traced, result["work_wall_s"], probes)
        if layers["bench.coverage"] < MIN_COVERAGE:
            raise RuntimeError(
                f"layer timers cover {layers['bench.coverage']:.1%} of the traced work, "
                f"below {MIN_COVERAGE:.0%}"
            )

    attempted = failed = 0
    problems = []
    for unit in units:
        attempted += digests.n_checked(unit.outputs)
        bad = digests.mismatches(unit.outputs, golden) + unit.problems
        failed += len(bad)
        problems += bad
    result.update(
        attempted=attempted,
        failed=min(failed, attempted),
        problems=problems,
        golden=golden is not None,
        outputs=units[0].outputs,
        peak_rss_mb=_peak_rss_mb(),
        layers=layers,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tmp,
        args.spawn_ts, setup_only=args.setup_only,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

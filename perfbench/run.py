"""End-to-end and per-layer benchmark of the design-rule system.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload advise --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``advise``: ``repro advise --smoke`` (without its halo3d spec) through its public functions;
* ``sweep``: range-sharded exhaustive search of three whole spaces;
* ``mcts``: the paper's serial MCTS, 3000 iterations.

Every run starts fresh processes.  The timed work runs in one worker
process; ``setup_s`` is the median over that worker and two more
set-up-only processes, one started before it and one after.

The host's speed drifts: a fixed calibration loop (``worker.probe``,
about 0.5 s) took from 0.36 to 0.72 s within minutes, and the workloads'
walls moved with it, by up to 40% between two back-to-back sets of runs.
So every worker times that loop right after set-up and after each step
of the timed phase, and the gated times are scaled to the loop's
reference speed: ``work_s`` sums each step's wall times 0.5 s over the
mean of the probes around it, and each set-up is scaled by the probe
that follows it.  Raw walls and probes go to stderr; the probes' mean is
the per-layer ``machine.probe_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (layer timers around public calls) in
one worker and prints the per-layer metrics.  Either way the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is nonzero when an output check failed.  ``--seconds`` is the
minimum length of the timed phase: the workload's fixed unit of work is
repeated, each time from a fresh set-up, until that much time has passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
#: Wall budget for a whole run, probes and set-up-only processes included.
RUN_TIMEOUT_S = 170.0


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics() -> dict:
    bench = declared()
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def spawn(args, tmp: str, deadline: float, setup_only: bool = False) -> dict:
    """Run one fresh worker process and return its JSON result."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", tmp,
    ] + (["--setup-only"] if setup_only else [])
    cmd += ["--spawn-ts", repr(time.monotonic())]
    # A session of its own, so a timeout also stops the shard workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def result_line(trace: int, main: dict, setups: list) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer ones."""
    if trace:
        values = main["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "work_s": main["work_s"],
            "schedules_per_s": main["schedules_per_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
    units = declared_metrics()[trace]
    if set(values) != set(units):
        raise RuntimeError(f"emitted metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        setups = []
        if not args.trace:
            setups.append(spawn(args, tmp, deadline, setup_only=True))
        main_result = spawn(args, tmp, deadline)
        setups.append(main_result)
        if not args.trace:
            setups.append(spawn(args, tmp, deadline, setup_only=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    line = result_line(args.trace, main_result, [s["setup_s"] for s in setups])
    diagnostic = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine.probe_s": main_result["probes_s"],
        "setups_s": [s["setup_s"] for s in setups],
        "setup_walls_s": [s["setup_wall_s"] for s in setups],
        "work_wall_s": main_result["work_wall_s"],
        "recommend_p50_ms": main_result["recommend_p50_ms"],
        "golden": main_result["golden"],
        "outputs": main_result["outputs"],
        "problems": main_result["problems"],
    }
    print(json.dumps(diagnostic), file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

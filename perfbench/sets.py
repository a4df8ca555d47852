"""Run sets of benchmark runs and report their spread and drift.

Each repetition runs every workload once, interleaved (advise, sweep,
mcts, advise, ...), every run in fresh processes through ``run.py``, with
the repetition's seed.  Interleaving spreads the host's slow and fast
spells over all workloads instead of handing a whole spell to one.

    python3 perfbench/sets.py run --seeds 1-10 --out .perfbench/set-a.jsonl
    python3 perfbench/sets.py report .perfbench/set-a.jsonl [.perfbench/set-b.jsonl]
    python3 perfbench/sets.py goldens .perfbench/set-a.jsonl ...

``report`` prints, per workload and end-to-end metric, the median, the
quartile spread ``(q3 - q1) / median`` (``statistics.quantiles(n=4)``),
and, given a second set, the drift of its median from the first set's
as a share of the first, next to the metric's bound from
``BENCHMARK.json``.  The calibration probe's median is shown per set so
a drift can be laid against the host's speed.

``goldens`` adds to ``perfbench/goldens.json`` the output digests of the
given records, per (workload, seed), when every record of that pair
passed its checks and all of them agree; an entry already there is never
replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def run_set(workloads, seeds, seconds: int, trace: int, out: str) -> None:
    with open(out, "a", encoding="utf-8") as fh:
        for seed in seeds:
            for workload in workloads:
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                wall = time.monotonic() - t0
                record = {
                    "workload": workload,
                    "seed": seed,
                    "trace": trace,
                    "exit": proc.returncode,
                    "wall_s": wall,
                    "result": _last_json(proc.stdout),
                    "diagnostic": _last_json(proc.stderr) or proc.stderr[-2000:],
                }
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                print(f"{workload:7s} seed {seed:3d} exit {proc.returncode} wall {wall:6.1f}s", flush=True)


def _load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _summary(records: list) -> dict:
    """{workload: {metric: [values]}} plus probe and wall lists."""
    out: dict = {}
    for rec in records:
        per = out.setdefault(rec["workload"], {"_probe": [], "_wall": [], "_failed": 0})
        per["_wall"].append(rec["wall_s"])
        if rec["result"] is None:
            per["_failed"] += 1
            continue
        per["_failed"] += int(not rec["result"]["correct"])
        per["_probe"].extend(rec["diagnostic"]["machine.probe_s"])
        for name, metric in rec["result"]["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def _spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(paths) -> None:
    bench = _declared()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    sets = [_summary(_load(p)) for p in paths]
    for workload in sets[0]:
        per = [s.get(workload, {}) for s in sets]
        print(f"{workload}: runs {[len(p['_wall']) for p in per]}, failed {[p['_failed'] for p in per]}, "
              f"mean run wall {[round(statistics.mean(p['_wall']), 1) for p in per]} s, "
              f"probe median {[round(statistics.median(p['_probe']), 3) for p in per if p['_probe']]} s")
        for name, (bound, better) in bounds.items():
            cols = []
            for p in per:
                vals = p.get(name, [])
                if len(vals) >= 2:
                    cols.append(f"median {statistics.median(vals):10.4f} spread {_spread(vals):6.3f}")
            line = f"  {name:16s} bound {bound:4.2f} | " + " | ".join(cols)
            if len(per) == 2 and len(per[0].get(name, [])) >= 2 and len(per[1].get(name, [])) >= 2:
                a, b = statistics.median(per[0][name]), statistics.median(per[1][name])
                worse = (b - a) / a if better == "lower" else (a - b) / a
                line += f" | second worse by {worse:+.3f}"
            print(line)
    total = sum(sum(p["_wall"]) for s in sets for p in s.values())
    print(f"total run wall {total:.0f} s")


def record_goldens(paths) -> None:
    from perfbench.digests import GOLDENS_PATH, load_goldens

    seen: dict = {}
    for path in paths:
        for rec in _load(path):
            key = (rec["workload"], str(rec["seed"]))
            ok = rec["exit"] == 0 and rec["result"]["correct"]
            seen.setdefault(key, []).append(rec["diagnostic"]["outputs"] if ok else None)
    goldens = load_goldens()
    for (workload, seed), outputs in sorted(seen.items()):
        if any(o is None or o != outputs[0] for o in outputs):
            print(f"{workload} seed {seed}: runs failed or disagree, not recorded")
        elif seed not in goldens.setdefault(workload, {}):
            goldens[workload][seed] = outputs[0]
            print(f"{workload} seed {seed}: recorded from {len(outputs)} runs")
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", nargs="+", default=None, help="default: every workload, in BENCHMARK.json order")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=10)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    for name in ("report", "goldens"):
        sub.add_parser(name).add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        workloads = args.workloads or [w["name"] for w in _declared()["workloads"]]
        run_set(workloads, _seeds(args.seeds), args.seconds, args.trace, args.out)
    elif args.cmd == "report":
        report(args.paths)
    else:
        sys.path.insert(0, ROOT)
        record_goldens(args.paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())

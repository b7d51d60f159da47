#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload rate_sweep --seeds 10 --seconds 40
    python3 perfbench/sweep.py --workload all --seeds 10 --trace 1 --write-baseline

Run from the repository root.  For every workload and seed it runs
``run.py`` once, then prints per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median.  ``--write-baseline`` stores the medians
and quartiles, with the environment, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    for line in proc.stdout.splitlines():
        if line.lstrip().startswith("host:"):
            print(f"  {workload} seed {seed} {line.strip()}", flush=True)
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {}
    for name in names:
        results = [run(name, seed, args.seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        print(f"{name}: {len(seeds)} seeds {seeds[0]}..{seeds[-1]}, {failed} failed outputs")
        summary[name] = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            stats = summarize(values)
            stats["unit"] = results[0]["metrics"][key]["unit"]
            summary[name][key] = stats
            print(f"  {key:<28} median {stats['median']:12.6g} {stats['unit']:<6} "
                  f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f}")
            print("    " + " ".join(f"{v:.6g}" for v in values))

    if args.write_baseline:
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        from worker import environment

        path = os.path.join(HERE, "baseline.json")
        baseline = {"workloads": {}}
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                baseline = json.load(fh)
        baseline["env"] = environment()
        baseline.setdefault("runs", {})[f"trace{args.trace}"] = {"seconds": args.seconds, "seeds": seeds}
        for name, metrics in summary.items():
            baseline["workloads"].setdefault(name, {}).update(metrics)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""The complimits benchmark: seeded CLI workloads, checked and timed.

    python3 perfbench/run.py --workload rate_sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Run from the repository root.  Each run starts fresh worker processes in a
hermetic environment (budget and backend variables unset, BLAS/OpenMP pools
pinned to one thread) that import ``complimits`` from ``src/``, build the
workload's inputs from the seed and call ``complimits.cli.main`` in-process
until the time is used, checking every output; the first run warms up untimed.

The host's cores change speed as other tenants load them, so times are
reported in reference seconds: wall time over the slowdown that an in-process
probe measures while it passes (``hostspeed.py``).  The raw wall time and the
slowdown are printed beside them.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb)
with wrappers absent.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics from spans that ``spans.py`` installs around
calls into each layer.  Human-readable lines come first; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import SpeedProbe  # noqa: E402
from spans import UNITS, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes per run whose set-up is timed; the last one runs the workload
UNSET = ("COMPLIMITS_TYPE_CLASS_BUDGET", "COMPLIMITS_ENUM_BUDGET", "COMPLIMITS_FORCE_PY")
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKER_GRACE_S = 120  # beyond its slice, before a worker counts as hung
QUERY_SIDE = ("cli", "optcode", "dispersion")
EXPECTED_DOMINANT = {"rate_sweep": "spectrum", "exact_tables": "+".join(QUERY_SIDE), "monte_carlo": "kernels"}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def hermetic_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET and not k.startswith("PYTHON")}
    env.update(dict.fromkeys(THREAD_POOLS, "1"))
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    return env


def spawn(root: str, workload: str, seed: int, slice_s: float, trace: int, setup_only: bool) -> dict:
    """Run one worker to completion and return its report plus its set-up
    time in reference seconds: from the spawn to the worker's first timed
    call, with the slowdown from one probe here and the worker's own."""
    out = os.path.join(root, ".perfbench-out", str(os.getpid()))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--slice", repr(slice_s), "--trace", str(trace), "--out", out] + (["--setup-only"] if setup_only else [])
    probe = SpeedProbe()
    probe.sample()
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=hermetic_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=slice_s + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker for {workload} did not finish") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker for {workload} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    probe.samples += [tuple(sample) for sample in report["setup_probe"]]
    report["setup_s"] = probe.reference_s(started, report["t_first_call"])
    report["setup_raw_s"] = report["t_first_call"] - started
    return report


def run_workload(root: str, name: str, seed: int, seconds: int, trace: int) -> dict:
    reports = [spawn(root, name, seed, seconds, trace, setup_only=i < SETUP_SAMPLES - 1) for i in range(SETUP_SAMPLES)]
    envs = {json.dumps(r["env"], sort_keys=True) for r in reports}
    if len(envs) != 1:
        raise BenchmarkError(f"workers saw different environments: {sorted(envs)}")
    main = reports[-1]
    runs = [run for run in main["runs"] if not run["warmup"]]
    plain = [run["wall_s"] for run in runs if not run["traced"]]
    result = {
        "workload": name,
        "seed": seed,
        "env": main["env"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "failures": main["failures"],
        "wall_s": plain,
        "wall_raw_s": [run["wall_raw_s"] for run in runs if not run["traced"]],
        "slowdown": [run["slowdown"] for run in runs if not run["traced"]],
        "setup_s": [r["setup_s"] for r in reports],
        "setup_raw_s": [r["setup_raw_s"] for r in reports],
        "peak_rss_mb": main["rss_mb"],
        "cmd_s": [run["cmd_s"] for run in runs if not run["traced"]],
    }
    if trace:
        layers = [run["layers"] for run in runs if run["traced"]]
        traced_wall = statistics.median(run["wall_s"] for run in runs if run["traced"])
        result["layers"] = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        result["layers"]["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0
        result["layer_self_s"] = {key.split(".")[0]: v for key, v in result["layers"].items() if key.endswith(".self_s")}
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {key: {"value": value, "unit": UNITS[key.split(".", 1)[1]]} for key, value in result["layers"].items()}
    return {
        "wall_s": {"value": statistics.median(result["wall_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def report(result: dict, trace: int, baseline: dict | None) -> None:
    name, env = result["workload"], result["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} backend={env['backend']}")
    walls, setups = result["wall_s"], result["setup_s"]
    label, worst = tail(walls)
    print(f"{name} seed={result['seed']}: {len(walls)} untraced runs after a warm-up")
    print(f"  wall_s       {statistics.median(walls):10.4f} s   median; {label}: {worst:.4f} s")
    for i, cmd in enumerate(WORKLOADS[name](result["seed"]).commands):
        print(f"    {cmd.name:<16} {statistics.median(c[i] for c in result['cmd_s']):10.4f} s   median")
    print(f"  setup_s      {statistics.median(setups):10.4f} s   median of {len(setups)} processes")
    print(f"  host: slowdown {statistics.median(result['slowdown']):.3f} (median of runs); raw wall time "
          f"{statistics.median(result['wall_raw_s']):.4f} s, raw set-up {statistics.median(result['setup_raw_s']):.4f} s")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:10.1f} MB  after the first run")
    print(f"  failed_frac  {result['failed'] / result['attempted']:10.4f} 1   "
          f"{result['failed']} of {result['attempted']} outputs failed")
    for failure in result["failures"][:20]:
        print(f"    FAILED {failure}")
    if trace:
        total = sum(result["layer_self_s"].values())
        shares = sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("  layer self time: " + ", ".join(f"{k} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in shares))
        print(f"  dominant layer: {dominant(result['layer_self_s'])} (expected {EXPECTED_DOMINANT[name]})")
        for key, value in result["layers"].items():
            print(f"  {key:<28} {value:14.6g} {UNITS[key.split('.', 1)[1]]}")
    compare(result, trace, baseline)


def dominant(self_s: dict) -> str:
    """Largest layer by self time, with the query-and-output side (cli,
    optcode, dispersion) counted as one group."""
    group = sum(self_s[k] for k in QUERY_SIDE)
    top = max((k for k in self_s if k not in QUERY_SIDE), key=self_s.get)
    return "+".join(QUERY_SIDE) if group > self_s[top] else top


def compare(result: dict, trace: int, baseline: dict | None) -> None:
    """Print the change against the recorded baseline, same backend only."""
    if baseline is None:
        return
    if baseline["env"]["backend"] != result["env"]["backend"]:
        print(f"  baseline comparison refused: backend {result['env']['backend']} here, "
              f"{baseline['env']['backend']} in the baseline")
        return
    base = baseline["workloads"].get(result["workload"], {})
    for key, metric in metrics_of(result, trace).items():
        if key in base and base[key]["median"]:
            change = metric["value"] / base[key]["median"] - 1.0
            print(f"  vs baseline  {key:<28} {100 * change:+7.2f}%  (baseline median {base[key]['median']:.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("src/complimits/cli.py", "tests/_oracles.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    baseline_path = os.path.join(HERE, "baseline.json")
    baseline = None
    if os.path.isfile(baseline_path):
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, args.trace)
            report(result, args.trace, baseline)
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics_of(result, args.trace).items()})
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(root, ".perfbench-out"))
        except OSError:
            pass
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

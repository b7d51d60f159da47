"""One benchmark process: set up a workload, run it repeatedly, check it.

Started by ``run.py`` in a fresh interpreter with a hermetic environment.
Runs the workload's commands in-process through ``complimits.cli.main`` in
cycles (one untraced run; with ``--trace 1`` also one traced run) until its
time slice is used, checks every output, and prints one JSON line for
``run.py``.  The first cycle is a warm-up: its outputs are checked and its
peak memory reported, but its times are marked and left out of the medians.
At least one cycle follows it.  A ``hostspeed.SpeedProbe`` runs from the
start of set-up to the end, and every time is reported in its reference
seconds, with the raw wall time beside it.  ``t_first_call`` and the probe samples are
``time.perf_counter()`` readings, which are system-wide on Linux
(CLOCK_MONOTONIC), so the parent can measure set-up time from the spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def environment() -> dict:
    import numpy

    import complimits

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": complimits.backend_name(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=float, required=True, help="seconds of runs after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for command outputs")
    parser.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from hostspeed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        return measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe) -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import complimits.cli

    from checks import Checker
    from workloads import build

    if not os.path.abspath(complimits.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"complimits imported from {complimits.__file__}, not from this checkout")
    workload = build(args.workload, args.seed)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        checker = Checker(workload, root, json.load(fh))

    result = {"env": environment(), "runs": [], "attempted": 0, "failed": 0, "failures": []}
    modes = [False, True] if args.trace else [False]
    result["t_first_call"] = t_first = time.perf_counter()
    probe.sample()  # closes set-up's interval; the runs' intervals start after it
    result["setup_probe"] = [s for s in probe.samples if s[0] < t_first] + probe.samples[-1:]
    if args.setup_only:
        print(json.dumps(result))
        return 0
    os.makedirs(args.out, exist_ok=True)
    try:
        while True:
            cycle_start = time.perf_counter()
            warmup = not result["runs"]
            for traced in modes:
                run = run_once(workload, checker, args.out, traced, result, probe)
                result.setdefault("rss_mb", run.pop("rss_mb"))  # first run, before any check
                result["runs"].append({**run, "warmup": warmup})
            if not warmup and 2 * time.perf_counter() - cycle_start > t_first + args.slice:  # next would overrun
                break
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_once(workload, checker, out_dir, traced, result, probe) -> dict:
    """Run every command of the workload once, then check the outputs.

    Times are reference seconds of ``probe``; per-layer times are scaled by
    the run's slowdown, so they add up to its ``wall_s``."""
    from complimits import cli

    from spans import TIME_UNITS, UNITS, Tracer

    tracer = Tracer() if traced else None
    entry = cli.main
    if tracer is not None:
        tracer.install()
        entry = tracer.span("cli", cli.main)
    codes, spans = [], []
    probe.sample()
    try:
        start = time.perf_counter()
        for cmd in workload.commands:
            t0 = time.perf_counter()
            try:
                codes.append(entry([*cmd.argv, "--output", os.path.join(out_dir, cmd.name + ".csv")]))
            except Exception as exc:  # noqa: BLE001 - an uncaught program error is a failed output
                codes.append(f"{type(exc).__name__}: {exc}")
            spans.append((t0, time.perf_counter()))
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe.sample()
    slowdown = probe.slowdown_in(start, end)
    run = {"traced": traced, "wall_s": probe.reference_s(start, end), "wall_raw_s": end - start,
           "slowdown": slowdown, "cmd_s": [probe.reference_s(t0, t1) for t0, t1 in spans],
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    rows = {}
    for cmd, code in zip(workload.commands, codes):
        result["attempted"] += 1
        if code != 0:
            failures = [f"{cmd.name}: exit {code}"]
        else:
            rows[cmd.name], failures = checker.check(cmd, os.path.join(out_dir, cmd.name + ".csv"))
        if failures:
            result["failed"] += 1
            result["failures"].extend(failures)
    if tracer is not None:
        metrics = tracer.metrics()
        run["layers"] = {k: v / slowdown if UNITS[k.split(".", 1)[1]] in TIME_UNITS else v for k, v in metrics.items()}
        result["attempted"] += 1
        if len(rows) == len(workload.commands):
            expected = {
                "spectrum.calls": workload.expected("spectra", rows),
                "spectrum.masses": workload.expected("masses", rows),
                "kernels.transitions": workload.expected("transitions", rows),
                "cli.rows": workload.expected("rows", rows),
                "binning.trials": workload.expected("trials", rows),
            }
            missed = [f"{k}={metrics[k]} (expected {v})" for k, v in expected.items() if metrics[k] != v]
        else:
            missed = ["outputs missing, counts not checked"]
        if missed:
            result["failed"] += 1
            result["failures"].append("trace self-check: " + ", ".join(missed))
    return run


if __name__ == "__main__":
    raise SystemExit(main())

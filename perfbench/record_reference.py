#!/usr/bin/env python3
"""Record the default-seed reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the repository root.  Every workload runs once at the default seed;
outputs must pass the seed-independent checks before a row count and evenly
spaced rows of each are written to ``perfbench/reference.json``.  Re-record
only when a change to the program is meant to change its outputs, and say
so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    from complimits import cli

    from checks import Checker, read_output, sample_reference
    from workloads import DEFAULT_SEED, WORKLOADS, build

    out_dir = os.path.join(root, ".perfbench-out", "record")
    os.makedirs(out_dir, exist_ok=True)
    reference = {"seed": DEFAULT_SEED, "commands": {}}
    try:
        for name in WORKLOADS:
            workload = build(name, DEFAULT_SEED)
            checker = Checker(workload, root, None)
            for cmd in workload.commands:
                path = os.path.join(out_dir, cmd.name + ".csv")
                if cli.main([*cmd.argv, "--output", path]) != 0:
                    raise SystemExit(f"{cmd.name} failed")
                _, failures = checker.check(cmd, path)
                if failures:
                    raise SystemExit("\n".join(failures))
                reference["commands"][cmd.name] = sample_reference(cmd, read_output(path)[1])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(_format(reference))
    return 0


def _format(reference: dict) -> str:
    """JSON with one sampled row per line, so re-recordings diff row by row."""
    commands = []
    for name, entry in reference["commands"].items():
        rows = ",\n   ".join(json.dumps(row) for row in entry["sample"])
        commands.append(f' {json.dumps(name)}: {{"rows": {entry["rows"]}, "sample": [\n   {rows}]}}')
    return f'{{"seed": {reference["seed"]}, "commands": {{\n' + ",\n".join(commands) + "\n}}\n"


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Byte-compare the exports of two builds of the bench drivers.

Usage:
    python3 tools/compare_exports.py BEFORE_BUILD AFTER_BUILD [--work DIR]

BEFORE_BUILD and AFTER_BUILD are CMake build directories (each holds
bench/fig04_tail_breakdown, bench/fleet_sim and bench/fig03_slo_vision).
Each side runs the same driver invocations in its own directory:

  fig04     fig04's CI smoke: --reps=1 --threads=2 with the Chrome trace,
            metrics, decisions and report exports
  fleet16   a 4-endpoint fleet over gen:16 with all six streams on,
            lifecycles sampled 1-in-8
  fleet     the default fleet_sim (gen:256, 64 endpoints, 1.2M requests)
            with the five streams perfbench's fleet-poisson-obs writes
            (metrics, report, decisions, rollup and alerts, lifecycles
            sampled 1-in-64)
  fig03     fig03_slo_vision --reps=1 --metrics-out

Every output file and each driver's stdout are compared byte for byte,
except stdout lines that report host wall time, which differ run to run.
Exit status: 0 when everything matches, 1 when anything differs (each
differing file is named), 2 when a driver fails or the arguments are bad.
The run directories are kept when something differs, for inspection.

Give the same build twice to check that the exports repeat run to run.
"""

import argparse
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile

# (case name, driver, arguments); output paths are relative to the case's
# run directory.
CASES = [
    ("fig04", "fig04_tail_breakdown",
     ["--reps=1", "--threads=2", "--trace-out=trace.json",
      "--metrics-out=metrics.jsonl", "--decisions-out=decisions.jsonl",
      "--report-out=report.json"]),
    ("fleet16", "fleet_sim",
     ["--catalog=gen:16", "--endpoints=4", "--requests=20000",
      "--duration=60", "--threads=1", "--sample-rate=8",
      "--trace-out=trace.json", "--metrics-out=metrics.jsonl",
      "--decisions-out=decisions.jsonl", "--report-out=report.json",
      "--rollup-out=rollup.jsonl", "--alerts-out=alerts.jsonl"]),
    ("fleet", "fleet_sim",
     ["--sample-rate=64", "--metrics-out=metrics.jsonl",
      "--report-out=report.json", "--decisions-out=decisions.jsonl",
      "--rollup-out=rollup.jsonl", "--alerts-out=alerts.jsonl"]),
    ("fig03", "fig03_slo_vision", ["--reps=1", "--metrics-out=metrics.jsonl"]),
]

STDOUT = "stdout.txt"
# Host wall time, e.g. fleet_sim's "Drain: ... 3.18 s wall, 377570 requests/s
# wall". Simulated times never use the word.
HOST_TIME = re.compile(r"\bwall\b")


def run_case(build, case, driver, args, run_dir):
    """Runs one driver in run_dir; returns None or an error message."""
    binary = os.path.join(os.path.abspath(build), "bench", driver)
    if not os.access(binary, os.X_OK):
        return f"{binary} is missing; build the bench drivers first"
    os.makedirs(run_dir)
    proc = subprocess.run([binary] + args, cwd=run_dir, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        return (f"{case}: {driver} exited {proc.returncode} in {run_dir}\n"
                f"{proc.stderr.strip()}")
    kept = [line for line in proc.stdout.splitlines(keepends=True)
            if not HOST_TIME.search(line)]
    with open(os.path.join(run_dir, STDOUT), "w") as out:
        out.writelines(kept)
    return None


def compare_case(case, before_dir, after_dir):
    """Returns the files of one case that differ (or exist on one side)."""
    before = set(os.listdir(before_dir))
    after = set(os.listdir(after_dir))
    differing = []
    for name in sorted(before | after):
        label = f"{case}/{name}"
        if name not in after:
            differing.append(f"{label} (only before)")
        elif name not in before:
            differing.append(f"{label} (only after)")
        elif not filecmp.cmp(os.path.join(before_dir, name),
                             os.path.join(after_dir, name), shallow=False):
            differing.append(label)
    return differing


def main():
    parser = argparse.ArgumentParser(
        description="Byte-compare the bench drivers' exports of two builds.")
    parser.add_argument("before", help="build directory of the baseline")
    parser.add_argument("after", help="build directory of the change")
    parser.add_argument("--work", help="directory for the runs (default: a "
                        "fresh temporary directory)")
    args = parser.parse_args()

    work = args.work or tempfile.mkdtemp(prefix="compare_exports.")
    os.makedirs(work, exist_ok=True)
    differing = []
    compared = 0
    for case, driver, driver_args in CASES:
        dirs = {}
        for side, build in (("before", args.before), ("after", args.after)):
            dirs[side] = os.path.join(work, side, case)
            if os.path.exists(dirs[side]):
                shutil.rmtree(dirs[side])
            error = run_case(build, case, driver, driver_args, dirs[side])
            if error:
                print(error, file=sys.stderr)
                return 2
        case_diffs = compare_case(case, dirs["before"], dirs["after"])
        compared += len(os.listdir(dirs["before"]))
        differing.extend(case_diffs)
        print(f"{case}: {len(os.listdir(dirs['before']))} files, "
              f"{'identical' if not case_diffs else f'{len(case_diffs)} differ'}")

    if differing:
        for label in differing:
            print(f"DIFFERS: {label}")
        print(f"{len(differing)} of {compared} files differ; runs kept in {work}")
        return 1
    print(f"all {compared} files identical")
    if not args.work:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())

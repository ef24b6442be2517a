#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--save <dir>]

Builds dsouth_suite from this checkout's sources into .bench_build/suite
(configure once, incremental afterwards), runs it, checks that every
metric BENCHMARK.json names came out with its unit, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of standard output: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Build and program logs go
to standard error. The exit code is 0 only when every check passed.
--save additionally writes the result, with the program's advisory fields,
to <dir>/<workload>-seed<n>-trace<t>.json for compare.py.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
# A run must end within 180 s; the program gets what is left after start-up.
PROGRAM_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_metrics(metrics, expected):
    """Problems with a result's metrics against BENCHMARK.json entries."""
    problems = []
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
    names = {m["name"] for m in expected}
    problems += [f"unexpected metric {n}" for n in metrics if n not in names]
    return problems


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no sources at {ROOT / 'src'}; run from a full "
                 "checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "dsouth_suite",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "dsouth_suite"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--save", help="directory for the full result record")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r}; known: "
                 + ", ".join(names))
    with open(HERE / "reference.json") as f:
        cal_ref = json.load(f)["calibration_ref_s"]

    binary = build()
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = runs / f"{stem}.json"
    out.unlink(missing_ok=True)
    # The program's flag parser reads a leading '-' as a new flag, so the
    # seed goes over as a non-negative int64.
    seed = args.seed & 0x7FFFFFFFFFFFFFFF
    cmd = [str(binary), "-workload", args.workload, "-seed", str(seed),
           "-seconds", repr(args.seconds), "-cal-ref", repr(cal_ref),
           "-out", str(out)]
    if args.trace:
        cmd += ["-trace", str(runs / f"{stem}-spans.json")]
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=PROGRAM_TIMEOUT_S)
    if not out.is_file():
        sys.exit(f"run.py: dsouth_suite exited {proc.returncode} without a "
                 "result")
    with open(out) as f:
        detail = json.load(f)

    expected = spec["per_layer" if args.trace else "end_to_end"]
    problems = check_metrics(detail["metrics"], expected)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    result = {
        "correct": proc.returncode == 0 and detail["failed"] == 0
        and not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: detail["metrics"][m["name"]]
                    for m in expected if m["name"] in detail["metrics"]},
    }
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        with open(Path(args.save) / f"{stem}.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "result": result,
                       "advisory": detail["advisory"],
                       "failures": detail["failures"]}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

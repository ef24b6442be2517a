#!/usr/bin/env python3
"""bench_suite_smoke: one repetition of every workload, plus the traced run
on ds-bone-p256; fails unless every run passes its output checks and
reports every BENCHMARK.json metric with its unit.

    python3 bench/suite/smoke.py --binary <path to dsouth_suite>
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import HERE, check_metrics, load_spec  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    args = ap.parse_args()
    spec = load_spec()
    with open(HERE / "reference.json") as f:
        cal_ref = json.load(f)["calibration_ref_s"]
    runs = [(w["name"], False) for w in spec["workloads"]]
    runs.append(("ds-bone-p256", True))
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, traced in runs:
            out = Path(tmp) / f"{name}-{int(traced)}.json"
            cmd = [args.binary, "-workload", name, "-seed", "1",
                   "-seconds", "0", "-cal-ref", repr(cal_ref),
                   "-out", str(out)]
            if traced:
                cmd += ["-trace", str(Path(tmp) / "spans.json")]
            code = subprocess.run(cmd).returncode
            label = f"{name}{' traced' if traced else ''}"
            if code != 0 or not out.is_file():
                problems.append(f"{label}: exit code {code}")
                continue
            with open(out) as f:
                metrics = json.load(f)["metrics"]
            expected = spec["per_layer" if traced else "end_to_end"]
            problems += [f"{label}: {p}"
                         for p in check_metrics(metrics, expected)]
            print(f"{label}: {len(metrics)} metrics", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

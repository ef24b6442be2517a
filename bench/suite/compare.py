#!/usr/bin/env python3
"""Compare two sets of benchmark results against the BENCHMARK.json bounds.

    python3 bench/suite/compare.py <base-dir> <new-dir>

Each directory holds records written by `run.py --save <dir>`, several
seeds per workload (ten is the norm). For every workload and end-to-end
metric this prints both sides' median and quartiles and one label:

  regressed   the new median is worse than the base median by more than
              the metric's bound;
  unresolved  either side's spread (quartile distance over median) is
              wider than the bound, so a change of that size cannot be
              told from noise -- unless every new run reads better than
              every base run;
  unchanged   otherwise.

The deterministic metrics (modeled seconds, messages per rank) are also
compared seed by seed where both sides ran the same seed. Two runs of one
commit, or of a change that keeps the iterates, match bit for bit; any
difference is listed. Exits 1 when anything regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Pure functions of the inputs: no host time in them.
EXACT = ("model_s", "msgs_per_rank")


def load(directory):
    """{workload: {seed: metrics}} for the end-to-end records in a dir."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") != 0:
            continue
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return runs


def summary(values):
    """(median, q1, q3) with statistics.quantiles' default method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def judge(base, new, better, bound):
    """Label one metric on one workload (see the module docstring)."""
    bm, bq1, bq3 = summary(base)
    nm, nq1, nq3 = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nm - bm) / bm if bm else 0.0
    spread = max((bq3 - bq1) / bm if bm else 0.0,
                 (nq3 - nq1) / nm if nm else 0.0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    base, new = load(argv[1]), load(argv[2])
    bad = False
    print(f"{'workload':20} {'metric':20} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  label")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name:20} (missing on one side)")
            continue
        for m in spec["end_to_end"]:
            key = m["name"]
            bv = [r[key] for r in base[name].values()]
            nv = [r[key] for r in new[name].values()]
            label = judge(bv, nv, m["better"], m["bound"])
            bad |= label == "regressed"
            bs, ns = summary(bv), summary(nv)
            change = (ns[0] - bs[0]) / bs[0] if bs[0] else 0.0
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{name:20} {key:20} {fmt.format(*bs):>34} "
                  f"{fmt.format(*ns):>34} {change:+8.2%} "
                  f"{m['bound']:6.2f}  {label}")
        b, n = base[name], new[name]
        shared = sorted(set(b) & set(n))
        for key in EXACT:
            diff = [s for s in shared if b[s][key] != n[s][key]]
            if diff:
                print(f"{name:20} {key:20} differs on seeds {diff}")
            elif shared:
                print(f"{name:20} {key:20} bit-identical on {len(shared)} "
                      "shared seeds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

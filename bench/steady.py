"""Steadiness report: repeat run.py over seeds and summarise each metric.

    python3 bench/steady.py --seconds 25 --seeds 1-10 [--out FILE] \
        [--baseline FILE] [workload ...]

For every metric of every workload it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median, next to the bound in BENCHMARK.json. --out writes the same
summary plus every raw value as JSON. --baseline FILE, a report written
by --out, adds how far each median moved from the baseline's, as a share
of the baseline median.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*",
                        default=["logic", "algebra", "batch"])
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)["workloads"]

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(fh)["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        summary = {}
        print(f"{workload}: {len(runs)} runs, correct="
              f"{all(r['correct'] for r in runs)}, attempted="
              f"{sorted({r['attempted'] for r in runs})}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = metrics.spread(values)
            bound = bounds.get(name)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound,
                             "values": values}
            line = (f"  {name:28s} median {median:12.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  spread {spread:7.4f}")
            if bound is not None:
                line += f"  bound {bound}"
            base = baseline.get(workload, {}).get(name)
            if base and base["median"]:
                change = median / base["median"] - 1
                summary[name]["change"] = change
                line += f"  change {change:+.4f}"
            print(line)
        report["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

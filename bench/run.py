"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload logic|algebra|batch --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.

With --trace 0 the run reports the end-to-end metrics. Set-up is sampled
in seven fresh interpreters (median), and the fourth one also runs the
job list with tracing off. Times are reported in reference-host seconds:
they are scaled by speed probes taken around them (metrics.speed_probe),
which cancels most of the shared host's speed drift.

With --trace 1 the same job list runs once plain and once traced, each
in a fresh interpreter, and the run reports the per-layer metrics and
the tracing overhead.

Every line before the last is a human-readable summary; the last line is
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from spans import LAYERS  # noqa: E402

WORKLOADS = ("logic", "algebra", "batch")
SETUP_REPEATS = 7
DEADLINE_S = 170   # a run must end within 180 s, so workers get what is left


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, mode, deadline):
    """Run one worker; returns (raw set-up seconds, the speed probes taken
    just before the spawn and just after READY, parsed last line or
    None). The worker is killed at the monotonic time `deadline`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]
    probe = metrics.speed_probe()
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = out.splitlines()
    marks = {line.split()[0]: float(line.split()[1]) for line in lines
             if line.startswith(("READY ", "PROBE "))}
    if len(marks) != 2:
        raise BenchError(f"{mode} worker never became ready")
    return (marks["READY"] - started, [probe, marks["PROBE"]],
            json.loads(lines[-1]) if mode != "setup" else None)


def end_to_end(workload, seed, seconds, deadline):
    # set-up samples before and after the timed run, so that their median
    # spans more than one phase of the host's speed drift
    half = SETUP_REPEATS // 2
    setups = [spawn(workload, seed, seconds, "setup", deadline)[:2]
              for _ in range(half)]
    raw, probes, result = spawn(workload, seed, seconds, "run", deadline)
    setups.append((raw, probes))
    setups += [spawn(workload, seed, seconds, "setup", deadline)[:2]
               for _ in range(SETUP_REPEATS - half - 1)]
    lat = result["scaled"]
    tail_s, percentile, beyond = metrics.tail(lat)
    raw_lat = result["latencies"]
    print(f"{workload} seed={seed}: {len(lat)} jobs; tail = p{percentile:.2f}"
          f" with {beyond} of {len(lat)} samples beyond it; "
          f"{result['probes']} speed probes")
    print(f"  raw (unscaled): {len(raw_lat) / sum(raw_lat):.4g} jobs/s, "
          f"p50 {1000 * statistics.median(raw_lat):.4g} ms, tail "
          f"{1000 * metrics.tail(raw_lat)[0]:.4g} ms, set-up samples "
          f"{', '.join(f'{r:.3f}' for r, _ in setups)} s")
    values = {
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (1000 * statistics.median(lat), "ms"),
        "job_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(raw * metrics.host_factor(probes)
                                      for raw, probes in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_share": (result["ok"] / len(lat), "ratio"),
    }
    return result, values


def per_layer(workload, seed, seconds, deadline):
    plain = spawn(workload, seed, seconds, "run", deadline)[2]
    traced = spawn(workload, seed, seconds, "trace", deadline)[2]
    self_s, calls, count = traced["self_s"], traced["calls"], \
        traced["counters"]
    print(f"{workload} seed={seed}: traced {traced['spans']} spans into "
          f"{traced['span_file']}; jobs took {sum(plain['scaled']):.3f} s "
          f"plain and {sum(traced['scaled']):.3f} s traced "
          f"(reference-host seconds)")

    def share(part, whole):
        return count[part] / count[whole] if count[whole] else 0.0

    def rate(counter, layer):
        return count[counter] / self_s[layer] if self_s[layer] else 0.0

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s[layer], "s")
        values[f"{layer}.calls"] = (calls[layer], "count")
    values.update({
        "semantics.models": (count["semantics.models"], "count"),
        "semantics.models_per_s": (rate("semantics.models", "semantics"),
                                   "1/s"),
        "calculus.instances": (count["calculus.instances"], "count"),
        "polyadic.carrier": (count["polyadic.carrier"], "count"),
        "polyadic.identity_checks": (count["polyadic.identity_checks"],
                                     "count"),
        "polyadic.checks_per_s": (rate("polyadic.identity_checks",
                                       "polyadic"), "1/s"),
        "transform.closure_elems": (count["transform.closure_elems"],
                                    "count"),
        "interlab.henkin_found_share": (share("interlab.henkin_found",
                                              "interlab.henkin_calls"),
                                        "ratio"),
        "interlab.filters_examined": (count["interlab.filters_examined"],
                                      "count"),
        "interlab.interp_found_share": (share("interlab.interp_found",
                                              "interlab.interp_calls"),
                                        "ratio"),
        "cli.error_share": (share("cli.error_reports", "cli.dispatch_calls"),
                            "ratio"),
        "trace_overhead": (sum(traced["scaled"]) / sum(plain["scaled"]) - 1,
                           "ratio"),
    })
    if plain["ok"] != traced["ok"]:
        raise BenchError("tracing changed job outcomes")
    return traced, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "mvlogic", "__init__.py")):
        print("bench: run from the repository root; src/mvlogic is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    compileall.compile_dir("src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    run = per_layer if args.trace else end_to_end
    try:
        result, values = run(args.workload, args.seed, args.seconds,
                             deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for key, outcome in result["unexpected"][:10]:
        print(f"bench: unexpected outcome for {key}: {outcome}",
              file=sys.stderr)
    if result["unexpected"]:
        print(f"bench: {len(result['unexpected'])} unexpected outcomes",
              file=sys.stderr)
    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    attempted = len(result["latencies"])
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": attempted,
        "failed": attempted - result["ok"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

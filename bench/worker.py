"""One workload process: set up, print READY, run the job list, report.

Run by run.py with PYTHONHASHSEED pinned and `src` on PYTHONPATH:

    python3 bench/worker.py --workload logic --seed 1 --seconds 25 \
        --mode run|setup|trace

After READY it prints PROBE, a speed probe that run.py uses to scale the
set-up time. `setup` exits right after that (a
set-up time sample). `run` times every job with tracing off. `trace`
runs the same job list with the layer tracer installed before set-up
and writes the spans under .bench_work/. The last stdout line is one
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

import metrics


PROBE_INTERVAL_S = 0.1


def run_jobs(jobs, keys, expected, tracer=None, first_probe=None):
    """Run the job list in order; returns per-job latencies and checks.

    A speed probe runs between jobs every PROBE_INTERVAL_S or so. The
    latencies are also reported scaled to reference-host seconds by the
    host factor of the two probes around them. The host's speed changes
    within a second, so the nearest probes track it best.

    A job whose outcome differs from its expectation, or that raises, is
    not ok. A job that raises the exception its expectation names as a
    known defect is not ok but also not unexpected.
    """
    latencies = []
    scaled = []
    outcomes = []
    probes = [metrics.speed_probe() if first_probe is None else first_probe]
    pending = 0
    last_probe = time.perf_counter()
    for i, key in enumerate(keys):
        if tracer is not None:
            tracer.current_job = i
        job = jobs[key]
        t0 = time.perf_counter()
        try:
            outcome = job()
        except Exception as exc:  # a crash is a failed job, not a bench error
            outcome = type(exc).__name__
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outcomes.append(outcome)
        pending += 1
        if t1 - last_probe >= PROBE_INTERVAL_S or i == len(keys) - 1:
            probes.append(metrics.speed_probe())
            factor = metrics.host_factor(probes[-2:])
            scaled += [x * factor for x in latencies[-pending:]]
            pending = 0
            last_probe = time.perf_counter()
    ok = 0
    unexpected = []
    for key, outcome in zip(keys, outcomes):
        want = expected[key]
        if isinstance(outcome, tuple) and list(outcome) == [
                want["exit"], want["verdict"], want["digest"] or outcome[2]]:
            ok += 1
        elif outcome != want.get("raises"):
            unexpected.append([key, outcome if isinstance(outcome, str)
                               else list(outcome)])
    return {"latencies": latencies, "scaled": scaled, "probes": len(probes),
            "ok": ok, "unexpected": unexpected}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    import workloads
    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    spec = workloads.WORKLOADS[args.workload]()
    expected = workloads.load_expected(args.workload)
    keys = spec.job_list(args.seed,
                         workloads.cycles_for(args.workload, args.seconds),
                         expected)
    jobs = spec.setup(keys)
    gc.collect()
    print(f"READY {time.monotonic()}", flush=True)
    probe = metrics.speed_probe()
    print(f"PROBE {probe}", flush=True)
    if args.mode == "setup":
        spec.teardown()
        return 0

    with contextlib.redirect_stderr(io.StringIO()):  # argparse usage noise
        result = run_jobs(jobs, keys, expected, tracer, probe)
    spec.teardown()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["self_s"] = tracer.self_times()
        result["calls"] = tracer.calls
        result["counters"] = tracer.counters
        result["spans"] = tracer.span_count()
        os.makedirs(workloads.WORK_ROOT, exist_ok=True)
        path = os.path.join(workloads.WORK_ROOT,
                            f"spans-{args.workload}-{args.seed}.csv.gz")
        tracer.write(path)
        result["span_file"] = path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

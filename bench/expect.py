"""Regenerate the committed expectations in bench/expected/.

Runs every member of every job pool three times and records its exit
code, verdict, digest and cost: the median of the three latencies in
reference-host seconds. The cost only orders pools into strata. Run from
the repository root when the benchmark's pools change:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 bench/expect.py [workload ...]

The known-defect jobs of the batch workload are recorded with the
exception they raise today and the exit code 2 they should give.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time

import metrics
import workloads


REPEATS = 3


def run_one(job, cls):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code, verdict, digest = job()
    except Exception as exc:
        if cls not in workloads.KNOWN_DEFECTS:
            raise
        return {"exit": 2, "verdict": "error", "digest": None,
                "raises": type(exc).__name__,
                "known_defect": workloads.KNOWN_DEFECTS[cls]}
    return {"exit": code, "verdict": verdict, "digest": digest}


def expectations(name):
    spec = workloads.WORKLOADS[name]()
    keys = [k for cls in spec.classes for k in spec.pool(cls)]
    jobs = spec.setup(keys)
    table = {}
    try:
        for key in keys:
            cls = key.split("/", 1)[0]
            costs = []
            records = []
            for _ in range(REPEATS):
                before = metrics.speed_probe()
                t0 = time.perf_counter()
                record = run_one(jobs[key], cls)
                elapsed = time.perf_counter() - t0
                costs.append(elapsed * metrics.host_factor(
                    [before, metrics.speed_probe()]))
                records.append(record)
            if any(r != records[0] for r in records):
                raise RuntimeError(f"{key} is not deterministic: {records}")
            table[key] = dict(records[0],
                              cost_ms=round(1000 * statistics.median(costs),
                                            3))
    finally:
        spec.teardown()
    return table


def main(names):
    for name in names or list(workloads.WORKLOADS):
        table = expectations(name)
        path = os.path.join(workloads.EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "jobs": table}, fh, indent=0,
                      sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(table)} jobs -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])

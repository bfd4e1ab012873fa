"""Summary statistics shared by the runner, the steadiness report and the
tests."""

from __future__ import annotations

import statistics
import time

TAIL_BEYOND = 10
# About the median duration of speed_probe() on the reference host.
PROBE_NOMINAL_S = 0.0005


def speed_probe():
    """Seconds taken by a fixed pure-Python kernel: integer arithmetic and
    dict updates, independent of the program under test. The median of
    three timings of about 0.7 ms, so one scheduling hiccup cannot skew it.

    The host's speed drifts by tens of percent, within a second as well
    as over minutes. A time taken between two probes is scaled by
    PROBE_NOMINAL_S / mean(probes), which turns it into reference-host
    seconds and cancels most of the drift.
    """
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        total = 0
        for i in range(2000):
            key = i * 7919 % 1009
            table[key] = table.get(key, 0) + i
            total += key * key % 7
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def host_factor(probes):
    """Scale from raw to reference-host seconds, from the probes taken
    around a measurement."""
    return PROBE_NOMINAL_S / statistics.fmean(probes)


def tail(latencies):
    """The latency at the highest percentile with >= 10 samples beyond it.

    Returns (value, percentile, samples_beyond). With fewer than 11
    samples no such percentile exists; the maximum is returned with
    samples_beyond 0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def self_times(start, end, parent, layer_of):
    """Self time per span: its duration minus its direct children's.

    Spans nest (one thread), so the children of a span cover disjoint
    parts of it and their durations add up.
    """
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    totals = {}
    for i in range(len(start)):
        layer = layer_of(i)
        totals[layer] = totals.get(layer, 0.0) + end[i] - start[i] - child[i]
    return totals

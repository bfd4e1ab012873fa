"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import os
import random
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
import metrics
import spans
import worker
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    expected = workloads.load_expected(name)
    spec = workloads.WORKLOADS[name]()
    first = spec.job_list(7, 6, expected)
    assert first == spec.job_list(7, 6, expected)
    assert first != spec.job_list(8, 6, expected)
    assert all(key in expected for key in first)
    # every cycle runs one job of every class, in class order
    classes = [key.split("/")[0] for key in first]
    per_cycle = len(first) // 6
    assert classes[:per_cycle] == classes[per_cycle:2 * per_cycle]


def test_stratified_picks_cover_every_stratum():
    keys = list(range(40))
    picks = workloads.stratified(keys, 8, random.Random(1))
    assert sorted(k // 5 for k in picks) == list(range(8))


@pytest.mark.parametrize("n", [11, 12, 50, 333, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    lat = [rng.expovariate(1.0) for _ in range(n)]
    value, percentile, beyond = metrics.tail(lat)
    assert beyond == 10
    assert sum(1 for x in lat if x > value) == 10
    # the next order statistic up would leave only nine beyond it
    assert sorted(lat)[-10] > value
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_short_list_is_its_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_is_span_minus_children():
    # root [0, 10] holds children [1, 3] and [4, 8]; the second holds
    # a grandchild [5, 6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    layer = ["a", "b", "b", "a"]
    totals = metrics.self_times(start, end, parent, layer.__getitem__)
    assert totals == {"a": (10 - 2 - 4) + 1, "b": 2 + (4 - 1)}


def test_tracer_self_times_add_up_to_root_spans():
    from mvlogic import interlab, mv_core, polyadic
    from mvlogic.mv_core import Chain
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert interlab.quotient is mv_core.quotient
        chain = Chain(3)
        gen = (chain.carrier[0], chain.carrier[1], chain.carrier[2],
               chain.carrier[1])
        alg = polyadic.build_generated((0, 1), 2, chain, [gen], "full",
                                       "powerset", cap=300)
        interlab.henkin_filter_build(alg, alg.one)
    finally:
        tracer.uninstall()
    assert interlab.quotient is mv_core.quotient
    assert not hasattr(interlab.quotient, "__wrapped__")
    roots = sum(tracer.end[i] - tracer.start[i]
                for i in range(tracer.span_count()) if tracer.parent[i] < 0)
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(roots, rel=1e-9)
    assert tracer.calls["polyadic"] >= 1 and tracer.calls["mv_core"] >= 1
    assert tracer.counters["interlab.henkin_calls"] == 1


def test_exception_counts_as_failed_job():
    def ok():
        return workloads.Outcome(0, "pass", "x")

    def boom():
        raise IndexError("past the carrier")

    good = workloads.Outcome(0, "pass", "x")
    expected = {
        "good": {"exit": 0, "verdict": "pass", "digest": good[2]},
        "crash": {"exit": 0, "verdict": "pass", "digest": good[2]},
        "known": {"exit": 2, "verdict": "error", "digest": None,
                  "raises": "IndexError"},
    }
    jobs = {"good": ok, "crash": boom, "known": boom}
    result = worker.run_jobs(jobs, ["good", "crash", "known"], expected)
    assert result["ok"] == 1
    assert len(result["latencies"]) == 3
    # an unexpected crash makes the run incorrect; a named defect does not
    assert result["unexpected"] == [["crash", "IndexError"]]


def test_wrong_verdict_is_not_ok():
    expected = {"j": {"exit": 0, "verdict": "pass", "digest": None}}
    result = worker.run_jobs({"j": lambda: workloads.Outcome(1, "fail")},
                             ["j"], expected)
    assert result["ok"] == 0 and result["unexpected"]


def _traced_counters(name, seed):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload",
         name, "--seed", str(seed), "--seconds", "0.1", "--mode", "trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    os.remove(os.path.join(ROOT, result["span_file"]))
    return result["counters"], result["calls"], result["spans"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counters_repeat_exactly(name):
    first = _traced_counters(name, 3)
    assert first == _traced_counters(name, 3)
    assert first[2] > 0

"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from amschan import channels, linalg, sources  # noqa: E402
from amschan.gallery import lazy_two_state  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, metric_specs, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_child_intervals_up_to_their_tails():
    # root [0, 10] > a [1, 4] (tail 4.5) > b [2, 3] (tail 3.2); root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    tails = [10.0, 4.5, 3.2, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, tails, parents) == pytest.approx([2.5, 1.8, 1.0, 4.0])


def test_traced_cyl_prob_records_vec_mat_beneath_it():
    tracer = Tracer()
    tracer.install()
    try:
        # sources bound vec_mat at import; the tracer must rebind that copy too
        assert sources.vec_mat is linalg.vec_mat is channels.vec_mat
        sources.cyl_prob(lazy_two_state(), ("a", "b", "b"))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    root = names.index("sources.cyl_prob")
    vec_mat = [i for i, n in enumerate(names) if n == "linalg.vec_mat"]
    assert vec_mat

    def ancestors(i):
        while tracer.parent[i] >= 0:
            i = tracer.parent[i]
            yield i

    assert all(root in ancestors(i) for i in vec_mat)
    assert sources.vec_mat is linalg.vec_mat  # uninstall restores the originals
    assert getattr(sources.vec_mat, "__wrapped__", None) is None


def test_metric_count_fits_the_benchmark_limit():
    names = [name for name, _, _ in metric_specs()]
    assert len(names) == len(set(names)) <= 128


def test_flipped_verdict_fails_its_digest_and_counts_as_an_error(monkeypatch):
    w = WORKLOADS["equality"]
    reference = run._load_reference(w)
    rows = w.plan_indices(3)[:1]
    honest = run.Tally()
    run.run_rounds(w, rows, reference, honest)
    assert (honest.attempted, honest.failed) == (len(w.strata), 0)

    original = sources.equivalence_witness
    flipped = []

    def flip_first(s1, s2, max_len=None):
        word = original(s1, s2, max_len)
        if flipped:
            return word
        flipped.append(word)
        return ("a",) if word is None else None

    monkeypatch.setattr(sources, "equivalence_witness", flip_first)
    tally = run.Tally()
    run.run_rounds(w, rows, reference, tally)
    result = run._result(tally, {})
    assert (result["attempted"], result["failed"], result["correct"]) == (len(w.strata), 1, False)


def test_tail_is_the_eleventh_largest_sample():
    value, pct = run.tail_latency([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)


def test_benchmark_json_lists_the_workloads_and_metrics_the_harness_reports():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"
    }

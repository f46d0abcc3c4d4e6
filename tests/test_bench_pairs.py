"""The summary arithmetic of tests/bench_pairs.py, on fixed numbers."""

import pytest

from bench_pairs import change_wins, claim, record_workload, spread, summarize


def pair(parent_p50, change_p50, parent_ops=10.0, change_ops=11.0):
    metrics = {"latency_tail_s": 0.1, "setup_s": 0.05, "peak_rss_mb": 20.0}
    return {"parent": {**metrics, "latency_p50_s": parent_p50, "ops_per_s": parent_ops},
            "change": {**metrics, "latency_p50_s": change_p50, "ops_per_s": change_ops}}


def test_spread_takes_inclusive_quartiles():
    assert spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0, "max": 5.0}
    # four values: the quartiles interpolate between neighbours
    assert spread([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "min": 1.0, "max": 4.0}


def test_change_wins_follow_each_metrics_direction():
    pairs = [pair(0.090, 0.080), pair(0.090, 0.095, 10.0, 9.0), pair(0.090, 0.090)]
    # lower latency wins, higher throughput wins, a tie is no win
    assert change_wins(pairs, "latency_p50_s") == 1
    assert change_wins(pairs, "ops_per_s") == 2
    assert change_wins(pairs, "setup_s") == 0


def test_claim_compares_the_median_gap_with_the_parents_spread():
    parent = [0.090, 0.091, 0.092, 0.093, 0.094]
    summary = summarize([pair(p, p - 0.008) for p in parent])
    assert summary["latency_p50_s_change_wins"] == 5
    assert summary["summary"]["latency_p50_s"]["parent"]["median"] == 0.092
    got = claim(summary, "latency_p50_s")
    assert got["wins"] == 5 and got["gap_exceeds_iqr"]
    assert got["relative"] == pytest.approx(-0.008 / 0.092)
    assert got["parent_iqr"] == pytest.approx(0.002)
    # a gap inside the parent's interquartile spread is not enough
    assert not claim(summarize([pair(p, p - 0.001) for p in parent]),
                     "latency_p50_s")["gap_exceeds_iqr"]


def test_each_workload_keeps_its_own_description():
    doc = {}
    for workload, text in (("certify", "certify (no gain claimed)"),
                           ("proof", "proof (no gain claimed)")):
        runs = {"parent": [f"{workload} parent run"], "change": [f"{workload} change run"]}
        record_workload(doc, workload, text, runs, {"pairs": []})
    assert doc["certify_pairs"]["description"] == "certify (no gain claimed)"
    assert doc["proof_pairs"]["description"] == "proof (no gain claimed)"
    # the top-level description is the one the document was created with
    assert doc["description"] == "certify (no gain claimed)"
    assert doc["runs"]["parent"] == {"certify": ["certify parent run"],
                                     "proof": ["proof parent run"]}
    # a file read back keeps its description when a run gives none
    record_workload(doc, "build", None, {"parent": [], "change": []}, {"pairs": []})
    assert doc["description"] == "certify (no gain claimed)"
    assert doc["build_pairs"]["description"] == ""

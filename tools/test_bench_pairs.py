"""Tests of the A/B summary arithmetic in bench_pairs.py."""

import numpy as np
import pytest

import bench_pairs


def test_quartiles_match_numpy_percentile():
    runs = [0.013, 0.0121, 0.0142, 0.0129, 0.0125, 0.0145, 0.0122, 0.0133]
    q = bench_pairs.quartiles(runs)
    want = np.percentile(runs, [25, 50, 75])
    assert (q["q1"], q["median"], q["q3"]) == pytest.approx(want, abs=1e-6)


def test_compare_lower_is_better():
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [5.0, 12.0, 6.0, 7.0]
    m = bench_pairs.compare(parent, change, "lower", 0.1, "s")
    assert m["change_wins"] == 3
    assert m["change_over_parent"] == pytest.approx(6.5 / 11.5, abs=1e-4)
    assert not m["worse_than_bound"]
    # parent quartile spread 1.5 against a 5 s median gain
    assert m["median_gain_exceeds_parent_iqr"]


def test_compare_flags_a_worse_median():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [1.2, 1.2, 1.2, 1.2]
    lower = bench_pairs.compare(parent, change, "lower", 0.1, "s")
    assert lower["worse_than_bound"] and lower["change_wins"] == 0
    higher = bench_pairs.compare(parent, change, "higher", 0.1, "%")
    assert not higher["worse_than_bound"] and higher["change_wins"] == 4


def test_claim_needs_nine_wins_in_ten_at_every_seed():
    def row(seed, wins, gain):
        return {"workload": "w", "seed": seed, "pairs": 10, "metrics": {"m": {
            "parent": {"median": 1.0}, "change": {"median": 0.5},
            "change_wins": wins, "parent_iqr": 0.1,
            "median_gain_exceeds_parent_iqr": gain}}}
    assert bench_pairs.claim_result([row(1, 10, True), row(2, 9, True)],
                                    "w", "m")["met"]
    assert not bench_pairs.claim_result([row(1, 10, True), row(2, 8, True)],
                                        "w", "m")["met"]
    assert not bench_pairs.claim_result([row(1, 10, False)], "w", "m")["met"]


def test_traced_rows_are_medians_of_alternating_runs(monkeypatch):
    """Each side runs TRACED_RUNS traced times, the sides alternating, and
    each row reads the median of its side's runs."""
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, trace))
        n = len(calls)
        return {"metrics": {"a.s": {"value": float(n)},
                            "a.calls": {"value": 7}}}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    rows = [{"name": "a.s"}, {"name": "a.calls"}]
    out = bench_pairs.traced({"parent": "P", "change": "C"}, "w", 1, 20.0,
                             rows)
    assert bench_pairs.TRACED_RUNS == 3
    assert calls == [("P", 1), ("C", 1), ("C", 1), ("P", 1), ("P", 1),
                     ("C", 1)]
    assert out["a.s"]["runs"] == {"parent": [1.0, 4.0, 5.0],
                                  "change": [2.0, 3.0, 6.0]}
    assert (out["a.s"]["parent"], out["a.s"]["change"]) == (4.0, 3.0)
    assert (out["a.calls"]["parent"], out["a.calls"]["change"]) == (7, 7)

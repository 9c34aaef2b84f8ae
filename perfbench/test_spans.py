"""Tests for the benchmark's own statistics.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import math

import pytest

import spans


def row(span_id, start, duration, parent=None, name="s"):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "start": start, "duration": duration}


# --- percentile rule -------------------------------------------------
def test_p99_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    pct, value = spans.tail_percentile(values, 99.0)
    assert pct == 99.0
    assert value == 990
    assert sum(v > value for v in values) == 10


def test_percentile_falls_back_to_the_highest_with_ten_beyond():
    values = list(range(1, 601))
    pct, value = spans.tail_percentile(values, 99.0)
    assert pct == pytest.approx(100.0 * 590 / 600)
    assert sum(v > value for v in values) == 10


def test_percentile_refused_when_it_would_not_be_a_tail():
    assert spans.tail_percentile(list(range(19)), 99.0) == (None, None)
    pct, __ = spans.tail_percentile(list(range(20)), 99.0)
    assert pct == 50.0


def test_failed_operations_miss_every_limit():
    values = [1.0] * 989 + [math.inf] * 11
    __, value = spans.tail_percentile(values, 99.0)
    assert value == math.inf


# --- self time -------------------------------------------------------
def test_self_time_subtracts_children():
    assert spans.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    assert spans.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 6.0)]) == 5.0


def test_self_time_clips_children_to_the_parent():
    assert spans.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


def test_self_times_follow_parent_links():
    rows = [row(1, 0.0, 10.0), row(2, 1.0, 4.0, parent=1),
            row(3, 2.0, 1.0, parent=2)]
    assert spans.self_times(rows) == {1: 6.0, 2: 3.0, 3: 1.0}


# --- wall shares -----------------------------------------------------
def test_wall_shares_equal_self_time_when_sequential():
    rows = [row(1, 0.0, 10.0, name="lot"),
            row(2, 1.0, 4.0, parent=1, name="encode"),
            row(3, 6.0, 2.0, parent=1, name="ndf")]
    assert spans.wall_shares(rows) == {"lot": 4.0, "encode": 4.0,
                                       "ndf": 2.0}


def test_wall_shares_split_concurrent_workers():
    rows = [row(1, 0.0, 10.0, name="campaign"),
            row(2, 2.0, 6.0, parent=1, name="worker"),
            row(3, 4.0, 6.0, parent=1, name="worker")]
    shares = spans.wall_shares(rows)
    assert shares == pytest.approx({"campaign": 2.0, "worker": 8.0})
    assert sum(shares.values()) == pytest.approx(10.0)


# --- latency from due time -------------------------------------------
def test_latency_counts_from_due_time():
    # Three lots due 10 ms apart; a 50 ms stall on the first delays the
    # sends of the other two, and their latencies carry the wait.
    due = [0.000, 0.010, 0.020]
    done = [0.050, 0.055, 0.060]
    assert spans.due_latencies(due, done) == pytest.approx(
        [0.050, 0.045, 0.040])


def test_failed_lot_latency_is_infinite():
    assert spans.due_latencies([0.0, 1.0], [0.5, None]) == [0.5, math.inf]


def test_quartile_spread():
    assert spans.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        pytest.approx(3.0 / 3.0)

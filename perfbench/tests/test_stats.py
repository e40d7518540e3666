"""Percentile choice and span self time."""

import pytest
import stats


@pytest.mark.parametrize("n, want", [
    (10, None),     # p50 has only 5 beyond
    (20, 50.0),
    (99, 50.0),     # p90 would have 9 beyond
    (100, 90.0),    # exactly 10 beyond p90
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, want):
    assert stats.tail_percentile(n) == want
    if want is not None:
        assert stats.samples_beyond(want, n) >= 10


def test_samples_beyond_counts_the_tail():
    assert stats.samples_beyond(90, 100) == 10
    assert stats.samples_beyond(50, 100) == 50
    assert stats.samples_beyond(90, 1) == 0


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))    # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_self_time_subtracts_nested_children_once():
    spans = [(1, None, 0, 100),
             (2, 1, 10, 40),      # child
             (3, 2, 15, 25),      # grandchild: only 2 loses it
             (4, 1, 60, 70)]      # sibling of 2
    got = stats.self_times(spans)
    assert got == {1: 100 - 30 - 10, 2: 30 - 10, 3: 10, 4: 10}


def test_self_time_counts_overlapping_siblings_once():
    # Children on other threads may overlap; their union is covered.
    spans = [(1, None, 0, 100), (2, 1, 10, 50),
             (3, 1, 30, 60), (4, 1, 90, 120)]
    got = stats.self_times(spans)
    assert got[1] == 100 - 50 - 10   # [10,60) and [90,100) clipped
    assert got[2] == 40 and got[3] == 30 and got[4] == 30


def test_covered_merges_and_clips():
    assert stats.covered_ns([(0, 5), (3, 8), (10, 12)], 0, 100) == 10
    assert stats.covered_ns([(0, 5)], 2, 4) == 2
    assert stats.covered_ns([], 0, 10) == 0

"""The benchmark's own arithmetic, on synthetic spans and samples."""

import statistics

import pytest

from stats import covered, nearest_rank, ratio, samples_beyond, self_time, spread, tail_percentile


def test_covered_disjoint_intervals_add():
    assert covered([(1, 2), (4, 7)], 0, 10) == 4


def test_covered_counts_overlaps_once():
    assert covered([(1, 4), (2, 5), (3, 3.5)], 0, 10) == 4


def test_covered_clips_to_the_parent():
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4


def test_covered_ignores_empty_and_outside_intervals():
    assert covered([(3, 3), (11, 12), (-2, -1)], 0, 10) == 0
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_union():
    # children cover [1, 5] and [8, 10] of the parent's [0, 10]
    assert self_time(0, 10, [(1, 3), (2, 5), (8, 12)]) == 4


def test_self_time_without_children_is_duration():
    assert self_time(2.5, 4.0, []) == 1.5


def test_nearest_rank():
    vals = list(range(1, 101))
    assert nearest_rank(vals, 50) == 50
    assert nearest_rank(vals, 90) == 90
    assert nearest_rank(vals, 99.9) == 100
    assert nearest_rank([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(10000, 99.9) == 10


@pytest.mark.parametrize(
    "n, pct",
    [(5, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    vals = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    got_pct, got = tail_percentile(vals)
    assert got_pct == pct
    assert got == nearest_rank(sorted(vals), pct)
    if pct > 50:
        assert samples_beyond(n, pct) >= 10


def test_ratio_and_zero_base():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 4) == 0
    assert ratio(0, 0) is None
    assert ratio(5, 0) is None


def test_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.4, 8.9, 10.1]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    assert spread(vals) == (q3 - q1) / med
    assert spread([1.0]) is None

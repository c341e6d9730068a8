import pytest

from summary import tail


def test_tail_has_exactly_ten_samples_beyond_it():
    values = [float(v) for v in range(100, 0, -1)]
    value, percentile, n = tail(values)
    assert (value, percentile, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, percentile, n = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and n == 11
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)

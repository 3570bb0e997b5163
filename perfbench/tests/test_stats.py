import pytest

from stats import tail


def test_tail_has_ten_samples_beyond():
    pct, value, beyond = tail(range(1, 31))
    assert value == 20 and beyond == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_at_one_hundred_samples_is_p90():
    pct, value, beyond = tail(reversed(range(1, 101)))
    assert (pct, value, beyond) == (90.0, 90, 10)


def test_tail_falls_back_to_median_for_few_samples():
    pct, value, beyond = tail([5, 1, 4, 2, 3])
    assert (pct, value, beyond) == (50.0, 3, 2)
    pct, value, beyond = tail(range(20))
    assert pct == 50.0 and value == 9.5


def test_tail_meets_the_median_continuously():
    pct, value, beyond = tail(range(21))
    assert value == 10 and beyond == 10
    assert pct == pytest.approx(100 * 11 / 21)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail([])

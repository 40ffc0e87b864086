"""SegmentPage: windowed search, buffer ops, deletion widening, iteration."""

import math

import numpy as np
import pytest

from repro.core.errors import InvariantViolationError
from repro.core.page import SegmentPage
from repro.memsim import AccessCounter


def linear_page(n=100, start=0.0, slope=1.0):
    keys = start + np.arange(n, dtype=np.float64) / slope
    return SegmentPage(start, slope, keys, np.arange(n, dtype=np.int64))


class TestWindow:
    def test_window_centered_on_prediction(self):
        page = linear_page(100)
        lo, hi = page.window(50.0, search_error=5)
        assert lo <= 50 <= hi - 1
        assert hi - lo <= 2 * 5 + 2

    def test_window_clamps_left(self):
        page = linear_page(100)
        lo, hi = page.window(0.0, search_error=5)
        assert lo == 0

    def test_window_clamps_right(self):
        page = linear_page(100)
        lo, hi = page.window(99.0, search_error=5)
        assert hi == 100

    def test_window_far_outside_prediction(self):
        page = linear_page(100)
        lo, hi = page.window(-1e9, search_error=5)
        assert (lo, hi) == (0, 1)
        lo, hi = page.window(1e9, search_error=5)
        assert (lo, hi) == (99, 100)

    def test_infinite_error_full_page(self):
        page = linear_page(64)
        assert page.window(3.0, math.inf) == (0, 64)

    def test_empty_page(self):
        page = SegmentPage(0.0, 1.0, np.empty(0), np.empty(0, dtype=np.int64))
        assert page.window(1.0, 5) == (0, 0)
        assert page.find_in_data(1.0, 5) == -1

    def test_deletions_widen_window(self):
        page = linear_page(100)
        lo0, hi0 = page.window(50.0, 3)
        page.deletions = 2
        lo1, hi1 = page.window(50.0, 3)
        assert (hi1 - lo1) > (hi0 - lo0)


class TestFind:
    def test_find_every_key(self):
        page = linear_page(200)
        for i in range(0, 200, 7):
            assert page.find_in_data(float(i), 1) == i

    def test_find_missing(self):
        page = linear_page(50)
        assert page.find_in_data(3.5, 2) == -1

    def test_find_first_of_duplicates(self):
        keys = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        page = SegmentPage(0.0, 1.0, keys, np.arange(6))
        assert page.find_in_data(1.0, 6) == 1

    def test_counter_records_probes(self):
        page = linear_page(100)
        counter = AccessCounter()
        page.find_in_data(50.0, 7, counter)
        assert counter.segment_probes > 0
        assert counter.segment_line_misses >= 1

    def test_get_checks_buffer_after_data(self):
        page = linear_page(10)
        page.insert_into_buffer(3.5, 999)
        assert page.get(3.5, 2) == 999
        assert page.get(3.0, 2) == 3
        assert page.get(4.75, 2, default="nope") == "nope"


class TestBuffer:
    def test_buffer_stays_sorted(self):
        page = linear_page(10)
        for k in (5.5, 1.5, 9.5, 0.5):
            page.insert_into_buffer(k, int(k))
        assert list(page.buf_keys) == sorted(page.buf_keys)
        assert page.n_buffer == 4
        assert page.n_total == 14

    def test_find_in_buffer(self):
        page = linear_page(10)
        page.insert_into_buffer(2.5, -1)
        page.insert_into_buffer(2.5, -2)
        assert page.find_in_buffer(2.5) == 0
        assert page.find_in_buffer(9.9) == -1

    def test_delete_at_buffer(self):
        page = linear_page(10)
        page.insert_into_buffer(2.5, -1)
        assert page.delete_at_buffer(0) == -1
        assert page.n_buffer == 0

    def test_merged_arrays(self):
        page = linear_page(5)
        page.insert_into_buffer(1.5, 100)
        page.insert_into_buffer(-1.0, 200)
        merged_keys, merged_values = page.merged_arrays()
        assert list(merged_keys) == [-1.0, 0.0, 1.0, 1.5, 2.0, 3.0, 4.0]
        assert list(merged_values) == [200, 0, 1, 100, 2, 3, 4]

    def test_merged_arrays_empty_buffer_is_identity(self):
        page = linear_page(5)
        keys, values = page.merged_arrays()
        assert keys is page.keys
        assert values is page.values


class TestDeleteData:
    def test_delete_at_data(self):
        page = linear_page(10)
        assert page.delete_at_data(4) == 4
        assert page.n_data == 9
        assert page.deletions == 1
        # Remaining keys still findable with the widened window.
        for i in [0, 3, 5, 9]:
            assert page.get(float(i), 1) == i


class TestIterItems:
    def test_interleaves_buffer(self):
        page = linear_page(5)
        page.insert_into_buffer(1.5, 100)
        page.insert_into_buffer(4.5, 200)
        keys = [k for k, _ in page.iter_items()]
        assert keys == [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5]

    def test_lo_skips(self):
        page = linear_page(10)
        page.insert_into_buffer(4.5, 100)
        keys = [k for k, _ in page.iter_items(lo=4.0)]
        assert keys == [4.0, 4.5, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_min_max_key(self):
        page = linear_page(5)
        assert page.min_key() == 0.0
        assert page.max_key() == 4.0
        page.insert_into_buffer(-1.0, 1)
        page.insert_into_buffer(99.0, 2)
        assert page.min_key() == -1.0
        assert page.max_key() == 99.0


class TestValidate:
    def test_valid_page_passes(self):
        page = linear_page(20)
        page.validate(search_error=1, buffer_capacity=10)

    def test_unsorted_data_fails(self):
        page = linear_page(5)
        page.keys = page.keys[::-1].copy()
        with pytest.raises(InvariantViolationError):
            page.validate(1, 10)

    def test_overfull_buffer_fails(self):
        page = linear_page(5)
        page.insert_into_buffer(0.5, 1)
        page.insert_into_buffer(0.6, 2)
        with pytest.raises(InvariantViolationError):
            page.validate(1, 2)

    def test_deviation_violation_fails(self):
        keys = np.array([0.0, 1.0, 2.0, 100.0, 101.0])
        page = SegmentPage(0.0, 1.0, keys, np.arange(5))
        with pytest.raises(InvariantViolationError):
            page.validate(search_error=1, buffer_capacity=10)

    def test_infinite_slope_fails(self):
        """An infinite slope predicts NaN at the origin: a NaN deviation
        must fail the bound, not slip past a ``>`` test."""
        keys = 1e-308 * np.arange(5.0)
        page = SegmentPage(0.0, math.inf, keys, np.arange(5))
        with np.errstate(invalid="ignore"):
            with pytest.raises(InvariantViolationError, match="deviation"):
                page.validate(search_error=16, buffer_capacity=10)

    def test_length_mismatch_fails(self):
        page = linear_page(5)
        page.values = page.values[:-1]
        with pytest.raises(InvariantViolationError):
            page.validate(1, 10)

"""ShrinkingCone segmentation: correctness, bounds, duplicates, edge cases."""

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, NotSortedError
from repro.core.fiting_tree import FITingTree
from repro.core.segment import verify_segments
from repro.core.segmentation import (
    cone_reach,
    exact_cone,
    fixed_segments,
    max_segments_bound,
    shrinking_cone,
    shrinking_cone_reference,
)


class TestBasics:
    def test_empty(self):
        assert shrinking_cone([], 10) == []

    def test_single_key(self):
        segs = shrinking_cone([42.0], 10)
        assert len(segs) == 1
        assert segs[0].start_key == 42.0
        assert segs[0].length == 1

    def test_perfectly_linear_one_segment(self):
        keys = np.arange(10_000, dtype=np.float64)
        segs = shrinking_cone(keys, 1)
        assert len(segs) == 1
        assert segs[0].slope == pytest.approx(1.0)
        verify_segments(keys, segs, 1)

    def test_two_regimes_two_segments(self):
        # Slope 1 then slope 100: a tight error cannot bridge them.
        a = np.arange(1000, dtype=np.float64)
        b = 1000.0 + np.arange(1000, dtype=np.float64) * 100.0
        keys = np.concatenate([a, b])
        segs = shrinking_cone(keys, 5)
        assert 2 <= len(segs) <= 4
        verify_segments(keys, segs, 5)

    def test_error_bound_always_satisfied(self, periodic_keys):
        for error in (1, 3, 10, 50):
            segs = shrinking_cone(periodic_keys, error)
            verify_segments(periodic_keys, segs, error)

    def test_larger_error_fewer_segments(self, periodic_keys):
        counts = [
            len(shrinking_cone(periodic_keys, e)) for e in (1, 5, 25, 125)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_unsorted_rejected(self):
        with pytest.raises(NotSortedError):
            shrinking_cone([3.0, 1.0, 2.0], 10)

    def test_bad_error_rejected(self):
        for bad in (0, -1):
            with pytest.raises(InvalidParameterError):
                shrinking_cone([1.0, 2.0], bad)

    def test_bad_accept_rejected(self):
        with pytest.raises(InvalidParameterError):
            shrinking_cone([1.0, 2.0], 10, accept="fuzzy")

    def test_bad_chunk_rejected(self):
        with pytest.raises(InvalidParameterError):
            shrinking_cone([1.0, 2.0], 10, chunk=1)

    def test_2d_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            shrinking_cone(np.zeros((3, 3)), 10)

    def test_fractional_error(self, periodic_keys):
        segs = shrinking_cone(periodic_keys, 2.5)
        verify_segments(periodic_keys, segs, 2.5)


class TestDuplicates:
    def test_short_duplicate_run_single_segment(self):
        keys = np.array([1.0] * 5 + [2.0, 3.0, 4.0])
        segs = shrinking_cone(keys, 10)
        assert len(segs) == 1
        verify_segments(keys, segs, 10)

    def test_long_duplicate_run_splits(self):
        keys = np.array([1.0] * 100)
        segs = shrinking_cone(keys, 9)
        # Each segment covers at most error+1 = 10 duplicate slots.
        assert len(segs) == 10
        assert all(s.length == 10 for s in segs)
        verify_segments(keys, segs, 9)

    def test_all_equal_keys_slope_zero(self):
        keys = np.array([5.0] * 8)
        segs = shrinking_cone(keys, 100)
        assert len(segs) == 1
        assert segs[0].slope == 0.0

    def test_duplicates_mid_stream(self):
        keys = np.sort(np.array([1.0, 2.0, 2.0, 2.0, 3.0, 10.0, 11.0] * 30))
        for error in (2, 5, 40):
            segs = shrinking_cone(keys, error)
            verify_segments(keys, segs, error)

    def test_step_data_worst_case_counts(self):
        from repro.datasets import step_data

        keys = step_data(5_000, step=100)
        below = shrinking_cone(keys, 10)
        # Worst case: roughly one segment per error+1 positions (a segment
        # can absorb one extra element when it straddles a step boundary).
        assert 5_000 / 13 <= len(below) <= -(-5_000 // 11)
        assert all(s.length >= 11 for s in below[:-1])
        above = shrinking_cone(keys, 100)
        assert len(above) == 1


class TestSlopeOverflow:
    """Keys ~1e-308 apart from a 0.0 origin push both cone bounds near the
    float64 maximum, where ``lo + hi`` overflows."""

    KEYS = np.concatenate([1e-308 * np.arange(40.0), 1 + np.arange(300.0)])

    def test_stored_slope_is_finite_and_every_key_found(self):
        segs = shrinking_cone(self.KEYS, 16)
        assert all(np.isfinite(s.slope) for s in segs)
        verify_segments(self.KEYS, segs, 16)
        tree = FITingTree(self.KEYS, error=16)
        tree.validate()
        assert [tree.get(k) for k in self.KEYS] == list(range(self.KEYS.size))

    def test_finite_midpoints_keep_their_bits(self):
        from repro.core.segmentation import _slope_from_cone

        for lo, hi in ((0.0, 1.0), (0.1, 0.7), (3.0, 1e300)):
            assert _slope_from_cone(lo, hi) == 0.5 * (lo + hi)
        assert _slope_from_cone(1e308, 1.5e308) == 1.25e308


class TestTheorem31:
    """Theorem 3.1: a maximal segment covers at least error+1 locations."""

    @pytest.mark.parametrize("error", [2, 5, 17])
    def test_min_coverage_random(self, error, rng):
        keys = np.sort(rng.uniform(0, 1e5, 3_000))
        segs = shrinking_cone(keys, error)
        # Every segment except the last was closed by a violation, hence
        # maximal, hence covers >= error+1 locations.
        for seg in segs[:-1]:
            assert seg.length >= error + 1

    def test_min_coverage_periodic(self, periodic_keys):
        error = 4
        segs = shrinking_cone(periodic_keys, error)
        assert len(segs) > 2
        for seg in segs[:-1]:
            assert seg.length >= error + 1

    def test_segment_count_bound(self, periodic_keys):
        error = 6
        segs = shrinking_cone(periodic_keys, error)
        n_distinct = len(np.unique(periodic_keys))
        bound = max_segments_bound(n_distinct, len(periodic_keys), error)
        assert len(segs) <= bound


class TestReferenceEquivalence:
    @pytest.mark.parametrize("accept", ["paper", "exact"])
    @pytest.mark.parametrize("error", [1, 7, 64])
    def test_fast_matches_reference(self, accept, error, rng):
        keys = np.sort(rng.uniform(0, 1e4, 1_500))
        fast = shrinking_cone(keys, error, accept=accept, chunk=64)
        ref = shrinking_cone_reference(keys, error, accept=accept)
        assert fast == ref

    def test_fast_matches_reference_with_duplicates(self, rng):
        base = rng.uniform(0, 100, 300)
        keys = np.sort(np.concatenate([base, rng.choice(base, 300)]))
        for error in (2, 11):
            assert shrinking_cone(keys, error, chunk=32) == (
                shrinking_cone_reference(keys, error)
            )

    def test_chunk_size_does_not_change_result(self, periodic_keys):
        baseline = shrinking_cone(periodic_keys, 8, chunk=4096)
        for chunk in (2, 3, 17, 100):
            assert shrinking_cone(periodic_keys, 8, chunk=chunk) == baseline
        # Longer than the largest pass. Segments run ~90 keys at error 8
        # (inside the first pass), 3-6 k at error 64 (past the 4096 cap) and
        # the whole input at error 1000.
        long_keys = np.sort(np.random.default_rng(11).uniform(0, 1e6, 12_000))
        for error in (8, 64, 1000):
            baseline = shrinking_cone(long_keys, error)
            assert baseline == shrinking_cone_reference(long_keys, error)
            for chunk in (255, 256, 257, 1000, 4096):
                assert shrinking_cone(long_keys, error, chunk=chunk) == baseline
        assert max(s.length for s in shrinking_cone(long_keys, 64)) > 4096


class TestExactAccept:
    def test_exact_never_more_segments(self, rng):
        for seed in range(5):
            keys = np.sort(np.random.default_rng(seed).uniform(0, 1e5, 2_000))
            for error in (3, 10, 50):
                paper = shrinking_cone(keys, error, accept="paper")
                exact = exact_cone(keys, error)
                assert len(exact) <= len(paper)
                verify_segments(keys, exact, error)

    def test_exact_cone_valid_on_periodic(self, periodic_keys):
        segs = exact_cone(periodic_keys, 7)
        verify_segments(periodic_keys, segs, 7)


class TestConeReach:
    def test_reach_at_least_next(self):
        keys = np.array([0.0, 100.0, 101.0, 102.0])
        for i in range(4):
            assert cone_reach(keys, i, 1) >= i + 1

    def test_reach_full_for_linear(self):
        keys = np.arange(500, dtype=np.float64)
        assert cone_reach(keys, 0, 1) == 500

    def test_reach_prefix_closed(self, periodic_keys):
        # Reach defines feasibility: any prefix of the reach is feasible,
        # verified via verify_segments on the sub-segment.
        from repro.core.optimal import cone_bounds
        from repro.core.segment import Segment
        from repro.core.segmentation import _slope_from_cone

        error = 5.0
        reach = cone_reach(periodic_keys, 0, error)
        assert reach > 1
        for end in (2, reach // 2, reach):
            lo, hi = cone_bounds(periodic_keys, 0, end, error)
            seg = Segment(
                float(periodic_keys[0]), 0, _slope_from_cone(lo, hi), end
            )
            verify_segments(periodic_keys[:end], [seg], error)


class TestFixedSegments:
    def test_exact_division(self):
        keys = np.arange(100, dtype=np.float64)
        segs = fixed_segments(keys, 25)
        assert [s.length for s in segs] == [25, 25, 25, 25]

    def test_remainder_page(self):
        keys = np.arange(103, dtype=np.float64)
        segs = fixed_segments(keys, 25)
        assert [s.length for s in segs] == [25, 25, 25, 25, 3]

    def test_page_size_one(self):
        segs = fixed_segments(np.arange(5.0), 1)
        assert len(segs) == 5

    def test_invalid_page_size(self):
        with pytest.raises(InvalidParameterError):
            fixed_segments(np.arange(5.0), 0)

    def test_contiguous_cover(self):
        keys = np.sort(np.random.default_rng(3).uniform(0, 10, 77))
        segs = fixed_segments(keys, 10)
        assert segs[0].start_pos == 0
        for a, b in zip(segs, segs[1:]):
            assert a.end_pos == b.start_pos
        assert segs[-1].end_pos == 77

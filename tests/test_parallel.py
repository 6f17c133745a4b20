from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridmp.parallel import RunningMoments, run_blocks

samples = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=200)


def _moments(*batches) -> RunningMoments:
    m = RunningMoments()
    for batch in batches:
        m.add(batch)
    return m


class TestRunningMoments:
    def test_variance_survives_a_large_offset(self):
        # Raw sums of squares cancel catastrophically here: 1e16 against
        # a spread of 1e-6 leaves nothing of the variance.
        values = 1e8 + 1e-3 * np.random.default_rng(7).standard_normal(100_000)
        m = _moments(*np.array_split(values, 5))
        assert m.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6)
        assert m.variance > 0.9e-6

    @given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=200),
           st.integers(-10**8, 10**8))
    def test_variance_is_offset_invariant(self, ticks, offset):
        # Multiples of 2**-10 below 2**28 in size: adding the offset is exact,
        # so any change of the variance is the accumulator's own error.
        values = np.asarray(ticks) / 1024.0
        base = _moments(values).variance
        assert abs(_moments(values + offset).variance - base) <= 1e-6 * base

    @given(samples, st.lists(st.integers(0, 200), max_size=6))
    def test_any_block_split_agrees_with_one_batch(self, values, cuts):
        values = np.asarray(values)
        whole = _moments(values)
        parts = _moments(*np.split(values, sorted(c % (len(values) + 1) for c in cuts)))
        assert parts.count == whole.count
        assert parts.mean == pytest.approx(whole.mean, rel=1e-12, abs=1e-12)
        assert parts.std_error == pytest.approx(whole.std_error, rel=1e-12, abs=1e-12)

    @given(samples)
    def test_one_batch_is_numpy_bit_for_bit(self, values):
        values = np.asarray(values)
        m = _moments(values)
        assert m.mean == np.mean(values)
        assert m.std_error == np.std(values, ddof=1) / np.sqrt(len(values))

    def test_merge_into_empty_copies_the_state(self):
        part = _moments([1.0, 2.0, 4.0])
        merged = RunningMoments().merge(part)
        assert (merged.count, merged.mean, merged.m2) == (part.count, part.mean, part.m2)

    def test_fewer_than_two_values_have_zero_error(self):
        assert _moments([3.0]).std_error == 0.0
        assert _moments([3.0]).mean == 3.0
        assert math.isclose(_moments([1.0, 3.0]).std_error, 1.0)


@pytest.mark.parametrize("workers", [1, 4])
def test_run_blocks_runs_every_block_in_order_in_the_calling_thread(workers):
    calls = []

    def block(offset, count):
        calls.append((offset, count, threading.get_ident()))
        return offset

    # ten blocks, more than the workers asked for
    assert run_blocks(block, 1000, 100, workers) == list(range(0, 1000, 100))
    me = threading.get_ident()
    assert calls == [(offset, 100, me) for offset in range(0, 1000, 100)]


def test_run_blocks_ends_with_a_short_block_and_rejects_empty_sizes():
    assert run_blocks(lambda offset, count: (offset, count), 250, 100) == [
        (0, 100), (100, 100), (200, 50)]
    with pytest.raises(ValueError, match="n_total"):
        run_blocks(lambda offset, count: None, 0, 100)
    with pytest.raises(ValueError, match="block_size"):
        run_blocks(lambda offset, count: None, 100, 0)

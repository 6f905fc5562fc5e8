"""XorShift64Star.array against the scalar reference stream of uniform."""

import numpy as np
import pytest

from porohom.rng import XorShift64Star

SHAPES = ((0,), (1,), (63,), (64,), (65,), (129, 129), (17, 17, 17), (2, 33, 33))
RANGES = ((-1.0, 1.0), (0.0, 1.0), (-2.0, 3.0))


def _scalar(ref, shape, low, high):
    n = int(np.prod(shape))
    return np.array([ref.uniform(low, high) for _ in range(n)], dtype=float).reshape(shape)


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_array_is_the_scalar_stream_bit_for_bit(seed):
    fast, ref = XorShift64Star(seed), XorShift64Star(seed)
    for k, shape in enumerate(SHAPES):
        low, high = RANGES[k % len(RANGES)]
        _assert_bitwise_equal(fast.array(shape, low, high), _scalar(ref, shape, low, high))
        assert fast.state == ref.state
    # array's default range is [-1, 1), uniform's [0, 1)
    _assert_bitwise_equal(fast.array((5, 3)), _scalar(ref, (5, 3), -1.0, 1.0))
    assert fast.state == ref.state


def test_array_and_uniform_interleave_on_one_stream():
    fast, ref = XorShift64Star(2**64 - 1), XorShift64Star(2**64 - 1)
    for n in (3, 64, 0, 1, 130, 127):
        assert fast.uniform() == ref.uniform()
        _assert_bitwise_equal(fast.array((n,), 0.0, 1.0), _scalar(ref, (n,), 0.0, 1.0))
        assert fast.state == ref.state
        assert fast.next_u64() == ref.next_u64()

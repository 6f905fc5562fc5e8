"""XorShift64Star.array against the scalar reference stream of uniform."""

import numpy as np
import pytest

from porohom.rng import XorShift64Star

SHAPES = ((0,), (1,), (63,), (64,), (65,), (129, 129), (17, 17, 17), (2, 33, 33))
RANGES = ((-1.0, 1.0), (0.0, 1.0), (-2.0, 3.0))
MASK = (1 << 64) - 1
MULT = 2685821657736338717


def next_u64(gen):
    """One step of the documented xorshift64* update of gen.state, one value
    at a time: the reference stream of XorShift64Star.array."""
    x = gen.state
    x ^= x >> 12
    x ^= (x << 25) & MASK
    x ^= x >> 27
    gen.state = x
    return (x * MULT) & MASK


def uniform(gen, low=0.0, high=1.0):
    return low + (high - low) * (next_u64(gen) / 2.0**64)


def _scalar(ref, shape, low, high):
    n = int(np.prod(shape))
    return np.array([uniform(ref, low, high) for _ in range(n)], dtype=float).reshape(shape)


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
        assert uniform(fast) == uniform(ref)
        _assert_bitwise_equal(fast.array((n,), 0.0, 1.0), _scalar(ref, (n,), 0.0, 1.0))
        assert fast.state == ref.state
        assert next_u64(fast) == next_u64(ref)


def test_rng_reference_sequence():
    # frozen from the documented xorshift64* update
    frozen = [5180492295206395165, 12380297144915551517, 13389498078930870103]
    r = XorShift64Star(1)
    assert [next_u64(r) for _ in range(3)] == frozen
    _assert_bitwise_equal(XorShift64Star(1).array((3,), 0.0, 1.0),
                          np.array([v / 2.0**64 for v in frozen]))
    # seed 0 falls back to the documented nonzero constant
    assert XorShift64Star(0).state == XorShift64Star(0x9E3779B97F4A7C15).state

"""Deterministic xorshift64* stream used for reproducible random fields.

Update rule (64-bit unsigned arithmetic):

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;
    output = (x * 2685821657736338717) mod 2^64

Uniform doubles in [low, high) are low + (high - low) * output / 2^64.  The
algorithm is pinned here (rather than delegating to a library generator) so
that any reimplementation can reproduce the harness streams bit-for-bit.

`array` draws a block of the stream at once in numpy: the update x -> M x is
linear over GF(2), so the states M x, ..., M^B x of a block of B draws are the
XOR, over the set bits of x, of the cached basis streams M^k e_b (Haramoto et
al., INFORMS J. Comput. 20, 2008; Vigna, ACM TOMS 42, 2016).  The basis
streams are cached per byte of x, and the last state of a block starts the
next one.  tests/test_rng.py steps the update above one value at a time and
checks `array` against it bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["XorShift64Star"]

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
# Draws per block of `array`.  The byte tables hold 8 * 256 * _BLOCK states
# (1 MB at 64).
_BLOCK = 64


@functools.cache
def _byte_tables():
    """(fill, hop): fill[p, v, k] is the state after k + 1 steps from the
    state whose only nonzero byte is byte p (least significant first) with
    value v; hop[p][v] = fill[p, v, -1] as Python ints.  Built on first use."""
    basis = np.uint64(1) << np.arange(64, dtype=np.uint64)
    streams = np.empty((64, _BLOCK), dtype=np.uint64)
    x = basis
    for k in range(_BLOCK):
        x = x ^ (x >> np.uint64(12))
        x = x ^ (x << np.uint64(25))
        x = x ^ (x >> np.uint64(27))
        streams[:, k] = x
    streams = streams.reshape(8, 8, _BLOCK)  # [byte position, bit in byte, step]
    fill = np.zeros((8, 256, _BLOCK), dtype=np.uint64)
    for j in range(8):
        fill[:, 1 << j:2 << j] = fill[:, :1 << j] ^ streams[:, j, None, :]
    fill.setflags(write=False)
    return fill, fill[:, :, -1].tolist()


class XorShift64Star:
    def __init__(self, seed: int):
        self.state = (int(seed) & _MASK) or 0x9E3779B97F4A7C15

    def array(self, shape, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        """The next prod(shape) uniform doubles of the stream in [low, high);
        `state` is left at the last raw state drawn."""
        n = int(np.prod(shape))
        fill, (h0, h1, h2, h3, h4, h5, h6, h7) = _byte_tables()
        starts = []
        x = self.state
        for _ in range(-(-n // _BLOCK)):
            starts.append(x)
            x = (h0[x & 255] ^ h1[x >> 8 & 255] ^ h2[x >> 16 & 255] ^ h3[x >> 24 & 255]
                 ^ h4[x >> 32 & 255] ^ h5[x >> 40 & 255] ^ h6[x >> 48 & 255] ^ h7[x >> 56])
        start_bytes = np.array(starts, dtype="<u8").view(np.uint8).reshape(-1, 8)
        states = fill[0, start_bytes[:, 0]]
        for p in range(1, 8):
            states ^= fill[p, start_bytes[:, p]]
        states = states.ravel()[:n]
        if n:
            self.state = int(states[-1])
        raw = states * np.uint64(_MULT)
        return (low + (high - low) * (raw / 2.0**64)).reshape(shape)

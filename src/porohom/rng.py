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
al., INFORMS J. Comput. 20, 2008; Vigna, ACM TOMS 42, 2016).  Two byte tables
of those streams, 1 MB each, are built on first use: the steps M^k,
1 <= k <= 64, inside a block of 64 draws, and the jumps M^(64 j), j < 64, to
the 64 block starts of a superblock of 4096 draws.  A Python loop steps the
state from one superblock start to the next (M^4096), so it runs once per
4096 draws, and the block starts and then the states come from two
vectorised gathers.  tests/test_rng.py steps the update above one value at a
time and checks `array` against it bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["XorShift64Star"]

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
# Draws per block of `array`, and blocks per superblock.  Each byte table
# holds 8 * 256 * 64 states (1 MB).
_BLOCK = 64


def _xor_gather(table, x):
    """XOR over the bytes p (least significant first) of each state in x of
    table[p, byte p]: shape (len(x), table.shape[2])."""
    x_bytes = np.asarray(x, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = table[0, x_bytes[:, 0]]
    for p in range(1, 8):
        out ^= table[p, x_bytes[:, p]]
    return out


def _byte_table(streams):
    """table[p, v, k]: the image under the k-th map of the state whose only
    nonzero byte is byte p (least significant first) with value v, given
    streams[b, k], the image of the basis state 1 << b.  Read-only."""
    streams = streams.reshape(8, 8, _BLOCK)  # [byte position, bit in byte, map]
    table = np.zeros((8, 256, _BLOCK), dtype=np.uint64)
    for j in range(8):
        table[:, 1 << j:2 << j] = table[:, :1 << j] ^ streams[:, j, None, :]
    table.setflags(write=False)
    return table


@functools.cache
def _byte_tables():
    """(fill, jump, hop): fill[p, v, k] is the state after k + 1 steps and
    jump[p, v, j] the state after 64 j steps from the state whose only
    nonzero byte is byte p with value v; hop[p][v] is the state after 4096
    steps, as Python ints.  Built on first use."""
    basis = np.uint64(1) << np.arange(64, dtype=np.uint64)
    streams = np.empty((64, _BLOCK), dtype=np.uint64)
    x = basis
    for k in range(_BLOCK):
        x = x ^ (x >> np.uint64(12))
        x = x ^ (x << np.uint64(25))
        x = x ^ (x >> np.uint64(27))
        streams[:, k] = x
    fill = _byte_table(streams)
    step64 = fill[:, :, -1:]
    x = basis
    for j in range(_BLOCK):
        streams[:, j] = x
        x = _xor_gather(step64, x).ravel()
    jump = _byte_table(streams)
    hop = _xor_gather(step64, jump[:, :, -1].ravel()).reshape(8, 256)
    return fill, jump, hop.tolist()


class XorShift64Star:
    def __init__(self, seed: int):
        self.state = (int(seed) & _MASK) or 0x9E3779B97F4A7C15

    def array(self, shape, low: float = -1.0, high: float = 1.0) -> np.ndarray:
        """The next prod(shape) uniform doubles of the stream in [low, high);
        `state` is left at the last raw state drawn."""
        n = int(np.prod(shape))
        fill, jump, (h0, h1, h2, h3, h4, h5, h6, h7) = _byte_tables()
        starts = []
        x = self.state
        for _ in range(-(-n // _BLOCK**2)):
            starts.append(x)
            x = (h0[x & 255] ^ h1[x >> 8 & 255] ^ h2[x >> 16 & 255] ^ h3[x >> 24 & 255]
                 ^ h4[x >> 32 & 255] ^ h5[x >> 40 & 255] ^ h6[x >> 48 & 255] ^ h7[x >> 56])
        block_starts = _xor_gather(jump, starts).ravel()
        states = _xor_gather(fill, block_starts[:-(-n // _BLOCK)]).ravel()[:n]
        if n:
            self.state = int(states[-1])
        raw = states * np.uint64(_MULT)
        return (low + (high - low) * (raw / 2.0**64)).reshape(shape)

"""Deterministic randomness for the whole package.

Everything random in this package flows from a single 64-bit seed through
SplitMix64, the mixing generator of Steele, Lea and Flood (the same
algorithm that seeds xoshiro and backs java.util.SplittableRandom).  It was
chosen because the algorithm fits in six lines, has canonical published
constants and reference outputs, and its k-th output is a pure function of
the seed, so the stream can be evaluated either sequentially or as a
vectorized block over output indices.  Both evaluation orders are exercised
against each other in the tests.

Reference outputs for seed 0 (first three calls), matching the published
test vectors: 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.

Independent named sub-streams ("ldd", "gnp", "tree") are derived
by folding an FNV-1a hash of the label into the seed and re-mixing, so two
labels collide only if their hashes do.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Outputs per block of `SplitMix64.hits_below`: its two uint64 buffers of
# this many entries stay in cache.
HITS_BLOCK = 1 << 15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """The SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Seed for the named sub-stream `label` of the master `seed`."""
    return mix64((seed & _MASK64) ^ fnv1a64(label.encode("utf-8")))


class SplitMix64:
    """Sequential SplitMix64 stream.

    Output k (1-indexed) equals mix64(seed + k * GAMMA); `block_u64`,
    `block_floats` and `hits_below` evaluate the next contiguous range of
    outputs vectorized and move the sequential position past it.
    """

    __slots__ = ("seed", "_calls")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._calls = 0

    def next_u64(self) -> int:
        self._calls += 1
        return mix64((self.seed + self._calls * _GAMMA) & _MASK64)

    def next_float(self) -> float:
        # 53-bit uniform in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by 53-bit scaling; bound << 2**53."""
        assert 0 < bound < (1 << 53), "bound out of range"
        return int(self.next_float() * bound)

    def block_u64(self, count: int) -> np.ndarray:
        """Consume and return the next `count` outputs as uint64."""
        z = np.arange(self._calls + 1, self._calls + count + 1, dtype=np.uint64)
        self._calls += count
        with np.errstate(over="ignore"):
            z *= np.uint64(_GAMMA)
            z += np.uint64(self.seed)
        _mix_in_place(z, np.empty_like(z))
        return z

    def block_floats(self, count: int) -> np.ndarray:
        z = self.block_u64(count)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0**-53
        return u

    def hits_below(self, count: int, p: float) -> np.ndarray:
        """Consume the next `count` outputs and return, ascending, the
        positions k in 0..count-1 whose `next_float` value is below `p`.

        The test is exact on integers: `next_float` is j * 2**-53 for the top
        53 bits j of the output, and j * 2**-53 < p holds iff j < ceil(p *
        2**53).  Scaling by a power of two is exact, so the threshold is
        computed without rounding; for 0 <= p <= 1 it lies in 0..2**53 and
        nothing overflows.  The outputs are mixed HITS_BLOCK at a time in two
        buffers reused across blocks, so memory is O(HITS_BLOCK + hits).
        """
        assert 0.0 <= p <= 1.0, "p out of range"
        threshold = math.ceil(p * 2.0**53)
        # The last xorshift z ^= z >> 31 leaves the top 31 bits of z as they
        # were, and a hit is an output below K = threshold * 2**11, so its
        # top 31 bits are at most those of K - 1.  Only the entries below
        # `cut` can hit; the rest of the mix and the exact test run on those.
        cut = ((((threshold << 11) - 1) >> 33) + 1) << 33 if threshold else 0
        size = min(HITS_BLOCK, max(count, 1))
        with np.errstate(over="ignore"):
            step = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = np.empty(size, dtype=np.uint64)
        tmp = np.empty(size, dtype=np.uint64)
        hits = [np.empty(0, dtype=np.int64)]
        for lo in range(0, count, size):
            k = min(size, count - lo)
            base = np.uint64((self.seed + (self._calls + lo) * _GAMMA) & _MASK64)
            zk = z[:k]
            np.add(step[:k], base, out=zk)
            _mix_rounds(zk, tmp[:k])
            pos = np.arange(k) if cut > _MASK64 else np.flatnonzero(zk < np.uint64(cut))
            cand = zk[pos]
            cand ^= cand >> np.uint64(31)
            cand >>= np.uint64(11)
            hits.append(pos[cand < np.uint64(threshold)] + lo)
        self._calls += count
        return np.concatenate(hits)


def _mix_in_place(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of every entry of the uint64 array `z`, in place; `tmp` is a
    scratch buffer of the same shape."""
    _mix_rounds(z, tmp)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _mix_rounds(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 up to its last xorshift, in place: both multiply rounds."""
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=tmp)
        z ^= tmp
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=tmp)
        z ^= tmp
        z *= np.uint64(_MIX2)


def stream(seed: int, label: str) -> SplitMix64:
    return SplitMix64(derive_seed(seed, label))


def truncated_exponential(u, rate: float, cap: float):
    """Inverse-CDF draw of Exponential(rate) conditioned on [0, cap).

    Conditioning (rather than clamping) keeps the distribution atom-free at
    the cap, so independent draws are distinct almost surely.  `u` may be a
    float or an ndarray of uniforms in [0, 1).
    """
    assert rate > 0.0 and cap > 0.0, "rate and cap must be positive"
    p = -math.expm1(-rate * cap)  # P(X < cap)
    return -np.log1p(-u * p) / rate

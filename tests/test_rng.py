import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep.rng import (
    HITS_BLOCK,
    SplitMix64,
    derive_seed,
    fnv1a64,
    mix64,
    stream,
    truncated_exponential,
)


def test_seed_zero_reference_vector():
    # published reference outputs for the seed-0 stream
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_fnv1a64_reference_vector():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_mix64_stays_in_64_bits(z):
    out = mix64(z)
    assert 0 <= out < (1 << 64)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(1, 200))
def test_block_matches_sequential(seed, count):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    blk = a.block_u64(count)
    seq = [b.next_u64() for _ in range(count)]
    assert blk.tolist() == seq
    # position advanced identically: next outputs agree too
    assert a.next_u64() == b.next_u64()


def test_block_floats_match_sequential_floats():
    a = SplitMix64(99)
    b = SplitMix64(99)
    blk = a.block_floats(64)
    seq = np.array([b.next_float() for _ in range(64)])
    assert np.array_equal(blk, seq)
    assert np.all((blk >= 0.0) & (blk < 1.0))


def test_interleaved_block_and_sequential():
    a = SplitMix64(7)
    b = SplitMix64(7)
    ref = [b.next_u64() for _ in range(10)]
    got = [a.next_u64(), a.next_u64()]
    got += a.block_u64(5).tolist()
    got += [a.next_u64() for _ in range(3)]
    assert got == ref


@pytest.mark.parametrize("block", [HITS_BLOCK, 1, 7])
@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(0, 300), st.data())
def test_hits_below_matches_sequential_walk(block, seed, count, data):
    walk = SplitMix64(seed)
    u = [walk.next_float() for _ in range(count)]
    ps = [0.0, 1.0, data.draw(st.floats(0.0, 1.0))]
    if count:
        # a drawn value does not hit (the test is strict); the next float up does
        k = data.draw(st.integers(0, count - 1))
        # hits_below finishes the mix only where the top 31 bits are at most
        # those of threshold * 2**11 - 1; thresholds at and next to multiples
        # of 2**22 put that cut at the edge of u[k]'s top bits
        top = int(u[k] * 2.0**53) >> 22
        edges = (top << 22, (top << 22) + 1, ((top + 1) << 22) - 1, (top + 1) << 22)
        ps += [t * 2.0**-53 for t in edges]
        ps += [u[k], float(np.nextafter(u[k], 2.0))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("minorsep.rng.HITS_BLOCK", block)
        for p in ps:
            r = SplitMix64(seed)
            assert r.hits_below(count, p).tolist() == [i for i in range(count) if u[i] < p], p
            # the stream moved on by exactly `count` draws
            assert r.next_u64() == SplitMix64(seed).block_u64(count + 1)[-1]
        if count:
            assert k not in SplitMix64(seed).hits_below(count, u[k]).tolist()
            assert k in SplitMix64(seed).hits_below(count, ps[-1]).tolist()
    assert SplitMix64(seed).hits_below(count, 0.0).dtype == np.int64


@given(st.integers(min_value=1, max_value=1 << 50))
def test_next_below_in_range(bound):
    r = SplitMix64(3)
    for _ in range(20):
        x = r.next_below(bound)
        assert 0 <= x < bound


def test_derive_seed_separates_labels():
    seen = {derive_seed(5, lab) for lab in ("ldd", "ld", "gnp", "tree", "")}
    assert len(seen) == 5
    assert derive_seed(5, "ldd") == derive_seed(5, "ldd")
    assert derive_seed(5, "ldd") != derive_seed(6, "ldd")
    s1 = stream(5, "ldd")
    s2 = stream(5, "ldd")
    assert s1.next_u64() == s2.next_u64()


def test_truncated_exponential_respects_cap():
    r = SplitMix64(11)
    u = r.block_floats(10_000)
    x = truncated_exponential(u, rate=0.8, cap=3.0)
    assert np.all(x >= 0.0)
    assert np.all(x < 3.0)  # conditioned, not clamped: no atom at the cap


def test_truncated_exponential_matches_scalar_formula():
    rate, cap = 1.7, 2.5
    p = 1.0 - math.exp(-rate * cap)
    for u in (0.0, 0.25, 0.5, 0.99, 1.0 - 2**-53):
        want = -math.log1p(-u * p) / rate
        got = truncated_exponential(u, rate, cap)
        assert got == pytest.approx(want, rel=1e-12)
    assert truncated_exponential(0.0, rate, cap) == 0.0


@given(
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_truncated_exponential_monotone_and_bounded(rate, cap, u1, u2):
    x1 = float(truncated_exponential(u1, rate, cap))
    x2 = float(truncated_exponential(u2, rate, cap))
    assert 0.0 <= x1 < cap
    if u1 < u2:
        assert x1 <= x2

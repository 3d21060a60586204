import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpw import rng
from lpw.grid import GridSpec, random_field
from lpw.rng import complex_samples, splitmix64, unit_doubles_at


def test_splitmix64_known_outputs():
    # finalizer applied to pre-advanced state k equals the k-th canonical
    # stream value for seed 0 (stride folded into the counter)
    assert int(splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF


def test_counter_chunk_independence():
    a = unit_doubles_at(99, np.arange(64))
    b = np.concatenate([unit_doubles_at(99, np.arange(10)),
                        unit_doubles_at(99, np.arange(10, 64))])
    assert np.array_equal(a, b)


def test_counter_array_matches_range():
    full = unit_doubles_at(31, np.arange(200))
    ctr = np.array([[3, 150, 7], [199, 0, 64]])
    assert np.array_equal(unit_doubles_at(31, ctr), full[ctr])


def test_unit_range():
    u = unit_doubles_at(5, np.arange(10000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_complex_samples_offset():
    a = complex_samples(7, 20)
    b = complex_samples(7, 12, offset=8)
    assert np.array_equal(a[8:], b)


def test_field_determinism():
    g = GridSpec(2, 32)
    f1 = random_field(g, 1234)
    f2 = random_field(g, 1234)
    assert np.array_equal(f1.coefficients, f2.coefficients)
    f3 = random_field(g, 1235)
    assert not np.array_equal(f1.coefficients, f3.coefficients)


def _reference_unit(seed: int, counters) -> np.ndarray:
    """The rng docstring's layout on the whole array at once, written out:
    u64_to_unit(splitmix64(seed + counter)) at each counter."""
    u64 = np.uint64
    x = np.asarray(counters, dtype=np.int64).astype(u64) + u64(seed % (1 << 64))
    z = x + u64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    z = z ^ (z >> u64(31))
    return (z >> u64(11)).astype(np.float64) * 2.0**-53


_counts = st.builds(lambda blocks, rem: blocks * rng._BLOCK + rem,
                    st.integers(0, 3), st.integers(0, 999))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=_counts, offset=st.integers(0, 2**40))
def test_complex_samples_equal_the_whole_array_layout(seed, count, offset):
    # re and im of sample i are the values at counters 2(offset + i) and
    # 2(offset + i) + 1, mapped to [-1, 1); the block draw writes them in
    # place, a block at a time, with the whole-array draw's bits
    u = _reference_unit(seed, np.arange(2 * offset, 2 * (offset + count)))
    got = complex_samples(seed, count, offset)
    assert got.shape == (count,)
    assert np.array_equal(got.view(np.float64).view(np.uint64),
                          (2.0 * u - 1.0).view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=_counts,
       start=st.integers(-2**40, 2**40), stride=st.integers(-3, 7))
def test_unit_doubles_equal_the_whole_array_layout(seed, count, start, stride):
    counters = start + stride * np.arange(count, dtype=np.int64)
    want = _reference_unit(seed, counters)
    assert np.array_equal(unit_doubles_at(seed, counters), want)
    assert np.array_equal(unit_doubles_at(seed, counters[:count - count % 2].reshape(2, -1)),
                          want[:count - count % 2].reshape(2, -1))
    assert np.array_equal(unit_doubles_at(seed, np.arange(start, start + count)),
                          _reference_unit(seed, np.arange(start, start + count)))


@pytest.mark.parametrize("dim,N,ncomp", [(1, 256, 1), (2, 64, 2), (3, 16, 3)])
def test_random_field_unchanged_by_the_block_length(monkeypatch, dim, N, ncomp):
    g = GridSpec(dim, N)
    kwargs = dict(ncomp=ncomp, band=N / 4, radial_profile=lambda r: (1.0 + r) ** -1.3)
    want = [random_field(g, 8, ncomp=ncomp).coefficients, random_field(g, 8, **kwargs).coefficients]
    monkeypatch.setattr(rng, "_BLOCK", 7)
    got = [random_field(g, 8, ncomp=ncomp).coefficients, random_field(g, 8, **kwargs).coefficients]
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_random_field_peak_memory():
    # the draw is the only full-size array made: the parent's draw, its
    # temporaries and the copies of `without_mean` peaked at 20.0 MiB
    g = GridSpec(2, 512)
    g.xi_abs, g.nyquist_mask
    tracemalloc.start()
    try:
        f = random_field(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.coefficients.nbytes == 4 << 20
    assert peak <= 6 << 20

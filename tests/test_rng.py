"""Tests for deterministic substream derivation."""

import threading

import numpy as np
import pytest

from entangle_lab.rng import (
    DOMAIN_BLOCH_COLLAPSE,
    DOMAIN_STRING_TRIALS,
    STREAM_FORMAT,
    TRIAL_BLOCK,
    block_uniforms,
    count_outcomes,
    iter_block_slices,
    stream_key,
    substream,
)


def test_keys_are_frozen():
    # golden values: any change here silently breaks every stored report
    assert stream_key(0) == 196839400122488997330729021788935948731
    assert stream_key(0, 1) == 123613671566511923892581520460014608085
    assert stream_key(2**64 - 1, 3, 5) == 99472797434113677328127820115953780612


def _bits(values: np.ndarray) -> list[str]:
    return [format(int(v), "016x") for v in values.ravel().view(np.uint64)]


# Golden draws, compared bit for bit.  Any change to these values changes every
# sampled number in every report: it requires bumping rng.STREAM_FORMAT (and
# the package version), never just updating the expected bits.
def test_stream_format_is_three():
    assert STREAM_FORMAT == 3


def test_first_block_draws_are_frozen():
    u = block_uniforms(0, DOMAIN_STRING_TRIALS, 0, 0, 2, 5)
    assert u.shape == (2, 5)
    assert _bits(u) == [
        "3fe4175b10e8c89a", "3fe5ff323a45713d", "3fb63026dde355e0", "3fa3c4678d753f00", "3fdb325869fe502c",
        "3fdad3b09d2719dc", "3fc808e0f39b2e90", "3fecada45939530d", "3fe541976afe6796", "3fdb6074ae6cf66c",
    ]


def test_top_seed_block_draws_are_frozen():
    u = block_uniforms(2**64 - 1, DOMAIN_STRING_TRIALS, 3, 7, 2, 2)
    assert _bits(u) == ["3fa4e867bcca2260", "3fe2260ab3905415", "3fdb1e5f9f5a0a9e", "3fedb558aaee5a2c"]


def test_bloch_collapse_draws_are_frozen():
    u = substream(7, DOMAIN_BLOCH_COLLAPSE).random(4)
    assert _bits(u) == ["3fd46da823624072", "3fd6d5043ee8b8aa", "3f94881296388ba0", "3fd33e9f16bf17e8"]


def test_substreams_reproduce():
    a = substream(7, 1, 2).random(16)
    b = substream(7, 1, 2).random(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    base = substream(7, 1, 2).random(8)
    for other in (substream(7, 1, 3), substream(7, 2, 2), substream(8, 1, 2), substream(7, 1)):
        assert not np.array_equal(base, other.random(8))


def test_seed_wraps_at_64_bits():
    np.testing.assert_array_equal(substream(2**64 + 5, 0).random(4), substream(5, 0).random(4))


def test_block_uniforms_leading_rows_are_stable():
    full = block_uniforms(3, 1, 0, 2, 1000, 2)
    head = block_uniforms(3, 1, 0, 2, 10, 2)
    np.testing.assert_array_equal(full[:10], head)


def test_block_uniforms_shape_and_bounds():
    u = block_uniforms(3, 1, 2, 0, 17, 5)
    assert u.shape == (17, 5)
    assert np.all((u >= 0.0) & (u < 1.0))
    with pytest.raises(ValueError):
        block_uniforms(3, 1, 2, 0, 0, 5)
    with pytest.raises(ValueError):
        block_uniforms(3, 1, 2, 0, TRIAL_BLOCK + 1, 5)


@pytest.mark.parametrize("rows", [TRIAL_BLOCK, 17])
def test_block_uniforms_into_a_buffer_gives_the_same_bits(rows):
    out = np.full((TRIAL_BLOCK, 5), np.nan)
    fresh = block_uniforms(3, 1, 2, 4, rows, 5)
    filled = block_uniforms(3, 1, 2, 4, rows, 5, out=out)
    assert filled.shape == (rows, 5)
    assert np.shares_memory(filled, out)
    assert filled.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "out",
    [
        np.empty((20, 4)),  # wrong column count
        np.empty((16, 5)),  # too few rows
        np.empty((20, 5), dtype=np.float32),
        np.empty((20, 10))[:, ::2],  # five columns, not C-contiguous
    ],
    ids=["columns", "rows", "float32", "strided"],
)
def test_block_uniforms_rejects_a_malformed_buffer(out):
    with pytest.raises(ValueError, match="out must"):
        block_uniforms(3, 1, 2, 0, 17, 5, out=out)


def _three_cells(si, u):
    return np.bincount((u[:, 0] < 0.3 + 0.2 * si) + (u[:, 1] < 0.5), minlength=3)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_count_outcomes_sums_fresh_block_counts_for_any_workers(workers):
    # Three blocks per setting, the last one partial; two settings give six
    # tasks, so seven workers start six threads.
    n_trials = 2 * TRIAL_BLOCK + 17
    expected = np.zeros((2, 3), dtype=np.int64)
    for si in range(2):
        for block, _start, rows in iter_block_slices(n_trials):
            expected[si] += _three_cells(si, block_uniforms(9, DOMAIN_STRING_TRIALS, si, block, rows, 2))
    threads, buffers = set(), set()

    def outcome(si, u):
        threads.add(threading.get_ident())
        buffers.add(u.__array_interface__["data"][0])
        return _three_cells(si, u)

    counts = count_outcomes(9, DOMAIN_STRING_TRIALS, 2, n_trials, 2, 3, outcome, workers=workers)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
    assert len(threads) <= min(workers, 6)
    assert len(buffers) <= min(workers, 6)  # one reused draw buffer per chunk


def test_iter_block_slices_partitions_exactly():
    n = 2 * TRIAL_BLOCK + 123
    slices = list(iter_block_slices(n))
    assert [b for b, _, _ in slices] == [0, 1, 2]
    assert sum(rows for _, _, rows in slices) == n
    assert slices[0] == (0, 0, TRIAL_BLOCK)
    assert slices[2] == (2, 2 * TRIAL_BLOCK, 123)
    assert list(iter_block_slices(10)) == [(0, 0, 10)]

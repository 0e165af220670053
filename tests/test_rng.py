"""Tests for deterministic substream derivation."""

import threading

import numpy as np
import pytest

from entangle_lab.rng import (
    DOMAIN_BLOCH_COLLAPSE,
    DOMAIN_STRING_TRIALS,
    STREAM_FORMAT,
    TRIAL_BLOCK,
    block_column,
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
def test_stream_format_is_four():
    assert STREAM_FORMAT == 4


def test_first_block_draws_are_frozen():
    u = block_uniforms(0, DOMAIN_STRING_TRIALS, 0, 0, 2, 5)
    assert u.shape == (2, 5)
    assert _bits(u) == [
        "3fd0e8c9fa5a2d28", "3faee88e80ebffe0", "3fc279e01df808f0", "3fce4c14a344b298", "3fe4e89dc697123f",
        "3fe1e9b94bac2b64", "3fb939f15b0be400", "3fe0812720ed43ae", "3fd0b28aba61bca8", "3fbfb7be1d6c94c8",
    ]


def test_top_seed_block_draws_are_frozen():
    u = block_uniforms(2**64 - 1, DOMAIN_STRING_TRIALS, 3, 7, 2, 2)
    assert _bits(u) == ["3feca6708f3aba43", "3fdce5e7e87d85ce", "3fdaa27887320490", "3fb714cfd71a2cf0"]


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


def test_each_column_is_the_substream_of_its_path():
    u = block_uniforms(3, DOMAIN_STRING_TRIALS, 1, 2, 17, 5)
    for column in range(5):
        expected = substream(3, DOMAIN_STRING_TRIALS, 1, 2, column).random(17)
        assert block_column(3, DOMAIN_STRING_TRIALS, 1, 2, column, 17).tobytes() == expected.tobytes()
        assert u[:, column].tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [TRIAL_BLOCK, 17])
def test_block_column_into_a_buffer_gives_the_same_bits(rows):
    out = np.full(TRIAL_BLOCK, np.nan)
    fresh = block_column(3, 1, 2, 4, 3, rows)
    filled = block_column(3, 1, 2, 4, 3, rows, out=out)
    assert filled.shape == (rows,)
    assert np.shares_memory(filled, out)
    assert filled.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "out",
    [
        np.empty((20, 1)),  # a column, not a vector
        np.empty(16),  # too few rows
        np.empty(20, dtype=np.float32),
        np.empty(40)[::2],  # twenty entries, not C-contiguous
    ],
    ids=["shape", "rows", "float32", "strided"],
)
def test_block_column_rejects_a_malformed_buffer(out):
    with pytest.raises(ValueError, match="out must"):
        block_column(3, 1, 2, 0, 0, 17, out=out)


def _three_cells(si, u0, u1):
    return np.bincount((u0 < 0.3 + 0.2 * si) + (u1 < 0.5), minlength=3)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_count_outcomes_sums_fresh_block_counts_for_any_workers(workers):
    # Three blocks per setting, the last one partial; two settings give six
    # tasks, so seven workers start six threads.
    n_trials = 2 * TRIAL_BLOCK + 17
    expected = np.zeros((2, 3), dtype=np.int64)
    for si in range(2):
        for block, _start, rows in iter_block_slices(n_trials):
            u = block_uniforms(9, DOMAIN_STRING_TRIALS, si, block, rows, 2)
            expected[si] += _three_cells(si, u[:, 0], u[:, 1])
    threads, buffers = set(), set()

    def outcome(si, rows, draw):
        threads.add(threading.get_ident())
        buffers.add(draw(0).__array_interface__["data"][0])
        assert draw(1) is draw(1)  # drawn once per block
        return _three_cells(si, draw(0), draw(1))

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

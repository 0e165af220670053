"""Tests for deterministic substream derivation and the one threshold rule."""

import hashlib
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byte_streams import LOW_BITS, key
from entangle_lab import rng
from entangle_lab.rng import (
    DOMAIN_BLOCH_COLLAPSE,
    DOMAIN_STRING_TRIALS,
    STREAM_FORMAT,
    TIE_PART,
    TRIAL_BLOCK,
    Block,
    block_uniforms,
    count_outcomes,
    iter_block_slices,
    sign_counts,
    stream_key,
    stream_words,
    substream,
    threshold_key,
)

property_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_keys_are_frozen():
    # golden values: any change here silently breaks every stored report
    assert stream_key(0) == 42371536407565331378085153227896255815411020126492259312762219118437273438651
    assert stream_key(0, 1) == 85803829366310155108275868993622709420461224692203196879700029429681275723477
    assert stream_key(2**64 - 1, 3, 5) == 101370742940126081983194326421042664922145932212789523440306864408287834736516
    # The low 128 bits are the keys of formats 1 to 4: the digest is unchanged.
    assert stream_key(0) & (2**128 - 1) == 196839400122488997330729021788935948731
    assert stream_key(0, 1) & (2**128 - 1) == 123613671566511923892581520460014608085


def test_the_sfc64_state_is_the_digest():
    payload = b"entangle-lab/1:" + (7).to_bytes(8, "little") + (1).to_bytes(8, "little")
    payload += (-2).to_bytes(8, "little", signed=True)
    expected = np.frombuffer(hashlib.sha256(payload).digest(), dtype="<u8")
    state = substream(7, 1, -2).bit_generator.state
    assert state["bit_generator"] == "SFC64"
    assert state["state"]["state"].tolist() == expected.tolist()


def _bits(values: np.ndarray) -> list[str]:
    return [format(int(v), "016x") for v in values.ravel().view(np.uint64)]


# Golden draws, compared bit for bit.  Any change to these values changes every
# sampled number in every report: it requires bumping rng.STREAM_FORMAT (and
# the package version), never just updating the expected bits.
def test_stream_format_is_five():
    assert STREAM_FORMAT == 5


def test_first_block_draws_are_frozen():
    # Row by row, the first two trials' draws from columns 0 to 4.
    u = np.column_stack([substream(0, DOMAIN_STRING_TRIALS, 0, 0, column).random(2) for column in range(5)])
    assert _bits(u) == [
        "3fcc9cb61fe117e0", "3fd200b5b0f5cc70", "3fe1e98ea18b9f86", "3fe5f4eb21081a53", "3fd01afb7dcdb0c0",
        "3fc27f454af7c14c", "3fe4ae65e2c2de98", "3fdab2dd510c1486", "3fde50a1e7a476a6", "3fd11dc9084b6b96",
    ]


def test_top_seed_block_draws_are_frozen():
    u = np.column_stack([substream(2**64 - 1, DOMAIN_STRING_TRIALS, 3, 7, column).random(2) for column in range(2)])
    assert _bits(u) == ["3fe5f20b950c66b2", "3fcc846813d13250", "3fecd5a4b06150bc", "3feafd72030dd658"]


def test_bloch_collapse_draws_are_frozen():
    u = substream(7, DOMAIN_BLOCH_COLLAPSE).random(4)
    assert _bits(u) == ["3fca5640f14d96cc", "3faa0e3c438e6560", "3fed5b873e150540", "3fefffb04c8df4ca"]


def test_first_block_bytes_and_tie_words_are_frozen():
    block = Block(0, DOMAIN_STRING_TRIALS, 0, 0, 20)
    assert block.column_bytes(0).tobytes().hex() == "45c32fc23f6c39393b9a82ef958afe24c86bc42e"
    assert block.column_bytes(4).tobytes().hex() == "b702c336f7ed6b40945dae2d2124774449a6823f"
    words = stream_words(0, DOMAIN_STRING_TRIALS, 0, 0, 0, TIE_PART, n=2)
    assert [format(int(w), "016x") for w in words] == ["ddcb1ac3b98cd247", "89001380bae945e3"]


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
    full = block_uniforms(3, 1, 0, 2, 1000)
    head = block_uniforms(3, 1, 0, 2, 10)
    np.testing.assert_array_equal(full[:10], head)


def test_block_uniforms_shape_and_bounds():
    u = block_uniforms(3, 1, 2, 0, 17)
    assert u.shape == (17,)
    assert u.dtype == np.float64
    assert np.all((u >= 0.0) & (u < 1.0))
    with pytest.raises(ValueError):
        block_uniforms(3, 1, 2, 0, 0)
    with pytest.raises(ValueError):
        block_uniforms(3, 1, 2, 0, TRIAL_BLOCK + 1)


def test_each_column_is_the_substream_of_its_path():
    expected = substream(3, DOMAIN_STRING_TRIALS, 1, 2, 0).random(17)
    assert block_uniforms(3, DOMAIN_STRING_TRIALS, 1, 2, 17).tobytes() == expected.tobytes()


def _three_cells(si, block):
    return np.bincount(block.below(0, 0.3 + 0.2 * si) + block.below(1, 1 / 3), minlength=3)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_count_outcomes_sums_fresh_block_counts_for_any_workers(workers):
    # Three blocks per setting, the last one partial; two settings give six
    # tasks, so seven workers start six threads.  Column 1 tests 1/3, whose
    # key has nonzero low bits, so tied trials draw tie words too.
    n_trials = 2 * TRIAL_BLOCK + 17
    expected = np.zeros((2, 3), dtype=np.int64)
    for si in range(2):
        for block, _start, rows in iter_block_slices(n_trials):
            expected[si] += _three_cells(si, Block(9, DOMAIN_STRING_TRIALS, si, block, rows))
    threads, generators = set(), {}
    original = rng.stream_words

    def recording(*path, n, bit_generator=None):
        threads.add(threading.get_ident())
        generators[id(bit_generator)] = bit_generator  # held, so no id is reused
        return original(*path, n=n, bit_generator=bit_generator)

    with mock.patch.object(rng, "stream_words", recording):
        counts = count_outcomes(9, DOMAIN_STRING_TRIALS, 2, n_trials, 3, _three_cells, workers=workers)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
    assert len(threads) <= min(workers, 6)
    assert len(generators) == min(workers, 6)  # one reused bit generator per chunk


def test_iter_block_slices_partitions_exactly():
    n = 2 * TRIAL_BLOCK + 123
    slices = list(iter_block_slices(n))
    assert [b for b, _, _ in slices] == [0, 1, 2]
    assert sum(rows for _, _, rows in slices) == n
    assert slices[0] == (0, 0, TRIAL_BLOCK)
    assert slices[2] == (2, 2 * TRIAL_BLOCK, 123)
    assert list(iter_block_slices(10)) == [(0, 0, 10)]
    # A start inside block 1 skips block 0; rows count from the block's first trial.
    assert list(iter_block_slices(2 * TRIAL_BLOCK + 123, TRIAL_BLOCK + 5)) == [
        (1, TRIAL_BLOCK, TRIAL_BLOCK),
        (2, 2 * TRIAL_BLOCK, 123),
    ]
    assert list(iter_block_slices(2 * TRIAL_BLOCK + 5, 2 * TRIAL_BLOCK + 5)) == []  # no trials, no blocks


# --- the threshold rule ----------------------------------------------------

BYTE_EDGES = [k / 256 for k in range(1, 256)]

thresholds = st.one_of(
    st.sampled_from(BYTE_EDGES),  # K has zero low bits: no tie path
    st.sampled_from(BYTE_EDGES).map(lambda p: math.nextafter(p, 0.0)),
    st.sampled_from(BYTE_EDGES).map(lambda p: math.nextafter(p, 1.0)),
    st.floats(5e-324, 2**-12, exclude_max=True),  # rounds up to a multiple of 2**-64
    st.just(math.nextafter(1.0, 0.0)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@property_settings
@given(p=thresholds)
def test_threshold_key_is_the_exact_ceiling(p):
    k = threshold_key(p)
    assert k == key(p)
    assert 1 <= k < 2**64
    if p >= 2**-12:
        assert k == p * 2**64  # exact: the event has probability p itself
    else:
        assert (k - 1) < p * 2**64 <= k


def test_threshold_keys_of_the_edges():
    assert threshold_key(0.0) == 0
    assert threshold_key(1.0) == 2**64
    assert threshold_key(0.5) == 2**63
    assert threshold_key(5e-324) == 1
    assert threshold_key(math.nextafter(1.0, 0.0)) == 2**64 - 2**11


def crafted_trials(data, ks):
    """Bytes and tie-word candidates for trials tested at the per-trial keys ``ks``.

    Most bytes sit on or next to the trial's K >> 56, and tie words put their
    low 56 bits on or next to K's, with arbitrary bits below them.
    """
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b, words = [], []
    for k in ks:
        hi, lo = k >> 56, k & LOW_BITS
        byte_choices = [hi, hi, hi, max(hi - 1, 0), min(hi + 1, 255), int(gen.integers(0, 256))]
        low_choices = [lo, max(lo - 1, 0), min(lo + 1, LOW_BITS), 0, LOW_BITS, int(gen.integers(0, LOW_BITS + 1))]
        b.append(byte_choices[gen.integers(len(byte_choices))])
        words.append((low_choices[gen.integers(len(low_choices))] << 8) | int(gen.integers(0, 256)))
    return b, words


def crafted_block(b, words, ks):
    """A block whose column 0 has bytes ``b``; tied trials take their ``words`` entry, in trial order."""
    tied = [w for byte, w, k in zip(b, words, ks) if byte == k >> 56 and k & LOW_BITS]
    asked = []

    def stream_words(master_seed, domain, si, block, column, *tie, n, bit_generator=None):
        assert column == 0
        if not tie:
            return np.frombuffer(bytes(b).ljust(8 * n, b"\0"), dtype="<u8")
        asked.append(n)
        return np.array(tied, dtype=np.uint64)

    return Block(0, 0, 0, 0, len(b)), mock.patch.object(rng, "stream_words", stream_words), asked, len(tied)


def assembled(byte, word, k):
    """The 64-bit U a trial's test decides: its byte, then the tie word's top 56 bits if it ties."""
    return (byte << 56) | ((word >> 8) if byte == k >> 56 else 0)


@property_settings
@given(p=thresholds, data=st.data())
def test_each_event_is_the_integer_test_on_the_assembled_word(p, data):
    k = key(p)
    rows = data.draw(st.integers(1, 200))
    b, words = crafted_trials(data, [k] * rows)
    block, patch, asked, n_tied = crafted_block(b, words, [k] * rows)
    with patch:
        events = block.below(0, p)
    assert events.tolist() == [assembled(byte, w, k) < k for byte, w in zip(b, words)]
    assert asked == ([n_tied] if n_tied else [])
    if k & LOW_BITS == 0:
        assert n_tied == 0  # a threshold of k / 256 never reads a tie word


@property_settings
@given(pair=st.tuples(*[thresholds | st.sampled_from([0.0, 1.0])] * 2), data=st.data())
def test_a_picked_threshold_is_the_integer_test_per_trial(pair, data):
    rows = data.draw(st.integers(1, 200))
    pick = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(rows) < 0.5
    ks = [key(pair[int(chosen)]) for chosen in pick]
    b, words = crafted_trials(data, [min(k, 2**64 - 1) for k in ks])
    block, patch, asked, n_tied = crafted_block(b, words, ks)
    with patch:
        events = block.below(0, pair, pick=pick)
    assert events.tolist() == [assembled(byte, w, k) < k for byte, w, k in zip(b, words, ks)]
    assert sum(asked) == n_tied


def test_constant_thresholds_draw_nothing():
    with mock.patch.object(rng, "stream_words", side_effect=AssertionError("drawn")):
        block = Block(3, 1, 0, 0, 10)
        assert block.below(0, 0.0).tolist() == [False] * 10
        assert block.below(0, 0).tolist() == [False] * 10
        assert block.below(1, 1.0).tolist() == [True] * 10
        pick = np.array([True, False] * 5)
        assert block.below(2, (0.0, 1.0), pick=pick).tolist() == pick.tolist()
        assert block.below(2, (1.0, 0.0), pick=pick).tolist() == (~pick).tolist()


def test_the_frequency_at_one_third_is_its_key():
    # 2**20 trials on real substreams; 1/3's key has nonzero low bits, so
    # about 4096 trials take the tie path, and they are tested on their own.
    p = 1 / 3
    k = key(p)
    hi, lo = k >> 56, k & LOW_BITS
    n = hits = n_tied = tied_hits = 0
    for block_index in range(16):
        block = Block(2024, DOMAIN_STRING_TRIALS, 0, block_index, TRIAL_BLOCK)
        events = block.below(0, p)
        tied = block.column_bytes(0) == hi
        n += events.size
        hits += int(np.count_nonzero(events))
        n_tied += int(np.count_nonzero(tied))
        tied_hits += int(np.count_nonzero(events & tied))
    q = k / 2**64
    assert abs(hits - n * q) / math.sqrt(n * q * (1 - q)) < 5
    q_tie = lo / 2**56
    assert abs(n_tied - n / 256) / math.sqrt(n / 256) < 5
    assert abs(tied_hits - n_tied * q_tie) / math.sqrt(n_tied * q_tie * (1 - q_tie)) < 5


@pytest.mark.parametrize("rows", [1, 17, 4099])
def test_fewer_rows_give_the_same_leading_events(rows):
    # 0.3 and 1/3 both have tie paths; 2**-70 rounds up to K = 1.
    full = Block(5, DOMAIN_STRING_TRIALS, 1, 2, TRIAL_BLOCK)
    head = Block(5, DOMAIN_STRING_TRIALS, 1, 2, rows)
    for column, p in ((0, 0.3), (1, 1 / 3), (2, 2**-70)):
        assert head.below(column, p).tolist() == full.below(column, p)[:rows].tolist()
    pick = full.below(0, 0.3)
    assert (
        head.below(3, (0.3, 1 / 3), pick=pick[:rows]).tolist()
        == full.below(3, (0.3, 1 / 3), pick=pick)[:rows].tolist()
    )
    tied = np.flatnonzero(full.column_bytes(1) == key(1 / 3) >> 56)
    assert tied.size > 200  # the prefix cuts through the tie path


@pytest.mark.parametrize("rows", [1, 8, 13, TRIAL_BLOCK])
def test_bytes_are_those_of_little_endian_words(rows):
    path = (11, DOMAIN_STRING_TRIALS, 2, 3, 4)
    words = substream(*path).bit_generator.random_raw(-(-rows // 8))
    expected = np.frombuffer(words.astype("<u8").tobytes(), np.uint8)[:rows]
    got = Block(*path[:4], rows).column_bytes(4)
    assert got.dtype == np.uint8
    assert got.tobytes() == expected.tobytes()
    assert stream_words(*path, n=words.size).tolist() == words.tolist()


def test_sign_counts_are_the_four_cells():
    gen = np.random.default_rng(3)
    a_plus, b_plus = gen.random(1000) < 0.4, gen.random(1000) < 0.7
    expected = np.bincount((~a_plus) * 2 + (~b_plus), minlength=4).tolist()
    assert list(sign_counts(a_plus, b_plus)) == expected

"""Tests for deterministic substream derivation and the one threshold rule."""

import hashlib
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byte_streams
from byte_streams import LOW_BITS, feeding, key, pack, tied_trials
from entangle_lab import rng
from entangle_lab.rng import (
    DOMAIN_BLOCH_AVERAGE,
    DOMAIN_BLOCH_COLLAPSE,
    DOMAIN_STRING_TRIALS,
    MAX_BLOCKS,
    PLANE_WORDS,
    PLANES,
    STREAM_FORMAT,
    TRIAL_BLOCK,
    Block,
    bit_stream,
    block_uniforms,
    count_outcomes,
    iter_block_slices,
    sign_counts,
    stream_key,
    threshold_key,
    uniforms,
)

property_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """The reference generator of a path, built on ``bit_stream`` apart from ``rng.uniforms``."""
    return np.random.Generator(bit_stream(master_seed, *path))


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
def test_stream_format_is_six():
    assert STREAM_FORMAT == 6
    # The layout the crafted streams of byte_streams write out.
    assert (PLANE_WORDS, PLANES) == (byte_streams.PLANE_WORDS, byte_streams.PLANES)


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
    # The little-endian bytes of the first two words of planes 0 and 1, the
    # first two tie words, and the events of 20 trials they decide.
    for column, plane_0, plane_1, ties in (
        (0, "45c32fc23f6c39393b9a82ef958afe24", "134bc3cb9c6dcafa344f79db5306cca1", ["f08f140e19de8579", "b08fe716c4a2f6b7"]),
        (4, "b702c336f7ed6b40945dae2d21247744", "b0e65893182fde6b015bc628cbc17893", ["34126f68e7c04385", "d0e67fcf1c080d7e"]),
    ):
        words = bit_stream(0, DOMAIN_STRING_TRIALS, 0, 0, column).random_raw(8194)
        assert words[:2].astype("<u8").tobytes().hex() == plane_0
        assert words[1024:1026].astype("<u8").tobytes().hex() == plane_1
        assert [format(int(w), "016x") for w in words[8192:]] == ties
    block = Block(0, DOMAIN_STRING_TRIALS, 0, 0, 20)
    assert [format(int(block.below(c, p)[0]), "05x") for c, p in ((0, 0.5), (4, 0.75), (0, 0.3))] == [
        "03cba", "ffd4f", "03cb8",
    ]


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


def test_uniforms_are_the_generator_floats_of_the_substream():
    expected = substream(3, DOMAIN_BLOCH_AVERAGE, 0, 2).random((5, 7))
    assert uniforms((5, 7), 3, DOMAIN_BLOCH_AVERAGE, 0, 2).tobytes() == expected.tobytes()
    reused = np.random.SFC64(0)
    uniforms(3, 8, 1, bit_generator=reused)  # a reused bit generator's earlier keys do not matter
    assert uniforms((5, 7), 3, DOMAIN_BLOCH_AVERAGE, 0, 2, bit_generator=reused).tobytes() == expected.tobytes()


def test_each_column_is_the_substream_of_its_path():
    expected = substream(3, DOMAIN_STRING_TRIALS, 1, 2, 0).random(17)
    assert block_uniforms(3, DOMAIN_STRING_TRIALS, 1, 2, 17).tobytes() == expected.tobytes()


def _three_cells(si, block):
    events = block.unpack(block.below(0, 0.3 + 0.2 * si)).astype(int) + block.unpack(block.below(1, 1 / 3))
    return np.bincount(events, minlength=3)


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
    original = rng.bit_stream

    def recording(*path, bit_generator=None):
        threads.add(threading.get_ident())
        generators[id(bit_generator)] = bit_generator  # held, so no id is reused
        return original(*path, bit_generator=bit_generator)

    with mock.patch.object(rng, "bit_stream", recording):
        counts = count_outcomes(9, DOMAIN_STRING_TRIALS, 2, n_trials, 3, _three_cells, workers=workers)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
    assert len(threads) <= min(workers, 6)
    assert len(generators) == min(workers, 6)  # one reused bit generator per chunk


@pytest.mark.parametrize("n_trials", [MAX_BLOCKS * TRIAL_BLOCK + 1, 10**12])
def test_count_outcomes_refuses_a_count_past_the_cap_before_any_block(monkeypatch, n_trials):
    def no_block(*args, **kwargs):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(rng, "Block", no_block)
    with pytest.raises(ValueError, match=rf"^n_trials must lie in \[1, {2**32}\], got {n_trials}$"):
        count_outcomes(0, DOMAIN_STRING_TRIALS, 4, n_trials, 4, _three_cells)


@pytest.mark.parametrize("workers", [0, 65, 100_000])
def test_map_blocks_refuses_workers_outside_the_range_before_any_chunk(monkeypatch, workers):
    def never(task, bit_generator):
        raise AssertionError("a chunk ran")

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert rng.MAX_WORKERS == 64
    with pytest.raises(ValueError, match=r"workers must lie in \[1, 64\], got"):
        rng.map_blocks(list(range(8)), never, workers=workers)


def test_count_outcomes_takes_max_blocks_per_setting():
    assert MAX_BLOCKS * TRIAL_BLOCK == 2**32
    counts = count_outcomes(0, DOMAIN_STRING_TRIALS, 1, 2**32, 1, lambda si, block: (block.rows,))
    assert counts.tolist() == [[2**32]]


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
    st.sampled_from([0.5, 0.25, 0.75, 0.375, 0.0078125]),  # 1, 2, 2, 3 and 7 significant bits
    st.sampled_from(BYTE_EDGES),  # at most 8 significant bits: no tie path
    st.sampled_from(BYTE_EDGES).map(lambda p: math.nextafter(p, 0.0)),  # more than 8
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


def planes_read(k: int) -> int:
    """The planes a test at 0 < K < 2**64 reads: K's significant bits, at most 8."""
    return min(len(format(k, "064b").rstrip("0")), 8)


def crafted_us(data, ks):
    """One 64-bit U per trial, for trials tested at the per-trial keys ``ks``.

    Most top bytes sit on or next to the trial's K >> 56, and most low 56
    bits on or next to K's, so the planes and the tie words both decide.
    """
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    us = []
    for k in ks:
        k = min(k, 2**64 - 1)
        hi, lo = k >> 56, k & LOW_BITS
        byte_choices = [hi, hi, hi, max(hi - 1, 0), min(hi + 1, 255), int(gen.integers(0, 256))]
        low_choices = [lo, max(lo - 1, 0), min(lo + 1, LOW_BITS), 0, LOW_BITS, int(gen.integers(0, LOW_BITS + 1))]
        us.append(byte_choices[gen.integers(len(byte_choices))] << 56 | low_choices[gen.integers(len(low_choices))])
    return us


row_counts = st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 200))


@property_settings
@given(p=thresholds, data=st.data())
def test_each_event_is_the_integer_test_on_the_assembled_word(p, data):
    # U is assembled from the trial's bit on every plane and, if it ties, its tie word.
    k = key(p)
    rows = data.draw(row_counts)
    us = crafted_us(data, [k] * rows)
    with feeding({0: us}, lambda si, column: k) as fed:
        block = Block(0, 0, 0, 0, rows)
        events = block.below(0, p)
    assert block.unpack(events).tolist() == [u < k for u in us]
    assert not (events & ~block.valid).any()  # padding bits stay clear
    n_tied = len(tied_trials(us, [k] * rows))
    assert fed.drawn == {(0, 0, 0): PLANE_WORDS * planes_read(k) + n_tied}
    if k & LOW_BITS == 0:
        assert n_tied == 0  # a threshold of k / 256 never reads a tie word


@property_settings
@given(pair=st.tuples(*[thresholds | st.sampled_from([0.0, 1.0])] * 2), data=st.data())
def test_a_picked_threshold_is_the_integer_test_per_trial(pair, data):
    rows = data.draw(row_counts)
    picked = (np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(rows) < 0.5).tolist()
    ks = [key(pair[chosen]) for chosen in picked]
    us = crafted_us(data, ks)
    with feeding({0: us}, lambda si, column: ks) as fed:
        block = Block(0, 0, 0, 0, rows)
        events = block.below(0, pair, pick=pack(picked))  # the pick's padding bits are set
    assert block.unpack(events).tolist() == [u < k for u, k in zip(us, ks)]
    assert not (events & ~block.valid).any()
    inside = [key(q) for q in pair if 0 < q < 1]
    if inside:
        planes = max(map(planes_read, inside))
        assert fed.drawn == {(0, 0, 0): PLANE_WORDS * planes + len(tied_trials(us, ks))}
    else:
        assert fed.drawn == {}


@pytest.mark.parametrize("p", [0.5, 0.75, 1 / 3, 2**-70, math.nextafter(1.0, 0.0)])
def test_a_full_block_is_the_integer_test_on_every_trial(p):
    # Half the trials share K's top byte, so a key with low bits ties some 2**15 of them.
    k = key(p)
    gen = np.random.default_rng(7)
    top = np.where(gen.random(TRIAL_BLOCK) < 0.5, k >> 56, gen.integers(0, 256, TRIAL_BLOCK))
    us = [int(t) << 56 | int(low) for t, low in zip(top, gen.integers(0, LOW_BITS + 1, TRIAL_BLOCK, dtype=np.uint64))]
    with feeding({0: us}, lambda si, column: k) as fed:
        block = Block(0, 0, 0, 0, TRIAL_BLOCK)
        events = block.unpack(block.below(0, p))
    assert events.tolist() == [u < k for u in us]
    assert fed.drawn[0, 0, 0] == PLANE_WORDS * planes_read(k) + len(tied_trials(us, [k] * TRIAL_BLOCK))


def test_constant_thresholds_draw_nothing():
    with mock.patch.object(rng, "bit_stream", side_effect=AssertionError("drawn")):
        block = Block(3, 1, 0, 0, 10)
        assert block.unpack(block.below(0, 0.0)).tolist() == [False] * 10
        assert block.unpack(block.below(0, 0)).tolist() == [False] * 10
        assert block.unpack(block.below(1, 1.0)).tolist() == [True] * 10
        picked = [True, False] * 5
        for pair, expected in (((0.0, 1.0), picked), ((1.0, 0.0), [not x for x in picked])):
            events = block.below(2, pair, pick=pack(picked))
            assert block.unpack(events).tolist() == expected
            assert not (events & ~block.valid).any()


@pytest.mark.parametrize("rows", [0, -1, TRIAL_BLOCK + 1])
def test_a_block_holds_one_to_trial_block_rows(rows):
    with pytest.raises(ValueError, match=rf"rows must be in \[1, {TRIAL_BLOCK}\], got {rows}"):
        Block(0, DOMAIN_STRING_TRIALS, 0, 0, rows)


def top_bytes(path, rows):
    """Each trial's top byte, from bit r of the first 8 planes of the substream at ``path``."""
    planes = bit_stream(*path).random_raw(8 * 1024).reshape(8, 1024)[:, : -(-rows // 64)]
    bits = np.unpackbits(planes.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, :rows]
    return (bits.astype(np.int64) << np.arange(7, -1, -1)[:, None]).sum(axis=0)


def test_the_frequency_at_one_third_is_its_key():
    # 2**20 trials on real substreams; 1/3's key has nonzero low bits, so
    # about 4096 trials take the tie path, and they are tested on their own.
    p = 1 / 3
    k = key(p)
    hi, lo = k >> 56, k & LOW_BITS
    n = hits = n_tied = tied_hits = 0
    for block_index in range(16):
        block = Block(2024, DOMAIN_STRING_TRIALS, 0, block_index, TRIAL_BLOCK)
        events = block.unpack(block.below(0, p))
        tied = top_bytes((*block.path, 0), TRIAL_BLOCK) == hi
        n += events.size
        hits += int(np.count_nonzero(events))
        n_tied += int(np.count_nonzero(tied))
        tied_hits += int(np.count_nonzero(events & tied))
    q = k / 2**64
    assert abs(hits - n * q) / math.sqrt(n * q * (1 - q)) < 5
    q_tie = lo / 2**56
    assert abs(n_tied - n / 256) / math.sqrt(n / 256) < 5
    assert abs(tied_hits - n_tied * q_tie) / math.sqrt(n_tied * q_tie * (1 - q_tie)) < 5


@pytest.mark.parametrize("rows", [1, 17, 63, 65, 4099])
def test_fewer_rows_give_the_same_leading_events(rows):
    # 0.3 and 1/3 both have tie paths; 2**-70 rounds up to K = 1; 0.75 reads two planes.
    full = Block(5, DOMAIN_STRING_TRIALS, 1, 2, TRIAL_BLOCK)
    head = Block(5, DOMAIN_STRING_TRIALS, 1, 2, rows)
    for column, p in ((0, 0.3), (1, 1 / 3), (2, 2**-70), (4, 0.75)):
        assert head.unpack(head.below(column, p)).tolist() == full.unpack(full.below(column, p))[:rows].tolist()
    pick = full.below(0, 0.3)
    assert (
        head.unpack(head.below(3, (0.3, 1 / 3), pick=pick[: head.words])).tolist()
        == full.unpack(full.below(3, (0.3, 1 / 3), pick=pick))[:rows].tolist()
    )
    tied = np.flatnonzero(top_bytes((*full.path, 1), TRIAL_BLOCK) == key(1 / 3) >> 56)
    assert tied.size > 200  # the prefix cuts through the tie path


@pytest.mark.parametrize("rows", [1, 8, 13, TRIAL_BLOCK])
def test_bytes_are_those_of_little_endian_words(rows):
    # Trial r reads bit r % 8 of byte r // 8 of each plane's little-endian
    # bytes: at 1/2 its event is plane 0's bit clear, at 0.25 both of the
    # first two planes' bits clear, at 0.75 either.
    path = (11, DOMAIN_STRING_TRIALS, 2, 3, 4)
    words = substream(*path).bit_generator.random_raw(2 * PLANE_WORDS)
    clear = [
        np.unpackbits(np.frombuffer(words[PLANE_WORDS * j: PLANE_WORDS * (j + 1)].astype("<u8").tobytes(), np.uint8),
                      bitorder="little")[:rows] == 0
        for j in (0, 1)
    ]
    block = Block(*path[:4], rows)
    assert block.unpack(block.below(4, 0.5)).tolist() == clear[0].tolist()
    assert block.unpack(block.below(4, 0.25)).tolist() == (clear[0] & clear[1]).tolist()
    assert block.unpack(block.below(4, 0.75)).tolist() == (clear[0] | clear[1]).tolist()


def test_sign_counts_are_the_four_cells():
    # 1000 trials fill 15 words and 40 bits of a 16th; the padding bits of
    # both masks are set and must not be counted.
    gen = np.random.default_rng(3)
    a_plus, b_plus = gen.random(1000) < 0.4, gen.random(1000) < 0.7
    expected = np.bincount((~a_plus) * 2 + (~b_plus), minlength=4).tolist()
    assert list(sign_counts(pack(a_plus), pack(b_plus), 1000)) == expected
    assert list(sign_counts(~pack(a_plus), ~pack(b_plus), 1000)) == expected[::-1]
    full = gen.random(1024) < 0.5  # no padding
    assert list(sign_counts(pack(full), pack(~full), 1024)) == [0, int(full.sum()), int((~full).sum()), 0]

"""Tests for deterministic substream derivation and the one threshold rule."""

import gc
import hashlib
import math
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byte_streams
from byte_streams import LOW_BITS, feeding, key, pack, tied_trials
from entangle_lab import bloch, quantum, rng, strings
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


def keyed_by_setter(master_seed: int, *path: int) -> np.random.SFC64:
    """An SFC64 keyed through numpy's ``state`` setter with the little-endian words of ``stream_key``."""
    words = np.frombuffer(stream_key(master_seed, *path).to_bytes(32, "little"), dtype="<u8")
    bit_generator = np.random.SFC64(0)
    bit_generator.state = {"bit_generator": "SFC64", "state": {"state": words}, "has_uint32": 0, "uinteger": 0}
    return bit_generator


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """The reference generator of a path: a fresh SFC64 of its own, keyed apart from ``rng``'s draws."""
    return np.random.Generator(keyed_by_setter(master_seed, *path))


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


def on_a_new_thread(seed: int, path: list) -> np.random.SFC64:
    """``bit_stream`` on a thread of its own, so it keys a freshly made generator."""
    streams = []
    thread = threading.Thread(target=lambda: streams.append(bit_stream(seed, *path)))
    thread.start()
    thread.join()
    assert streams[0] is not rng._thread_generator()
    return streams[0]


def after_a_draw(seed: int, path: list) -> np.random.SFC64:
    """``bit_stream`` on this thread's generator, reused after another stream's words."""
    bit_stream(5, 1, 2).random_raw(3)
    return bit_stream(seed, *path)


def mid_word(seed: int, path: list) -> np.random.SFC64:
    """``bit_stream`` on this thread's generator holding half a word from a ``uint32`` draw: ``has_uint32 = 1``."""
    np.random.Generator(bit_stream(5, 1, 2)).integers(1 << 32, dtype=np.uint32)
    assert rng._thread_generator().state["has_uint32"] == 1
    return bit_stream(seed, *path)


@property_settings
@given(
    seed=st.integers(0, 2**64 - 1),
    path=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=5),
    keyed=st.sampled_from([on_a_new_thread, after_a_draw, mid_word]),
)
def test_the_in_place_key_is_the_state_setters(seed, path, keyed):
    stream = keyed(seed, path)
    reference = keyed_by_setter(seed, *path)
    state = stream.state
    assert state["state"]["state"].tolist() == reference.state["state"]["state"].tolist()
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    assert stream.random_raw(3).tolist() == reference.random_raw(3).tolist()
    for draw in (lambda g: g.random(3), lambda g: g.integers(1 << 32, size=3, dtype=np.uint32)):
        assert draw(np.random.Generator(stream)).tolist() == draw(np.random.Generator(reference)).tolist()


def test_a_finished_threads_generator_is_not_held():
    # An SFC64 takes no weak reference, so its references are counted: once
    # the thread has ended, only this test's list and getrefcount's argument
    # hold the generator.  (Counted outside the assert, whose rewriting would
    # hold one more.)
    drawn = []

    def draw():
        Block(3, DOMAIN_STRING_TRIALS, 0, 0, 64).below(0, 1 / 3)
        drawn.append(rng._thread_generator())

    thread = threading.Thread(target=draw)
    thread.start()
    thread.join()
    gc.collect()
    references = sys.getrefcount(drawn[0])
    assert references == 2


def test_bit_stream_keys_and_returns_the_threads_one_generator():
    assert bit_stream(0, 1) is bit_stream(0, 2) is rng._thread_generator()
    drawn = []  # held, so the two threads' generators are alive at once

    def draw():
        drawn.append(bit_stream(0, 1))
        assert drawn[-1] is rng._thread_generator()

    for _ in range(2):
        thread = threading.Thread(target=draw)
        thread.start()
        thread.join()
    assert len({id(g) for g in [*drawn, rng._thread_generator()]}) == 3


def test_bit_stream_takes_no_generator():
    with pytest.raises(TypeError, match="bit_generator"):
        bit_stream(0, 1, bit_generator=np.random.SFC64(0))


def test_a_state_layout_mismatch_refuses_every_new_generator(monkeypatch):
    # This thread's generator is made already; each new thread's is refused.
    monkeypatch.setattr(rng, "_SFC64_STATE", struct.Struct(">4QiI"))  # the words byte-swapped
    rng._check_state_layout.cache_clear()
    refused = []

    def draw():
        try:
            bit_stream(0, 1)
        except RuntimeError as error:
            refused.append(str(error))

    for _ in range(2):  # a failed check is not cached
        thread = threading.Thread(target=draw)
        thread.start()
        thread.join()
    assert refused == [f"numpy {np.__version__}: SFC64's state is not laid out as '>4QiI'"] * 2


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
    uniforms(3, 8, 1)  # the thread's generator is re-keyed: a draw on another path first does not matter
    assert uniforms((5, 7), 3, DOMAIN_BLOCH_AVERAGE, 0, 2).tobytes() == expected.tobytes()


def test_each_column_is_the_substream_of_its_path():
    expected = substream(3, DOMAIN_STRING_TRIALS, 1, 2, 0).random(17)
    assert block_uniforms(3, DOMAIN_STRING_TRIALS, 1, 2, 17).tobytes() == expected.tobytes()


def _three_cells(si, block):
    events = block.unpack(block.below(0, 0.3 + 0.2 * si)).astype(int) + block.unpack(block.below(1, 1 / 3))
    return np.bincount(events, minlength=3)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_count_outcomes_sums_fresh_block_counts_for_any_workers(workers):
    # Three blocks per setting, the last one partial, make one run per
    # setting; two settings give two tasks, so seven workers start two
    # threads.  Column 1 tests 1/3, whose key has nonzero low bits, so tied
    # trials draw tie words too.
    n_trials = 2 * TRIAL_BLOCK + 17
    expected = np.zeros((2, 3), dtype=np.int64)
    for si in range(2):
        for block, _start, rows in iter_block_slices(n_trials):
            expected[si] += _three_cells(si, Block(9, DOMAIN_STRING_TRIALS, si, block, rows))
    threads, generators = set(), {}
    original = rng.bit_stream

    def recording(*path):
        threads.add(threading.get_ident())
        stream = original(*path)
        generators[id(stream)] = stream  # held, so no id is reused
        return stream

    with mock.patch.object(rng, "bit_stream", recording):
        counts = count_outcomes(9, DOMAIN_STRING_TRIALS, 2, n_trials, 3, _three_cells, workers=workers)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
    assert len(threads) <= min(workers, 2)
    assert len(generators) == len(threads)  # one reused bit generator per drawing thread


_V4 = strings.StringModelConfig(variant=strings.Variant.V4, p_w=0.5, p_1=0.75)
_Z_FRAME = bloch.MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "sample",
    [
        pytest.param(lambda: strings.estimate_table(_V4, 1000, 3, workers=1), id="estimate_table"),
        pytest.param(lambda: quantum.sample_table(strings.analytic_table(_V4), 1000, 3, workers=1), id="sample_table"),
        pytest.param(
            lambda: bloch.collapse_counts((0.0, 0.0, 0.3), _Z_FRAME, bloch.BreakDistribution(), 1000, 3, workers=1),
            id="collapse_counts",
        ),
        pytest.param(lambda: bloch.universal_average((0.0, 0.0, 0.3), _Z_FRAME, 8, 1000, 3, workers=1), id="universal_average"),
    ],
)
def test_a_draw_keys_the_threads_own_generator(monkeypatch, sample):
    # With one worker every draw runs on the calling thread and re-keys its
    # generator: no sampler seeds a fresh one per task or per block.
    held, original = [], rng.bit_stream

    def recording(*path):
        held.append(original(*path))
        return held[-1]

    monkeypatch.setattr(rng, "bit_stream", recording)
    sample()
    assert held
    assert {id(g) for g in held} == {id(rng._thread_generator())}


@pytest.mark.parametrize("n_trials", [MAX_BLOCKS * TRIAL_BLOCK + 1, 10**12])
def test_count_outcomes_refuses_a_count_past_the_cap_before_any_block(monkeypatch, n_trials):
    def no_block(*args, **kwargs):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(rng, "Block", no_block)
    with pytest.raises(ValueError, match=rf"^n_trials must lie in \[1, {2**32}\], got {n_trials}$"):
        count_outcomes(0, DOMAIN_STRING_TRIALS, 4, n_trials, 4, _three_cells)


@pytest.mark.parametrize("workers", [0, 65, 100_000])
def test_map_blocks_refuses_workers_outside_the_range_before_any_chunk(monkeypatch, workers):
    def never(task):
        raise AssertionError("a task ran")

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


dyadic = st.integers(1, 255).map(lambda k: k / 256)  # at most 8 planes, no tie word
tie_path = st.floats(2**-12, 1.0, exclude_max=True).filter(lambda p: key(p) & LOW_BITS)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_blocks=st.integers(rng._RUN_BLOCKS, 2 * rng._RUN_BLOCKS + 1),
    tail=st.integers(1, TRIAL_BLOCK - 1),
    p_dyadic=dyadic,
    p_tie=tie_path,
    pair=st.tuples(dyadic | tie_path | st.sampled_from([0.0, 1.0]), dyadic | tie_path),
)
def test_count_outcomes_over_runs_sums_single_block_counts(n_blocks, tail, p_dyadic, p_tie, pair):
    # More than one run, the last block partial; column 2 tests the pair,
    # picked per trial by column 0's event.
    n_trials = n_blocks * TRIAL_BLOCK + tail
    assert len(list(iter_block_slices(n_trials, blocks=rng._RUN_BLOCKS))) > 1

    def eight_cells(si, block):
        first = block.below(0, p_dyadic)
        events = [first, block.below(1, p_tie), block.below(2, pair, pick=first)]
        return np.bincount(sum(block.unpack(e).astype(int) << i for i, e in enumerate(events)), minlength=8)

    expected = np.zeros((2, 8), dtype=np.int64)
    for si in range(2):
        for block, _start, rows in iter_block_slices(n_trials):
            expected[si] += eight_cells(si, Block(4, DOMAIN_STRING_TRIALS, si, block, rows))
    for workers in (1, 2):
        counts = count_outcomes(4, DOMAIN_STRING_TRIALS, 2, n_trials, 8, eight_cells, workers=workers)
        np.testing.assert_array_equal(counts, expected)


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


@property_settings
@given(start=st.integers(0, 40 * TRIAL_BLOCK), n_trials=st.integers(1, 40 * TRIAL_BLOCK), blocks=st.integers(1, 12))
def test_iter_block_slices_makes_the_fewest_balanced_runs(start, n_trials, blocks):
    end = start + n_trials
    runs = list(iter_block_slices(end, start, blocks=blocks))
    first_block, n_blocks = start // TRIAL_BLOCK, -(-end // TRIAL_BLOCK) - start // TRIAL_BLOCK
    assert len(runs) == -(-n_blocks // blocks)
    # Each run starts at its block's boundary, right where the one before ends,
    # and the last ends at ``end``: the runs hold exactly the blocks of [start, end).
    assert runs[0][:2] == (first_block, first_block * TRIAL_BLOCK)
    for (block, first, rows), (next_block, next_first, _) in zip(runs, runs[1:]):
        assert rows % TRIAL_BLOCK == 0
        assert (next_block, next_first) == (block + rows // TRIAL_BLOCK, first + rows)
    assert all(first == block * TRIAL_BLOCK for block, first, _ in runs)
    assert runs[-1][1] + runs[-1][2] == end
    lengths = [-(-rows // TRIAL_BLOCK) for _, _, rows in runs]
    assert sum(lengths) == n_blocks
    assert max(lengths) <= blocks and max(lengths) - min(lengths) <= 1


@pytest.mark.parametrize("n_blocks, lengths", [(1, [1]), (2, [2]), (5, [5]), (6, [3, 3]), (10, [5, 5]), (11, [4, 4, 3]), (16, [4, 4, 4, 4])])
def test_count_outcomes_runs_the_fewest_balanced_tasks_per_setting(n_blocks, lengths):
    assert rng._RUN_BLOCKS == 5
    calls = []

    def record(si, block):
        calls.append((si, block.path[3], block.rows))
        return (block.rows,)

    counts = count_outcomes(0, DOMAIN_STRING_TRIALS, 2, n_blocks * TRIAL_BLOCK - 3, 1, record)
    assert counts.tolist() == [[n_blocks * TRIAL_BLOCK - 3]] * 2
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    rows = [length * TRIAL_BLOCK for length in lengths[:-1]] + [lengths[-1] * TRIAL_BLOCK - 3]
    assert calls == [(si, start, r) for si in range(2) for start, r in zip(starts, rows)]


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


@pytest.mark.parametrize("p, picked", [(0.75, False), (1 / 3, False), ((0.25, 1 / 3), True), ((1.0, 0.75), True)])
def test_a_run_after_other_row_counts_sets_no_bit_past_its_rows(p, picked):
    # Every Block of a row count shares one read-only valid mask; a run built
    # after Blocks of other row counts must still get its own.
    for rows in (1, 63, 64, 4099, TRIAL_BLOCK, TRIAL_BLOCK + 1):
        Block(2, DOMAIN_STRING_TRIALS, 0, 0, rows, max_blocks=3).below(0, 0.75)
    rows = 2 * TRIAL_BLOCK + 37
    block = Block(2, DOMAIN_STRING_TRIALS, 0, 0, rows, max_blocks=3)
    assert block.valid is Block(9, DOMAIN_BLOCH_COLLAPSE, 1, 5, rows, max_blocks=3).valid
    with pytest.raises(ValueError, match="read-only"):
        block.valid[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        block.valid[-1] |= np.uint64(1 << 63)
    assert block.valid.tolist() == [2**64 - 1] * (2 * PLANE_WORDS) + [2**37 - 1]
    events = block.below(1, p, pick=block.below(0, 0.5) if picked else None)
    assert events.size == 2 * PLANE_WORDS + 1
    assert int(events[-1]) >> 37 == 0
    assert np.bitwise_count(events).sum() == block.unpack(events).sum() > 0


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


@property_settings
@given(rows=st.integers(1, 5 * TRIAL_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_sign_counts_are_exact_whatever_the_padding_bits_hold(rows, seed):
    gen = np.random.default_rng(seed)
    words = -(-rows // 64)
    a_words, b_words = (gen.integers(0, 2**64, size=words, dtype=np.uint64) for _ in range(2))
    a_plus, b_plus = (np.unpackbits(w.astype("<u8").view(np.uint8), bitorder="little")[:rows].view(bool) for w in (a_words, b_words))
    expected = np.bincount((~a_plus) * 2 + (~b_plus), minlength=4).tolist()
    assert list(sign_counts(a_words, b_words, rows)) == expected


def test_sign_counts_refuse_masks_of_2_26_words_before_any_work():
    # Broadcast, so no memory is allocated: each count sums in 32 bits, and
    # 2**26 words of 64 bits could reach 2**32.
    words = np.broadcast_to(np.uint64(0), (1 << 26,))
    with pytest.raises(ValueError, match=r"^sign_counts takes fewer than 67108864 words, got 67108864$"):
        sign_counts(words, words, 64 << 26)


def test_each_thread_keys_its_own_generator_and_draws_never_mix(monkeypatch):
    # Blocks made on this thread are drawn on eight others at once, with
    # float draws between them and a short switch interval: a generator
    # shared across threads would be re-keyed mid-read and give other words.
    blocks = [Block(4, DOMAIN_STRING_TRIALS, si, 0, 3000) for si in range(8)]
    expected = [(blocks[si].below(0, 1 / 3).tobytes(), block_uniforms(4, DOMAIN_BLOCH_AVERAGE, si, 0, 3000).tobytes()) for si in range(8)]
    keyed, original = {}, rng.bit_stream

    def recording(*path):
        stream = original(*path)
        keyed.setdefault(threading.current_thread(), []).append(stream)  # held, so no id is reused
        return stream

    monkeypatch.setattr(rng, "bit_stream", recording)
    got, errors = {}, []

    def draw(si):
        try:
            for _ in range(20):
                got[si] = (blocks[si].below(0, 1 / 3).tobytes(), block_uniforms(4, DOMAIN_BLOCH_AVERAGE, si, 0, 3000).tobytes())
                if got[si] != expected[si]:
                    return
        except BaseException as error:  # reported below, on the test's thread
            errors.append(error)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(si,)) for si in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert got == dict(enumerate(expected))
    assert set(keyed) == set(threads)
    generators = [{id(g) for g in held} for held in keyed.values()]
    assert [len(ids) for ids in generators] == [1] * 8 and len(set.union(*generators)) == 8  # one per drawing thread

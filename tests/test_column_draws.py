"""The string sampler draws only the columns a setting's outcome reads, and only the planes it needs.

Every (setting, block, column) has its own substream, and a setting asks for
a column only where its outcome reads that event and the event's threshold
lies strictly inside (0, 1).  A column draws 1024 words per bit plane its
threshold reads, whatever the block's rows, and a non-dyadic threshold
draws all 8 planes plus one word per tied trial, from the same substream.
Skipping a column must not change a count: ``estimate_table`` still tallies
exactly what ``iter_trials`` replays from the full row layout, for any
number of workers.
"""

import collections
from unittest import mock

import numpy as np
import pytest

from byte_streams import key
from entangle_lab import rng
from entangle_lab.rng import DOMAIN_STRING_TRIALS, TRIAL_BLOCK
from entangle_lab.strings import SETTINGS, StringModelConfig, Variant, draws_per_trial, estimate_table, iter_trials

N_TRIALS = TRIAL_BLOCK + 17


class Counting:
    """A keyed bit generator that adds the words it yields to ``words[path]``."""

    def __init__(self, stream, words, path):
        self.stream, self.words, self.path = stream, words, path

    def random_raw(self, n):
        self.words[self.path] += n
        return self.stream.random_raw(n)


def drawing(calls, words):
    """Patch ``rng.bit_stream`` to count each string (setting, block, column)'s keyings and words."""
    original = rng.bit_stream

    def counting(master_seed, domain, si, block, column):
        stream = original(master_seed, domain, si, block, column)
        if domain != DOMAIN_STRING_TRIALS:  # a replay's break draws
            return stream
        calls[si, block, column] += 1
        return Counting(stream, words, (si, block, column))

    return mock.patch.object(rng, "bit_stream", counting)


def drawn_columns(config, n_trials=N_TRIALS, seed=3):
    """Run ``estimate_table``; return how often each (setting, block, column) was drawn, and its words."""
    calls, words = collections.Counter(), collections.Counter()
    with drawing(calls, words):
        estimate_table(config, n_trials, seed)
    return calls, words


# The benchmark's sampled-table parameters and the columns one block draws
# over its four settings: 30 of the 52 a full row layout would draw.
MC_TABLES = [
    ((Variant.V1, 1, None), 1),
    ((Variant.V1_PRE_BROKEN, 1, None), 3),
    ((Variant.V2, 0.75, None), 4),
    ((Variant.V3, 0.5, None), 5),
    ((Variant.V4, 0.5, 0.25), 17),
]


@pytest.mark.parametrize("params, per_block", MC_TABLES, ids=[p[0].value for p, _ in MC_TABLES])
def test_a_block_draws_only_the_columns_its_outcomes_read(params, per_block):
    variant, p_w, p_1 = params
    calls, _ = drawn_columns(StringModelConfig(variant=variant, p_w=p_w, p_1=p_1))
    assert set(calls.values()) == {1}  # each column at most once per block
    for block in (0, 1):
        assert sum(1 for _si, b, _column in calls if b == block) == per_block


# Planes read at each threshold of the benchmark: 1/2 is 0.1 in binary, and
# 0.75 and 0.25 are 0.11 and 0.01.
PLANES_AT = {0.5: 1, 0.75: 2, 0.25: 2}


@pytest.mark.parametrize("params, per_block", MC_TABLES, ids=[p[0].value for p, _ in MC_TABLES])
def test_a_dyadic_threshold_draws_one_plane_per_bit(params, per_block):
    # The full block and the 17-row block draw the same 1024 words per plane.
    variant, p_w, p_1 = params
    _, words = drawn_columns(StringModelConfig(variant=variant, p_w=p_w, p_1=p_1))
    cut = draws_per_trial(variant) - 1
    for (_si, _block, column), n in words.items():
        p = 0.5 if column == cut else p_w if column < 2 else p_1
        assert n == 1024 * PLANES_AT[p], (column, p)
    assert {(si, column) for si, b, column in words if b == 0} == {(si, column) for si, b, column in words if b == 1}


def tied_count(seed, si, block, column, rows, k):
    """Trials of a column whose top byte, read from its 8 planes, equals K's."""
    planes = rng.bit_stream(seed, DOMAIN_STRING_TRIALS, si, block, column).random_raw(8192).reshape(8, 1024)
    bits = np.unpackbits(planes[:, : -(-rows // 64)].astype("<u8").view(np.uint8), axis=1, bitorder="little")
    top = (bits[:, :rows].astype(np.int64) << np.arange(7, -1, -1)[:, None]).sum(axis=0)
    return int(np.count_nonzero(top == k >> 56))


def test_a_tie_path_column_draws_eight_planes_and_a_word_per_tied_trial():
    _, words = drawn_columns(StringModelConfig(Variant.V2, p_w=0.3))
    for (si, block, column), n in words.items():
        if column == 1:  # the cut
            assert n == 1024
        else:
            rows = TRIAL_BLOCK if block == 0 else 17
            assert n == 8192 + tied_count(3, si, block, column, rows, key(0.3))
    assert any(n > 8192 for n in words.values())


@pytest.mark.parametrize(
    "config, skipped",
    [
        (StringModelConfig(Variant.V1), {0}),
        (StringModelConfig(Variant.V1_PRE_BROKEN), {0}),
        (StringModelConfig(Variant.V2, p_w=0), {0}),
        (StringModelConfig(Variant.V2, p_w=1), {0}),
        (StringModelConfig(Variant.V3, p_w=0), {0}),
        (StringModelConfig(Variant.V3, p_w=1), {0}),
        (StringModelConfig(Variant.V4, p_w=0, p_1=0.3), {0, 1}),
        (StringModelConfig(Variant.V4, p_w=1, p_1=0.3), {0, 1}),
        (StringModelConfig(Variant.V4, p_w=0.4, p_1=0), {2, 3}),
        (StringModelConfig(Variant.V4, p_w=0.4, p_1=1), {2, 3}),
    ],
    ids=lambda x: repr(x) if isinstance(x, set) else f"{x.variant.value}-{x.p_w}-{x.p_1}",
)
def test_a_constant_threshold_draws_nothing(config, skipped):
    calls, _ = drawn_columns(config, n_trials=100)
    assert calls  # the cut is drawn in every variant
    assert not {column for _si, _block, column in calls} & skipped


EDGE_CONFIGS = [
    StringModelConfig(Variant.V1),
    StringModelConfig(Variant.V1_PRE_BROKEN),
    StringModelConfig(Variant.V2, p_w=0),
    StringModelConfig(Variant.V2, p_w=1),
    StringModelConfig(Variant.V3, p_w=0),
    StringModelConfig(Variant.V3, p_w=1),
    StringModelConfig(Variant.V4, p_w=0, p_1=1),
    StringModelConfig(Variant.V4, p_w=1, p_1=0.3),
    StringModelConfig(Variant.V4, p_w=0.4, p_1=0),
]


@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: f"{c.variant.value}-{c.p_w}-{c.p_1}")
def test_counts_equal_the_replayed_tally_for_any_workers(config):
    results = [estimate_table(config, N_TRIALS, 41, workers=w)[1] for w in (1, 2, 3)]
    assert results[0] == results[1] == results[2]
    for setting in SETTINGS:
        tally = [0, 0, 0, 0]
        for pair, _trace in iter_trials(config, setting, 41, N_TRIALS):
            tally[pair.index] += 1
        assert results[0][setting.label] == tuple(tally)


def test_a_replay_draws_only_the_blocks_it_reaches():
    # Trials 2 * TRIAL_BLOCK + 1 to + 3 lie in block 2: blocks 0 and 1 are
    # never drawn.  The cut reads one plane; 0.4 and 0.3 read all eight, and
    # a tied trial among rows 0 to 3 would add a word.
    config = StringModelConfig(Variant.V4, p_w=0.4, p_1=0.3)
    calls, words = collections.Counter(), collections.Counter()
    with drawing(calls, words):
        for setting in SETTINGS:
            assert len(list(iter_trials(config, setting, 3, 3, start=2 * TRIAL_BLOCK + 1))) == 3
    assert {block for _si, block, _column in words} == {2}
    for (si, block, column), n in words.items():
        p = {0: 0.4, 1: 0.4, 2: 0.3, 3: 0.3}.get(column)
        assert n == (1024 if p is None else 8192 + tied_count(3, si, 2, column, 4, key(p)))

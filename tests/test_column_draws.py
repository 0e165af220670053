"""The string sampler draws only the columns a setting's outcome reads.

Every (setting, block, column) has its own substream, and a setting asks for
a column only where its outcome reads that event and the event's threshold
lies strictly inside (0, 1).  A column's tie substream is drawn only for
its tied trials and is not counted as a column here.  Skipping a column must not change a count:
``estimate_table`` still tallies exactly what ``iter_trials`` replays from
the full row layout, for any number of workers.
"""

import collections
from unittest import mock

import pytest

from entangle_lab import rng
from entangle_lab.rng import TRIAL_BLOCK
from entangle_lab.strings import SETTINGS, StringModelConfig, Variant, estimate_table, iter_trials

N_TRIALS = TRIAL_BLOCK + 17


def drawn_columns(config, n_trials=N_TRIALS, seed=3):
    """Run ``estimate_table`` and return how often each (setting, block, column) was drawn."""
    calls = collections.Counter()
    original = rng.stream_words

    def counting(master_seed, domain, si, block, column, *tie, n, bit_generator=None):
        if not tie:
            calls[si, block, column] += 1
        return original(master_seed, domain, si, block, column, *tie, n=n, bit_generator=bit_generator)

    with mock.patch.object(rng, "stream_words", counting):
        estimate_table(config, n_trials, seed)
    return calls


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
    calls = drawn_columns(StringModelConfig(variant=variant, p_w=p_w, p_1=p_1))
    assert set(calls.values()) == {1}  # each column at most once per block
    for block in (0, 1):
        assert sum(1 for _si, b, _column in calls if b == block) == per_block


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
    calls = drawn_columns(config, n_trials=100)
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
    # never drawn, and each column draws the one word holding rows 0 to 3.
    config = StringModelConfig(Variant.V4, p_w=0.4, p_1=0.3)
    calls = collections.Counter()
    original = rng.stream_words

    def counting(master_seed, domain, si, block, column, *tie, n, bit_generator=None):
        if not tie:
            calls[block, n] += 1
        return original(master_seed, domain, si, block, column, *tie, n=n, bit_generator=bit_generator)

    with mock.patch.object(rng, "stream_words", counting):
        for setting in SETTINGS:
            assert len(list(iter_trials(config, setting, 3, 3, start=2 * TRIAL_BLOCK + 1))) == 3
    assert set(calls) == {(2, 1)}

"""Tests for the string-model samplers, analytic tables and LHV baseline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from byte_streams import feeding_rows, quantized
from entangle_lab.probability import InvariantViolation, chsh, correlation, marginals
from entangle_lab.rng import TRIAL_BLOCK
from entangle_lab.strings import (
    SETTINGS,
    OutcomePair,
    Setting,
    StringModelConfig,
    Variant,
    analytic_table,
    draws_per_trial,
    estimate_table,
    iter_trials,
    lhv_table,
    pre_broken_lhv_strategy,
    random_lhv_strategy,
)

HALF = Fraction(1, 2)
P_W_GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(math.sqrt(2) / 2), Fraction(1))
P_1_GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1))

AB, AB_PRIME, A_PRIME_B, A_PRIME_B_PRIME = SETTINGS


def rows_of(table):
    return [dist.probabilities() for _, dist in table.rows()]


# --- published closed forms, written out independently of the enumeration ---


def v2_reference_rows(p_w):
    p_b = 1 - p_w
    return [
        (0, HALF, HALF, 0),
        (p_w, p_b, 0, 0),
        (p_w, 0, p_b, 0),
        (p_w, 0, 0, p_b),
    ]


def v3_reference_rows(p_w):
    p_b = 1 - p_w
    diag = (p_w, 0, 0, p_b)
    return [(0, HALF, HALF, 0), diag, diag, diag]


def v4_reference_rows(p_w, p_1):
    p_b = 1 - p_w
    p_2 = 1 - p_1
    ab = (
        2 * p_1 * p_2 * p_w**2,
        HALF + p_1 * p_2 * (2 * p_w * p_b - 1),
        HALF + p_1 * p_2 * (2 * p_w * p_b - 1),
        2 * p_1 * p_2 * p_b**2,
    )
    other = (
        p_w * (1 - 2 * p_1 * p_2 * p_b),
        2 * p_1 * p_2 * p_w * p_b,
        2 * p_1 * p_2 * p_w * p_b,
        p_b * (1 - 2 * p_1 * p_2 * p_w),
    )
    return [ab, other, other, other]


class TestAnalyticTables:
    def test_white_string(self):
        table = analytic_table(StringModelConfig(variant=Variant.V1))
        assert rows_of(table) == [
            (0, HALF, HALF, 0),
            (1, 0, 0, 0),
            (1, 0, 0, 0),
            (1, 0, 0, 0),
        ]

    def test_pre_broken(self):
        table = analytic_table(StringModelConfig(variant=Variant.V1_PRE_BROKEN))
        assert rows_of(table) == [
            (0, HALF, HALF, 0),
            (HALF, 0, HALF, 0),
            (HALF, HALF, 0, 0),
            (1, 0, 0, 0),
        ]

    @pytest.mark.parametrize("p_w", P_W_GRID)
    def test_unstable_color(self, p_w):
        table = analytic_table(StringModelConfig(variant=Variant.V2, p_w=p_w))
        assert rows_of(table) == v2_reference_rows(p_w)

    @pytest.mark.parametrize("p_w", P_W_GRID)
    def test_parity(self, p_w):
        table = analytic_table(StringModelConfig(variant=Variant.V3, p_w=p_w))
        assert rows_of(table) == v3_reference_rows(p_w)

    @pytest.mark.parametrize("p_w", P_W_GRID)
    @pytest.mark.parametrize("p_1", P_1_GRID)
    def test_two_string(self, p_w, p_1):
        table = analytic_table(StringModelConfig(variant=Variant.V4, p_w=p_w, p_1=p_1))
        assert rows_of(table) == v4_reference_rows(p_w, p_1)

    def test_two_string_known_point(self):
        table = analytic_table(StringModelConfig(variant=Variant.V4, p_w=HALF, p_1=HALF))
        eighth = Fraction(1, 8)
        assert table.ab.probabilities() == (eighth, 3 * eighth, 3 * eighth, eighth)

    @pytest.mark.parametrize("p_1", (Fraction(0), Fraction(1)))
    def test_two_string_single_string_limit(self, p_1):
        # selecting one string with certainty reduces V4 to V3
        for p_w in P_W_GRID:
            v4 = analytic_table(StringModelConfig(variant=Variant.V4, p_w=p_w, p_1=p_1))
            v3 = analytic_table(StringModelConfig(variant=Variant.V3, p_w=p_w))
            assert rows_of(v4) == rows_of(v3)


class TestChshClosedForms:
    def test_white_string_maximal(self):
        q = chsh(analytic_table(StringModelConfig(variant=Variant.V1)))
        assert q.as_tuple() == (4, 0, 0, 0)

    def test_pre_broken(self):
        q = chsh(analytic_table(StringModelConfig(variant=Variant.V1_PRE_BROKEN)))
        assert q.as_tuple() == (2, 0, 0, -2)

    @pytest.mark.parametrize("p_w", P_W_GRID)
    def test_unstable_color(self, p_w):
        q = chsh(analytic_table(StringModelConfig(variant=Variant.V2, p_w=p_w)))
        assert q.a_chsh == 4 * p_w
        assert q.d_chsh == -4 * (1 - p_w)
        assert q.b_chsh == 0 and q.c_chsh == 0

    @pytest.mark.parametrize("p_w", P_W_GRID)
    def test_parity_is_maximal_for_every_color_weight(self, p_w):
        q = chsh(analytic_table(StringModelConfig(variant=Variant.V3, p_w=p_w)))
        assert q.as_tuple() == (4, 0, 0, 0)

    @pytest.mark.parametrize("p_w", P_W_GRID)
    @pytest.mark.parametrize("p_1", P_1_GRID)
    def test_two_string_closed_form(self, p_w, p_1):
        q = chsh(analytic_table(StringModelConfig(variant=Variant.V4, p_w=p_w, p_1=p_1)))
        p_b, p_2 = 1 - p_w, 1 - p_1
        assert q.a_chsh == 4 * (1 - p_1 * p_2 * (1 + 4 * p_w * p_b))
        off = 4 * p_1 * p_2 * (1 - 4 * p_w * p_b)
        assert (q.b_chsh, q.c_chsh, q.d_chsh) == (off, off, off)

    @pytest.mark.parametrize("p_1", P_1_GRID)
    def test_two_string_fair_color(self, p_1):
        q = chsh(analytic_table(StringModelConfig(variant=Variant.V4, p_w=HALF, p_1=p_1)))
        p_2 = 1 - p_1
        assert q.a_chsh == 4 * (p_1**2 + p_2**2)
        assert (q.b_chsh, q.c_chsh, q.d_chsh) == (0, 0, 0)


class TestMarginalLaws:
    def test_unstable_color_violates_for_every_weight(self):
        for p_w in P_W_GRID:
            report = marginals(analytic_table(StringModelConfig(variant=Variant.V2, p_w=p_w)), 0)
            alice_plus = next(
                c for c in report.comparisons if c.side == "alice" and c.setting == "A" and c.outcome == "+"
            )
            assert alice_plus.residual == -HALF

    def test_parity_obeys_at_half(self):
        report = marginals(analytic_table(StringModelConfig(variant=Variant.V3, p_w=HALF)), 0)
        assert report.max_abs_residual == 0

    @pytest.mark.parametrize("p_1", P_1_GRID + (Fraction(1782, 10000), Fraction(8218, 10000)))
    def test_two_string_obeys_at_half_for_every_selection_weight(self, p_1):
        report = marginals(analytic_table(StringModelConfig(variant=Variant.V4, p_w=HALF, p_1=p_1)), 0)
        assert report.max_abs_residual == 0
        assert not report.violated


class TestConfig:
    def test_white_variants_pin_color_weight(self):
        assert StringModelConfig(variant=Variant.V1).p_w == 1.0
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V1, p_w=0.5)
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V1_PRE_BROKEN, p_w=0.3)

    def test_defaults(self):
        config = StringModelConfig(variant=Variant.V4)
        assert config.p_w == 0.5 and config.p_1 == 0.5

    @pytest.mark.parametrize("bad", (-0.1, 1.5))
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V2, p_w=bad)
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V4, p_1=bad)

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V1, length_l=0.0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V2, p_w=bad)
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V4, p_1=bad)
        with pytest.raises(ValueError):
            StringModelConfig(variant=Variant.V1, length_l=bad)

    @pytest.mark.parametrize("name", ["p_w", "p_1", "length_l"])
    def test_rejects_a_bool_parameter(self, name):
        with pytest.raises(TypeError, match=name):
            StringModelConfig(variant=Variant.V4, **{name: True})

    @pytest.mark.parametrize("bad", [10**400, Fraction(1, 10**400)], ids=["huge", "tiny"])
    def test_rejects_a_length_whose_float_is_not_positive_and_finite(self, bad):
        # 10**400 lies in (0, inf) but overflows float(); 1/10**400 rounds to 0.0.
        with pytest.raises(ValueError, match="length_l must be positive and finite"):
            StringModelConfig(variant=Variant.V1, length_l=bad)

    def test_accepts_an_exact_length(self):
        config = StringModelConfig(variant=Variant.V1, length_l=Fraction(5, 2))
        _pair, trace = next(iter_trials(config, AB, 0, 1))
        assert trace.length_alice + trace.length_bob == 2.5

    def test_accepts_variant_by_value(self):
        assert StringModelConfig(variant="v3").variant is Variant.V3

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            Setting("A", "A")

    def test_outcome_pair_validation(self):
        with pytest.raises(ValueError):
            OutcomePair(alice=0, bob=1)
        assert OutcomePair(alice=1, bob=-1).label == "+-"
        assert OutcomePair(alice=1, bob=-1).index == 1


def replay_one(config, setting, draws):
    """Trial 0 of ``setting`` as ``iter_trials`` replays it from crafted draws, fed as bit planes."""
    streams, breaks = feeding_rows(config, [draws])
    with streams, breaks:
        return next(iter_trials(config, setting, 0, 1))


class TestSampleTrial:
    """Hand-picked trials: each draw row is fed to ``iter_trials`` as the planes of its block columns."""

    def test_joint_pull_splits_at_the_break(self):
        config = StringModelConfig(variant=Variant.V1)
        pair, trace = replay_one(config, AB, [0.0, 0.75])
        assert (pair.alice, pair.bob) == (1, -1)
        assert trace.break_fraction == 0.75
        assert trace.colors == ("white",)

    def test_parity_solo_pull_with_white_string(self):
        config = StringModelConfig(variant=Variant.V3, p_w=0.4)
        pair, trace = replay_one(config, AB_PRIME, [0.0, 0.9])
        assert (pair.alice, pair.bob) == (1, 1)  # long-white and white
        assert trace.break_fraction == 1.0  # Alice collected the whole string

    def test_two_string_different_selection_never_breaks(self):
        config = StringModelConfig(variant=Variant.V4, p_w=0.6, p_1=0.5)
        draws = [0.0, 0.0, 0.0, 0.9, 0.123]  # both white; Alice string1, Bob string2
        pair, trace = replay_one(config, AB, draws)
        assert (pair.alice, pair.bob) == (1, 1)
        assert trace.break_fraction is None
        assert trace.selections == ("string1", "string2")
        assert trace.colors == ("white", "white")

    def test_tie_break_goes_to_alice(self):
        config = StringModelConfig(variant=Variant.V1)
        pair, trace = replay_one(config, AB, [0.0, 0.5])
        assert (pair.alice, pair.bob) == (1, -1)
        assert trace.break_fraction == 0.5

    def test_color_only_setting_draws_no_break(self):
        config = StringModelConfig(variant=Variant.V1_PRE_BROKEN)
        _, trace = replay_one(config, A_PRIME_B_PRIME, [0.0, 0.3])
        assert trace.break_fraction is None

    def test_pre_broken_solo_pull_discovers_fragment(self):
        config = StringModelConfig(variant=Variant.V1_PRE_BROKEN)
        pair, trace = replay_one(config, AB_PRIME, [0.0, 0.2])
        assert pair.alice == -1  # fragment of 0.2 L is short
        assert trace.break_fraction == 0.2

    def test_matter_conservation_on_every_break(self):
        rng = np.random.default_rng(123)
        for variant in Variant:
            config = StringModelConfig(
                variant=variant, p_w=1 if variant in (Variant.V1, Variant.V1_PRE_BROKEN) else 0.5
            )
            rows = [[quantized(u) for u in row] for row in rng.random((50, draws_per_trial(variant)))]
            for setting in SETTINGS:
                streams, breaks = feeding_rows(config, rows)
                with streams, breaks:
                    traces = [trace for _, trace in iter_trials(config, setting, 0, len(rows))]
                assert len(traces) == len(rows)
                for trace in traces:
                    if trace.break_fraction is not None:
                        assert trace.length_alice + trace.length_bob == config.length_l
                    else:
                        assert trace.length_alice is None and trace.length_bob is None


class TestEstimateTable:
    def test_single_trial_gives_a_unit_entry_per_row(self):
        table, counts = estimate_table(StringModelConfig(variant=Variant.V2, p_w=0.5), 1, 5)
        for _, dist in table.rows():
            assert sorted(dist.probabilities()) == [0.0, 0.0, 0.0, 1.0]
        assert all(sum(cells) == 1 for cells in counts.values())

    def test_counts_match_frequencies(self):
        n = 3000
        table, counts = estimate_table(StringModelConfig(variant=Variant.V4, p_w=0.3, p_1=0.6), n, 17)
        for (label, dist) in table.rows():
            assert dist.probabilities() == tuple(c / n for c in counts[label])

    def test_deterministic_in_seed(self):
        config = StringModelConfig(variant=Variant.V3, p_w=0.25)
        _, c1 = estimate_table(config, 10_000, 42)
        _, c2 = estimate_table(config, 10_000, 42)
        _, c3 = estimate_table(config, 10_000, 43)
        assert c1 == c2
        assert c1 != c3

    def test_worker_count_does_not_change_results(self):
        config = StringModelConfig(variant=Variant.V4, p_w=0.5, p_1=0.3)
        n = 150_000  # spans multiple blocks
        _, c1 = estimate_table(config, n, 7, workers=1)
        _, c4 = estimate_table(config, n, 7, workers=4)
        assert c1 == c4

    def test_replay_iterator_reproduces_the_vectorized_counts(self):
        config = StringModelConfig(variant=Variant.V1_PRE_BROKEN)
        n = 2_500
        _, counts = estimate_table(config, n, 99)
        for setting in SETTINGS:
            tally = [0, 0, 0, 0]
            for pair, _ in iter_trials(config, setting, 99, n):
                tally[pair.index] += 1
            assert tuple(tally) == counts[setting.label]

    def test_replay_supports_offsets(self):
        config = StringModelConfig(variant=Variant.V2, p_w=0.7)
        full = list(iter_trials(config, AB, 3, 50))
        tail = list(iter_trials(config, AB, 3, 20, start=30))
        assert full[30:] == tail

    @pytest.mark.parametrize("start, n_trials", [(-2, 3), (-1, 0), (0, -1), (5, -3)])
    def test_replay_rejects_negative_start_or_count_at_the_call(self, start, n_trials):
        config = StringModelConfig(variant=Variant.V2, p_w=0.5)
        name = "start" if start < 0 else "n_trials"
        with pytest.raises(ValueError, match=name):
            iter_trials(config, AB, 1, n_trials, start=start)

    @pytest.mark.parametrize("start", [0, 7, 4096, TRIAL_BLOCK, 2 * TRIAL_BLOCK + 5])
    def test_replay_of_zero_trials_is_empty(self, start):
        config = StringModelConfig(variant=Variant.V4, p_w=0.5, p_1=0.3)
        assert list(iter_trials(config, AB, 1, 0, start=start)) == []

    def test_converges_to_analytic(self):
        n = 100_000
        config = StringModelConfig(variant=Variant.V2, p_w=0.3)
        sampled, _ = estimate_table(config, n, 2024)
        exact = analytic_table(config)
        bound = 4 / math.sqrt(n)
        for (_, sd), (_, ed) in zip(sampled.rows(), exact.rows()):
            for s, e in zip(sd.probabilities(), ed.probabilities()):
                assert abs(s - float(e)) < bound

    def test_rejects_bad_arguments(self):
        config = StringModelConfig(variant=Variant.V1)
        with pytest.raises(ValueError):
            estimate_table(config, 0, 1)
        with pytest.raises(ValueError):
            estimate_table(config, 10, 1, workers=0)


class TestLhvBaseline:
    def test_pre_broken_strategy_reproduces_the_pre_broken_table(self):
        alice, bob, lams, weights = pre_broken_lhv_strategy()
        table = lhv_table(alice, bob, lams, weights)
        expected = analytic_table(StringModelConfig(variant=Variant.V1_PRE_BROKEN))
        assert rows_of(table) == rows_of(expected)

    def test_constant_strategy(self):
        table = lhv_table(lambda lam, s: 1, lambda lam, s: 1, (0,))
        assert all(dist.probabilities() == (Fraction(1), 0, 0, 0) for _, dist in table.rows())
        assert chsh(table).a_chsh == 2

    def test_random_strategies_respect_bell_bounds_exactly(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            alice, bob, lams, weights = random_lhv_strategy(16, rng)
            q = chsh(lhv_table(alice, bob, lams, weights))
            assert all(abs(value) <= 2 for value in q.as_tuple())

    @pytest.mark.parametrize("n_lambda", [0, -1])
    def test_a_random_strategy_needs_a_lambda(self, n_lambda):
        with pytest.raises(ValueError, match=f"n_lambda must be >= 1, got {n_lambda}"):
            random_lhv_strategy(n_lambda, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            lhv_table(lambda lam, s: 1, lambda lam, s: 1, ())
        with pytest.raises(ValueError, match="weights and lam_values must have equal length"):
            lhv_table(lambda lam, s: 1, lambda lam, s: 1, (0, 1), weights=(1,))
        with pytest.raises(ValueError):
            lhv_table(lambda lam, s: 1, lambda lam, s: 1, (0,), weights=(0.5,))
        with pytest.raises(ValueError):
            lhv_table(lambda lam, s: 0, lambda lam, s: 1, (0,))


def test_estimated_correlations_track_analytic_for_the_two_string_model():
    config = StringModelConfig(variant=Variant.V4, p_w=0.5, p_1=0.8218)
    sampled, _ = estimate_table(config, 200_000, 31)
    exact = analytic_table(config)
    assert abs(float(chsh(sampled).a_chsh) - float(chsh(exact).a_chsh)) < 0.02
    assert abs(float(correlation(sampled.ab)) - float(correlation(exact.ab))) < 0.01


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_lhv_table_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="weights") as info:
        lhv_table(lambda lam, s: 1, lambda lam, s: 1, (0, 1), weights=(bad, 1.0))
    assert not isinstance(info.value, InvariantViolation)


def test_lhv_table_checks_huge_exact_weights_without_overflow():
    with pytest.raises(ValueError, match="weights"):
        lhv_table(lambda lam, s: 1, lambda lam, s: 1, (0, 1), weights=(Fraction(-(10**400)), Fraction(10**400) + 1))

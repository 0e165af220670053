"""Tests for joint distributions, correlations, CHSH combinations and marginals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_lab.probability import (
    ChshQuantities,
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    check_bell_bounds,
    chsh,
    correlation,
    exact_rational,
    marginals,
)

HALF = Fraction(1, 2)


def table_from_rows(*rows):
    return ExperimentTable(*(JointDistribution(*row) for row in rows))


# Perfect anticorrelation in AB, perfect correlation elsewhere: the maximal case.
WHITE_STRING_TABLE = table_from_rows(
    (0, HALF, HALF, 0),
    (1, 0, 0, 0),
    (1, 0, 0, 0),
    (1, 0, 0, 0),
)

# Same string already cut before the measurements.
PRE_BROKEN_TABLE = table_from_rows(
    (0, HALF, HALF, 0),
    (HALF, 0, HALF, 0),
    (HALF, HALF, 0, 0),
    (1, 0, 0, 0),
)


def unstable_color_table(p_w):
    p_b = 1 - p_w
    return table_from_rows(
        (0, HALF, HALF, 0),
        (p_w, p_b, 0, 0),
        (p_w, 0, p_b, 0),
        (p_w, 0, 0, p_b),
    )


def parity_table(p_w):
    p_b = 1 - p_w
    return table_from_rows(
        (0, HALF, HALF, 0),
        (p_w, 0, 0, p_b),
        (p_w, 0, 0, p_b),
        (p_w, 0, 0, p_b),
    )


class TestCorrelation:
    def test_perfect_anticorrelation(self):
        assert correlation(JointDistribution(0, HALF, HALF, 0)) == -1

    def test_uncorrelated_uniform(self):
        quarter = Fraction(1, 4)
        assert correlation(JointDistribution(quarter, quarter, quarter, quarter)) == 0

    def test_diagonal_row_is_perfectly_correlated_for_any_split(self):
        assert correlation(JointDistribution(0.7, 0.0, 0.0, 0.3)) == 1.0

    def test_range_and_extremes_over_random_distributions(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            p = rng.dirichlet(np.ones(4))
            e = correlation(JointDistribution(*p))
            assert -1.0 <= e <= 1.0

    def test_extreme_iff_off_diagonal_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.random()
            assert correlation(JointDistribution(x, 0.0, 0.0, 1.0 - x)) == 1.0
            assert correlation(JointDistribution(0.0, x, 1.0 - x, 0.0)) == -1.0
            # any off-diagonal mass pulls strictly inside the extremes
            p = rng.dirichlet(np.ones(4))
            if p[1] + p[2] > 1e-9:
                assert correlation(JointDistribution(*p)) < 1.0


class TestJointDistributionInvariants:
    def test_rejects_negative_probability(self):
        with pytest.raises(InvariantViolation):
            JointDistribution(-0.1, 0.5, 0.3, 0.3)

    def test_rejects_probability_above_one(self):
        with pytest.raises(InvariantViolation):
            JointDistribution(1.2, 0.0, 0.0, -0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantViolation):
            JointDistribution(0.3, 0.3, 0.3, 0.3)

    def test_rejects_nan(self):
        with pytest.raises(InvariantViolation):
            JointDistribution(float("nan"), 0.5, 0.25, 0.25)

    def test_clamps_float_roundoff(self):
        d = JointDistribution(-1e-17, 0.5, 0.5, 1e-17)
        assert d.p_pp == 0.0
        assert d.p_mm >= 0.0

    def test_exact_fractions_survive(self):
        d = JointDistribution(Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))
        assert sum(d.probabilities()) == 1
        assert isinstance(d.p_pm, Fraction)


class TestChsh:
    def test_white_string_table_maximal(self):
        q = chsh(WHITE_STRING_TABLE)
        assert q.as_tuple() == (4, 0, 0, 0)

    def test_pre_broken_table(self):
        q = chsh(PRE_BROKEN_TABLE)
        assert q.as_tuple() == (2, 0, 0, -2)

    def test_unstable_color_at_tsirelson_weight(self):
        q = chsh(unstable_color_table(math.sqrt(2) / 2))
        assert abs(q.a_chsh - 2 * math.sqrt(2)) < 1e-12

    def test_matches_sign_pattern_built_from_correlations(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = [rng.dirichlet(np.ones(4)) for _ in range(4)]
            table = table_from_rows(*rows)
            e = [correlation(d) for _, d in table.rows()]
            q = chsh(table)
            assert math.isclose(q.a_chsh, -e[0] + e[1] + e[2] + e[3], abs_tol=1e-12)
            assert math.isclose(q.b_chsh, e[0] - e[1] + e[2] + e[3], abs_tol=1e-12)
            assert math.isclose(q.c_chsh, e[0] + e[1] - e[2] + e[3], abs_tol=1e-12)
            assert math.isclose(q.d_chsh, e[0] + e[1] + e[2] - e[3], abs_tol=1e-12)

    def test_double_outcome_swap_leaves_correlations_invariant(self):
        # swapping ++ <-> -- and +- <-> -+ in every row preserves each E
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = [rng.dirichlet(np.ones(4)) for _ in range(4)]
            table = table_from_rows(*rows)
            swapped = table_from_rows(*[(r[3], r[2], r[1], r[0]) for r in rows])
            for (_, d1), (_, d2) in zip(table.rows(), swapped.rows()):
                assert math.isclose(correlation(d1), correlation(d2), abs_tol=1e-15)

    def test_relabeling_middle_rows_swaps_b_and_c(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rows = [rng.dirichlet(np.ones(4)) for _ in range(4)]
            q = chsh(table_from_rows(*rows))
            swapped = chsh(table_from_rows(rows[0], rows[2], rows[1], rows[3]))
            assert math.isclose(q.a_chsh, swapped.a_chsh, abs_tol=1e-15)
            assert math.isclose(q.d_chsh, swapped.d_chsh, abs_tol=1e-15)
            assert math.isclose(q.b_chsh, swapped.c_chsh, abs_tol=1e-15)
            assert math.isclose(q.c_chsh, swapped.b_chsh, abs_tol=1e-15)
            assert sorted(map(float, q.as_tuple())) == pytest.approx(
                sorted(map(float, swapped.as_tuple()))
            )

    def test_quantities_validate_algebraic_range(self):
        with pytest.raises(InvariantViolation):
            ChshQuantities(4.5, 0.0, 0.0, 0.0)


class TestBellBounds:
    def test_maximal_violation_has_margin_two(self):
        report = check_bell_bounds(ChshQuantities(4, 0, 0, 0), bound=2)
        by_name = {c.quantity: c for c in report.checks}
        assert by_name["a_chsh"].violated
        assert by_name["a_chsh"].margin == 2
        assert not by_name["b_chsh"].violated
        assert report.any_violated

    def test_boundary_counts_as_satisfied(self):
        report = check_bell_bounds(ChshQuantities(2, 0, 0, -2), bound=2)
        assert not report.any_violated

    def test_all_zero_margins(self):
        report = check_bell_bounds(ChshQuantities(0, 0, 0, 0), bound=2)
        assert all(not c.violated for c in report.checks)
        assert all(c.margin == -2 for c in report.checks)

    def test_tsirelson_threshold_usable(self):
        q = chsh(unstable_color_table(math.sqrt(2) / 2))
        assert check_bell_bounds(q, bound=2).any_violated
        assert not check_bell_bounds(q, bound=2 * math.sqrt(2) + 1e-9).any_violated

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects_non_positive_bound(self, bad):
        with pytest.raises(ValueError):
            check_bell_bounds(ChshQuantities(0, 0, 0, 0), bound=bad)


class TestMarginals:
    def test_unstable_color_violates_no_signaling(self):
        # Alice's + marginal is 1/2 under B but p_w + p_b = 1 under B', for every p_w
        for p_w in (0.2, 0.5, 0.9):
            report = marginals(unstable_color_table(Fraction(p_w).limit_denominator(10)), 0)
            alice_plus = next(
                c for c in report.comparisons if c.side == "alice" and c.setting == "A" and c.outcome == "+"
            )
            assert alice_plus.partner_settings == ("B", "B'")
            assert alice_plus.residual == -HALF
            assert report.violated

    def test_parity_table_obeys_no_signaling_at_half(self):
        report = marginals(parity_table(HALF), 0)
        assert report.max_abs_residual == 0
        assert not report.violated

    def test_identical_rows_force_zero_residuals(self):
        row = (0.1, 0.2, 0.3, 0.4)
        report = marginals(table_from_rows(row, row, row, row), 0)
        assert report.max_abs_residual == 0.0

    def test_enumerates_all_eight_comparisons(self):
        report = marginals(WHITE_STRING_TABLE, 1e-9)
        assert len(report.comparisons) == 8
        seen = {(c.side, c.setting, c.outcome) for c in report.comparisons}
        assert len(seen) == 8

    def test_max_abs_residual_is_the_maximum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            table = table_from_rows(*(rng.dirichlet(np.ones(4)) for _ in range(4)))
            report = marginals(table, 0.1)
            assert report.max_abs_residual == max(abs(c.residual) for c in report.comparisons)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            marginals(WHITE_STRING_TABLE, -1e-9)

    def test_plus_and_minus_residuals_are_opposite(self):
        table = unstable_color_table(0.3)
        report = marginals(table, 0)
        for side in ("alice", "bob"):
            for setting in ("A", "A'") if side == "alice" else ("B", "B'"):
                pair = [c for c in report.comparisons if c.side == side and c.setting == setting]
                assert len(pair) == 2
                assert math.isclose(pair[0].residual, -pair[1].residual, abs_tol=1e-15)


def test_exact_rational_rendering():
    assert exact_rational(0.5) == "1/2"
    assert exact_rational(Fraction(3, 8)) == "3/8"
    assert exact_rational(1.0) == "1/1"
    # the dyadic expansion of an irrational parameter has a huge denominator
    assert exact_rational(math.sqrt(2) / 2) is None


# --- exact-first tolerance checks: the verdicts at the tolerance edges ---


@pytest.mark.parametrize("kind", [Fraction, float])
def test_normalization_verdicts_at_the_tolerance(kind):
    small, large = (Fraction(1, 10**13), Fraction(1, 10**11)) if kind is Fraction else (1e-13, 1e-11)
    accepted = JointDistribution(kind(HALF) + small, kind(HALF), kind(0), kind(0))
    assert type(accepted.p_pp) is kind
    with pytest.raises(InvariantViolation, match="sum to"):
        JointDistribution(kind(HALF) + large, kind(HALF), kind(0), kind(0))


@pytest.mark.parametrize("kind", [Fraction, float])
@pytest.mark.parametrize("sign", [1, -1])
def test_chsh_range_verdicts_at_the_tolerance(kind, sign):
    small, large = (Fraction(1, 10**10), Fraction(2, 10**9)) if kind is Fraction else (1e-10, 2e-9)
    edge = sign * (kind(4) + small)
    assert ChshQuantities(edge, 0, 0, 0).a_chsh == edge
    with pytest.raises(InvariantViolation, match="outside"):
        ChshQuantities(0, sign * (kind(4) + large), 0, 0)


def test_nan_chsh_value_is_accepted_and_kept():
    q = ChshQuantities(float("nan"), 0.0, 0.0, 0.0)
    assert math.isnan(q.a_chsh)


# --- JointDistribution invariants over random rows ---

rows = st.lists(st.integers(0, 10**6), min_size=4, max_size=4).filter(any)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weights=rows)
def test_joint_distribution_invariants_for_exact_and_float_rows(weights):
    exact = JointDistribution(*(Fraction(w, sum(weights)) for w in weights))
    approx = JointDistribution(*(w / sum(weights) for w in weights))
    assert exact.marginal_alice_plus() + exact.marginal_alice_minus() == 1
    assert exact.marginal_bob_plus() + exact.marginal_bob_minus() == 1
    assert -1 <= correlation(exact) <= 1
    assert math.isclose(approx.marginal_alice_plus() + approx.marginal_alice_minus(), 1, abs_tol=1e-12)
    assert math.isclose(approx.marginal_bob_plus() + approx.marginal_bob_minus(), 1, abs_tol=1e-12)
    assert -1 <= correlation(approx) <= 1
    for p, q in zip(exact.probabilities(), approx.probabilities()):
        assert math.isclose(p, q, abs_tol=1e-15)
    assert math.isclose(correlation(exact), correlation(approx), abs_tol=1e-12)
    for side in ("alice_plus", "bob_plus"):
        pick = getattr(JointDistribution, f"marginal_{side}")
        assert math.isclose(pick(exact), pick(approx), abs_tol=1e-12)

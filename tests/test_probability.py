"""Tests for joint distributions, correlations, CHSH combinations and marginals."""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_lab import probability
from entangle_lab.probability import (
    NORMALIZATION_TOL,
    BellBoundReport,
    BoundCheck,
    ChshQuantities,
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    MarginalComparison,
    MarginalReport,
    check_bell_bounds,
    chsh,
    correlation,
    exact_diagnostics,
    exact_rational,
    frequency_table,
    marginals,
)
from entangle_lab.strings import StringModelConfig, Variant, analytic_table, cell_numerators

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

    @pytest.mark.parametrize("kind", [np.float32, np.float16, np.longdouble])
    def test_rejects_a_nan_numpy_cell(self, kind):
        # Not a float, so only a range test that must pass to accept catches the NaN.
        with pytest.raises(InvariantViolation, match="p_pp = .*nan.* outside"):
            JointDistribution(kind("nan"), 1, 0, 0)
        with pytest.raises(InvariantViolation, match="p_pm = .*nan.* outside"):
            JointDistribution(0, kind("nan"), 0.5, 0.5)

    def test_accepts_numpy_cells_as_given(self):
        d = JointDistribution(np.float32(0.5), np.float32(0.5), 0, 0)
        assert d.probabilities() == (0.5, 0.5, 0, 0)
        assert [type(p) for p in d.probabilities()] == [np.float32, np.float32, int, int]

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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exact_rational_of_a_non_finite_float_is_none(value):
    assert exact_rational(value) is None


@pytest.mark.parametrize(
    "bad_row",
    [(1.7, 0.3, 0, 0), (0, 0, 0, 0), (2, -1, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0), ("1", 0, 0, 0)],
)
@pytest.mark.parametrize("position", [0, 3])
def test_frequency_table_refuses_bad_counts(bad_row, position):
    counts = [(1, 0, 0, 0)] * 4
    counts[position] = bad_row
    label = probability.ROW_LABELS[position]
    with pytest.raises(ValueError, match=rf"^{label}: counts .* are not integers >= 0 with a positive total"):
        frequency_table(counts)


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


@pytest.mark.parametrize("position", range(4))
def test_a_nan_chsh_value_is_refused(position):
    # abs(nan) > 4 is false, so only a range test that must pass to accept catches a NaN.
    values = [0.0] * 4
    values[position] = math.nan
    with pytest.raises(InvariantViolation, match="nan outside"):
        ChshQuantities(*values)


# --- JointDistribution invariants over random rows ---

rows = st.lists(st.integers(0, 10**6), min_size=4, max_size=4).filter(any)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weights=rows)
def test_joint_distribution_invariants_for_exact_and_float_rows(weights):
    exact = JointDistribution(*(Fraction(w, sum(weights)) for w in weights))
    approx = JointDistribution(*(w / sum(weights) for w in weights))
    assert -1 <= correlation(exact) <= 1
    assert -1 <= correlation(approx) <= 1
    for p, q in zip(exact.probabilities(), approx.probabilities()):
        assert math.isclose(p, q, abs_tol=1e-15)
    assert math.isclose(correlation(exact), correlation(approx), abs_tol=1e-12)


# --- non-finite verdict thresholds ---


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_marginals_reject_non_finite_tolerance(bad):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        marginals(WHITE_STRING_TABLE, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_bell_bounds_reject_non_finite_bound(bad):
    with pytest.raises(ValueError, match="bound must be positive and finite"):
        check_bell_bounds(ChshQuantities(4, 0, 0, 0), bound=bad)


def test_huge_exact_thresholds_are_finite():
    huge = Fraction(10**400, 3)
    assert not marginals(WHITE_STRING_TABLE, huge).violated
    assert not check_bell_bounds(ChshQuantities(4, 0, 0, 0), bound=huge).any_violated


# --- equivalence with plain Fraction/float arithmetic ---
#
# The functions below restate the evaluation without a common denominator:
# every check, sum and difference on the cell values themselves, so Fractions
# and floats combine by Python's own rules, with an int cell taken as the
# Fraction it stands for (a value computed from exact cells is a Fraction).
# The package must return equal values of the same type, floats with the same
# bits; cells come back as given.

FIELDS = ("p_pp", "p_pm", "p_mp", "p_mm")


def exact(values):
    """``values`` with each int as a Fraction; any other value unchanged."""
    return tuple(Fraction(v) if isinstance(v, int) else v for v in values)


def plain_checked_row(row):
    def checked(name, value):
        if not isinstance(value, Real):
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
        if isinstance(value, float):
            if not value == value:
                raise InvariantViolation(f"{name} is NaN")
            if value < -NORMALIZATION_TOL or value > 1.0 + NORMALIZATION_TOL:
                raise InvariantViolation(f"{name} = {value!r} outside [0, 1]")
            return min(max(value, 0.0), 1.0)
        if value < 0 or value > 1:
            raise InvariantViolation(f"{name} = {value!r} outside [0, 1]")
        return value

    values = tuple(checked(name, value) for name, value in zip(FIELDS, row))
    cells = exact(values)
    total = cells[0] + cells[1] + cells[2] + cells[3]
    if total != 1 and abs(total - 1) > NORMALIZATION_TOL:
        raise InvariantViolation(f"outcome probabilities sum to {total!r}, not 1")
    return values


def plain_correlation(row):
    row = exact(row)
    return (row[0] + row[3]) - (row[1] + row[2])


def plain_chsh(rows):
    e0, e1, e2, e3 = map(plain_correlation, rows)
    return (-e0 + e1 + e2 + e3, e0 - e1 + e2 + e3, e0 + e1 - e2 + e3, e0 + e1 + e2 - e3)


def plain_marginals(rows, tolerance):
    alice_plus, alice_minus = (lambda r: r[0] + r[1]), (lambda r: r[2] + r[3])
    bob_plus, bob_minus = (lambda r: r[0] + r[2]), (lambda r: r[1] + r[3])
    ab, ab_prime, a_prime_b, a_prime_b_prime = map(exact, rows)
    comparisons = []
    for first_row, second_row, pick in (
        (ab, ab_prime, alice_plus),
        (ab, ab_prime, alice_minus),
        (a_prime_b, a_prime_b_prime, alice_plus),
        (a_prime_b, a_prime_b_prime, alice_minus),
        (ab, a_prime_b, bob_plus),
        (ab, a_prime_b, bob_minus),
        (ab_prime, a_prime_b_prime, bob_plus),
        (ab_prime, a_prime_b_prime, bob_minus),
    ):
        first, second = pick(first_row), pick(second_row)
        comparisons.append((first, second, first - second))
    max_abs = max(abs(c[2]) for c in comparisons)
    return comparisons, max_abs, max_abs > tolerance


def plain_bell_bounds(values, bound):
    *values, bound = exact((*values, bound))
    return [(abs(v) - bound, abs(v) - bound > 0) for v in values]


def assert_same(got, expected):
    """Equal and of the same type, recursively; floats compared by their bits."""
    assert type(got) is type(expected), (got, expected)
    if isinstance(expected, (tuple, list)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same(g, e)
    elif isinstance(expected, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


def outcome(build, row):
    """The checked row, or the exception type and message."""
    try:
        return build(row)
    except (InvariantViolation, TypeError) as error:
        return type(error), str(error)


# Mixed denominators: small ones, and the 2**53-sized ones Fraction(float) gives.
fraction_weights = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.floats(0, 1).map(Fraction),
)
TABLE_KINDS = ("fraction", "int", "float", "mixed int/fraction", "mixed float/fraction")


@st.composite
def table_rows(draw, kind):
    """One valid row of the given kind."""
    if kind == "mixed int/fraction":
        kind = draw(st.sampled_from(["fraction", "int", "int cells"]))
    if kind == "int":
        one = draw(st.integers(0, 3))
        return tuple(int(i == one) for i in range(4))
    if kind == "float":
        weights = draw(st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(any))
        return tuple(w / sum(weights) for w in weights)
    weights = draw(st.lists(fraction_weights, min_size=4, max_size=4).filter(any))
    row = tuple(w / sum(weights) for w in weights)
    switch = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    if kind == "int cells":  # integral cells (0 or 1) as ints beside Fractions
        return tuple(int(p) if s and p.denominator == 1 else p for p, s in zip(row, switch))
    if kind == "mixed float/fraction":
        return tuple(float(p) if s else p for p, s in zip(row, switch))
    return row


tolerances = st.one_of(
    st.sampled_from([0, 1, 1e-9, 0.5, Fraction(1, 10**9), NORMALIZATION_TOL]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.floats(0, 1),
)
bounds = st.one_of(
    st.sampled_from([2, 3, Fraction(5, 2), 2 * math.sqrt(2), 2.0]),
    st.fractions(min_value=Fraction(1, 10**6), max_value=4, max_denominator=10**6),
    st.floats(1e-6, 4),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(TABLE_KINDS), data=st.data())
def test_table_results_equal_plain_arithmetic(kind, data):
    rows = [data.draw(table_rows(kind)) for _ in range(4)]
    checked = [plain_checked_row(row) for row in rows]
    table = ExperimentTable(*(JointDistribution(*row) for row in rows))
    for (_, dist), row in zip(table.rows(), checked):
        assert_same(dist.probabilities(), row)
        assert_same(correlation(dist), plain_correlation(row))
    quantities = chsh(table)
    assert_same(quantities.as_tuple(), plain_chsh(checked))

    tolerance = data.draw(tolerances)
    report = marginals(table, tolerance)
    comparisons, max_abs, violated = plain_marginals(checked, tolerance)
    assert_same([(c.first, c.second, c.residual) for c in report.comparisons], comparisons)
    assert_same(report.max_abs_residual, max_abs)
    assert report.violated is violated
    assert report.tolerance is tolerance

    bound = data.draw(bounds)
    bell = check_bell_bounds(quantities, bound)
    assert_same([(c.margin, c.violated) for c in bell.checks], plain_bell_bounds(quantities.as_tuple(), bound))
    assert [c.value for c in bell.checks] == list(quantities.as_tuple())


def test_all_int_cells_give_fractions():
    row = JointDistribution(1, 0, 0, 0)
    table = ExperimentTable(row, row, row, row)
    quantities = chsh(table)
    report = marginals(table, 0)
    values = [
        correlation(row),
        *quantities.as_tuple(),
        *(c.margin for c in check_bell_bounds(quantities).checks),
        *(v for c in report.comparisons for v in (c.first, c.second, c.residual)),
        report.max_abs_residual,
    ]
    assert [type(v) for v in values] == [Fraction] * len(values)
    assert quantities.as_tuple() == (2, 2, 2, 2)
    assert [type(p) for p in row.probabilities()] == [int] * 4  # cells are stored as given
    with pytest.raises(InvariantViolation, match=r"sum to Fraction\(2, 1\), not 1"):
        JointDistribution(1, 1, 0, 0)


# Cells that may break a check: out of range, NaN, wrong type, or a row sum
# off 1 by just under, at or just over the tolerance.
bad_cells = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=1000),
    st.integers(-2, 2),
    st.floats(-0.5, 1.5),
    st.sampled_from([float("nan"), -1e-13, 1 + 1e-13, -1e-11, "0.5", None]),
)
sum_offsets = st.sampled_from(
    [
        Fraction(1, 10**13),
        Fraction(1, 10**11),
        Fraction(NORMALIZATION_TOL),
        Fraction(NORMALIZATION_TOL) + Fraction(1, 10**40),
        Fraction(NORMALIZATION_TOL) - Fraction(1, 10**40),
    ]
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_row_checks_equal_plain_arithmetic(data):
    if data.draw(st.booleans()):
        row = tuple(data.draw(st.lists(bad_cells, min_size=4, max_size=4)))
    else:  # a valid exact row with one cell moved by a tolerance-sized offset
        row = list(data.draw(table_rows(data.draw(st.sampled_from(["fraction", "mixed int/fraction"])))))
        cell = data.draw(st.integers(0, 3))
        row[cell] += data.draw(st.sampled_from([1, -1])) * data.draw(sum_offsets)
        row = tuple(row)
    expected = outcome(plain_checked_row, row)
    got = outcome(lambda r: JointDistribution(*r).probabilities(), row)
    assert_same(got, expected)


def test_exact_diagnostics_refuse_what_joint_distribution_and_chsh_quantities_refuse(monkeypatch):
    d = 7
    assert exact_diagnostics([0, d, 0, 0] + [d, 0, 0, 0] * 3, d) == ((4 * d, 0, 0, 0), d)  # the CHSH boundary passes
    with pytest.raises(InvariantViolation, match=r"^AB': cell numerators \(-1, 8, 0, 0\) over 7 are not a distribution$"):
        exact_diagnostics([0, d, 0, 0, -1, d + 1, 0, 0] + [d, 0, 0, 0] * 2, d)
    with pytest.raises(InvariantViolation, match=r"^A'B: cell numerators \(7, 0, 0, 1\) over 7 are not a distribution$"):
        exact_diagnostics([d, 0, 0, 0] * 2 + [d, 0, 0, 1, d, 0, 0, 0], d)
    # Valid rows keep every combination within [-4, 4], so force one past it.
    monkeypatch.setattr(probability, "_cell_chsh", lambda cells: (6 * d, 0, 0, 0))
    with pytest.raises(InvariantViolation) as expected:
        ChshQuantities(Fraction(6), 0, 0, 0)
    with pytest.raises(InvariantViolation) as got:
        exact_diagnostics([d, 0, 0, 0] * 4, d)
    assert str(got.value) == str(expected.value) == "a_chsh = Fraction(6, 1) outside [-4, 4]"


# --- exact tables built from integer numerators ---

exact_parameters = st.one_of(
    st.sampled_from([0, HALF, 1, 0.0, 0.5, 1.0, 0.3, 1 - 2**-53]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.floats(0, 1),  # 2**54-sized denominators in every cell
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(list(Variant)), p_w=exact_parameters, p_1=exact_parameters)
def test_numerator_tables_equal_the_generic_constructor(variant, p_w, p_1):
    white = variant in (Variant.V1, Variant.V1_PRE_BROKEN)
    config = StringModelConfig(variant=variant, p_w=None if white else p_w, p_1=p_1)
    ratios = (Fraction(config.p_w).as_integer_ratio(), Fraction(config.p_1).as_integer_ratio())
    rows, d = cell_numerators(variant, *ratios)
    got = analytic_table(config)
    plain = table_from_rows(*(tuple(Fraction(n, d) for n in row) for row in rows))
    assert_same([dist.probabilities() for _, dist in got.rows()], [dist.probabilities() for _, dist in plain.rows()])
    assert got == plain

    quantities = chsh(got)
    assert_same(quantities.as_tuple(), chsh(plain).as_tuple())
    for tolerance in (0, 1e-9):
        report, expected = marginals(got, tolerance), marginals(plain, tolerance)
        assert_same([(c.first, c.second, c.residual) for c in report.comparisons], [(c.first, c.second, c.residual) for c in expected.comparisons])
        assert_same(report.max_abs_residual, expected.max_abs_residual)
        assert report == expected
    bell = check_bell_bounds(quantities)
    assert_same([c.margin for c in bell.checks], [c.margin for c in check_bell_bounds(chsh(plain)).checks])
    assert bell == check_bell_bounds(chsh(plain))

    combinations, residual = exact_diagnostics([n for row in rows for n in row], d)
    expected = [Fraction(n, d) for n in (*combinations, residual)]
    assert_same([*quantities.as_tuple(), marginals(got, 0).max_abs_residual], expected)


def test_a_mixed_float_table_keeps_float_results():
    # 1.0 and Fraction(1) are equal and hash alike; each result keeps its own type.
    zero = Fraction(0)
    rows = [(1.0, 0.0, 0.0, 0.0), (Fraction(1), zero, zero, zero), (HALF, HALF, zero, zero), (0.5, 0.5, 0.0, 0.0)]
    table = table_from_rows(*rows)
    quantities = chsh(table)
    assert_same(quantities.as_tuple(), plain_chsh(rows))
    report = marginals(table, 0)
    comparisons, max_abs, violated = plain_marginals(rows, 0)
    assert_same([(c.first, c.second, c.residual) for c in report.comparisons], comparisons)
    assert_same(report.max_abs_residual, max_abs)
    assert report.violated is violated
    alice_a_plus = report.comparisons[0]
    assert_same((alice_a_plus.first, alice_a_plus.second, alice_a_plus.residual), (1.0, Fraction(1), 0.0))
    assert_same([c.margin for c in check_bell_bounds(quantities).checks], [m for m, _ in plain_bell_bounds(quantities.as_tuple(), 2)])


@pytest.mark.parametrize(
    "rows, d, label",
    [
        ([(-1, 8, 0, 0)] + [(7, 0, 0, 0)] * 3, 7, "AB"),  # a negative numerator
        ([(7, 0, 0, 0)] * 3 + [(7, 0, 0, 1)], 7, "A'B'"),  # a row over d
        ([(10**15 - 1, 0, 0, 0)] + [(10**15, 0, 0, 0)] * 3, 10**15, "AB"),  # short of d by less than the float tolerance
        ([(0, 0, 0, 0)] * 4, 0, "AB"),
        ([(-7, 0, 0, 0)] * 4, -7, "AB"),  # each cell would be Fraction(1)
    ],
    ids=["negative", "over", "short", "d=0", "d<0"],
)
def test_numerator_tables_refuse_what_is_not_a_distribution(rows, d, label):
    message = rf"^{label}: cell numerators \(.*\) over {d} are not a distribution$"
    with pytest.raises(InvariantViolation, match=message):
        ExperimentTable.from_numerators(rows, d)
    with pytest.raises(InvariantViolation, match=message):  # the one integer row check
        exact_diagnostics([n for row in rows for n in row], d)


def test_numerator_tables_take_integers_only():
    rows = np.array([[0, 7, 0, 0]] + [[7, 0, 0, 0]] * 3)
    table = ExperimentTable.from_numerators(rows, np.int64(7))
    cells, d = table._scaled_cells
    assert {type(n) for n in (*cells, d)} == {int}
    assert {type(p.numerator) for _, row in table.rows() for p in row.probabilities()} == {int}
    with pytest.raises(TypeError):
        ExperimentTable.from_numerators([(3.5, 3.5, 0, 0)] * 4, 7)


@pytest.mark.parametrize(
    "rows, d",
    [
        ([[True, False, 0, 0]] * 4, True),  # built Fraction(1, 1) cells before bools were refused
        ([[1, 0, 0, 0]] * 4, True),
        ([[1, 0, 0, 0]] * 3 + [[0, 0, 0, True]], 1),
        ([[2, 0, 0, 0]] * 3 + [[False, 0, 0, 2]], 2),
    ],
    ids=["all-bool", "bool-d", "bool-cell", "false-cell"],
)
def test_numerator_tables_and_diagnostics_refuse_bools(rows, d):
    with pytest.raises(TypeError, match="^cell numerators and d must be integers, not bools, got "):
        ExperimentTable.from_numerators(rows, d)
    with pytest.raises(TypeError, match="^cell numerators and d must be integers, not bools, got "):
        exact_diagnostics([n for row in rows for n in row], d)
    ints = [[int(n) for n in row] for row in rows]
    assert ExperimentTable.from_numerators(ints, int(d))._scaled_cells == (tuple(n for row in ints for n in row), int(d))


@pytest.mark.parametrize(
    "cells, d",
    [
        ([0.5, 0.5, 0, 0] * 4, 1),  # exact_diagnostics once returned ((0.0, 0.0, 0.0, 0.0), 0.0)
        ([1, 0, 0, 0] * 4, 1.0),
        ([Fraction(1), 0, 0, 0] * 4, 1),
        ([np.float64(1), 0, 0, 0] * 4, 1),
    ],
    ids=["float-cells", "float-d", "fraction-cell", "numpy-float-cell"],
)
def test_numerator_tables_and_diagnostics_refuse_what_is_not_an_integer(cells, d):
    with pytest.raises(TypeError, match="^cell numerators and d must be integers, not bools, got "):
        ExperimentTable.from_numerators([cells[i : i + 4] for i in range(0, 16, 4)], d)
    with pytest.raises(TypeError, match="^cell numerators and d must be integers, not bools, got "):
        exact_diagnostics(cells, d)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1, 0, 0, 0)] * 5, r"^expected 4 rows of 4 cell numerators, got rows of \[4, 4, 4, 4, 4\]$"),  # once dropped row 5
        ([(1, 0, 0)] * 4, r"^expected 4 rows of 4 cell numerators, got rows of \[3, 3, 3, 3\]$"),
        ([(1, 0, 0, 0)] * 3, r"^expected 4 rows of 4 cell numerators, got rows of \[4, 4, 4\]$"),
        ([(1, 0, 0, 0, 0), (1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)], r"^expected 4 rows of 4 cell numerators, got rows of \[5, 3, 4, 4\]$"),
    ],
    ids=["five-rows", "rows-of-three", "three-rows", "ragged-sixteen"],
)
def test_numerator_tables_refuse_any_shape_but_four_rows_of_four(rows, message):
    with pytest.raises(ValueError, match=message):
        ExperimentTable.from_numerators(rows, 1)


@pytest.mark.parametrize("count", [0, 12, 15, 17, 20])
def test_exact_diagnostics_refuse_any_count_but_sixteen_cells(count):
    # 12 cells once failed inside min() with "min() arg is an empty sequence".
    with pytest.raises(ValueError, match=f"^expected 16 cell numerators, got {count}$"):
        exact_diagnostics(([1, 0, 0, 0] * 5)[:count], 1)


# --- the batch form of JointDistribution's float rule ---

edge_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -5e-13, -NORMALIZATION_TOL, -1.5e-12, 1 + 5e-13, 1 + 1.5e-12, math.nan]),
    st.floats(0, 1),
)


@st.composite
def edge_rows(draw):
    """Four float cells near the edges of the rule: three drawn, the fourth closing the sum to 1 off by about 1e-12."""
    cells = draw(st.lists(edge_cells, min_size=3, max_size=3))
    miss = draw(st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12]))
    return draw(st.permutations([*cells, 1.0 - math.fsum(cells) + miss]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(edge_rows(), min_size=1, max_size=5))
def test_the_batch_row_rule_is_joint_distributions_rule_row_by_row(rows):
    expected = []
    for row in rows:
        try:
            expected.append([p.hex() for p in JointDistribution(*row).probabilities()])
        except InvariantViolation as refused:
            with pytest.raises(InvariantViolation) as got:
                probability._distribution_batch(np.array(rows))
            assert str(got.value) == str(refused)
            return
    batch = np.array(rows)
    got = probability._distribution_batch(batch)
    assert [[p.hex() for p in row] for row in got.tolist()] == expected
    assert np.array_equal(batch, np.array(rows), equal_nan=True)  # the caller's array is left as it was


# --- the numerator path against the generic path, on random tables ---


@st.composite
def numerator_rows(draw):
    """Four rows of integer numerators >= 0, each summing to one common ``d``, up to 2**60 in size."""
    d = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**60), st.sampled_from([2**54, 2**54 + 1, 3 * 2**53])))
    rows = []
    for _ in range(4):
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=3, max_size=3)))
        rows.append(tuple(high - low for low, high in zip([0, *cuts], [*cuts, d])))
    return rows, d


def marginal_values(report):
    return [report.tolerance, report.max_abs_residual, report.violated, *((c.first, c.second, c.residual) for c in report.comparisons)]


def bell_values(report):
    return [report.bound, *((c.quantity, c.value, c.margin, c.violated) for c in report.checks)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=numerator_rows())
def test_the_numerator_path_equals_the_generic_path_on_random_tables(drawn):
    rows, d = drawn
    table = ExperimentTable.from_numerators(rows, d)
    generic = table_from_rows(*(tuple(Fraction(n, d) for n in row) for row in rows))
    assert_same([dist.probabilities() for _, dist in table.rows()], [dist.probabilities() for _, dist in generic.rows()])
    assert table == generic

    quantities, expected = chsh(table), chsh(generic)
    by_hand = ChshQuantities(*(Fraction(n, d) for n in probability._cell_chsh([n for row in rows for n in row])))
    for other in (expected, by_hand):
        assert_same(quantities.as_tuple(), other.as_tuple())
        assert quantities == other
    for tolerance in (0, 1e-9, Fraction(1, 7)):
        report = marginals(table, tolerance)
        assert_same(marginal_values(report), marginal_values(marginals(generic, tolerance)))
        assert report == marginals(generic, tolerance)
    for bound in (2, Fraction(5, 2), 2 * math.sqrt(2)):
        report = check_bell_bounds(quantities, bound)
        for other in (expected, by_hand):
            assert_same(bell_values(report), bell_values(check_bell_bounds(other, bound)))
            assert report == check_bell_bounds(other, bound)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=numerator_rows(), cell=st.integers(0, 15), offset=st.one_of(st.integers(-3, 3), st.integers(-(2**61), 2**61)).filter(bool))
def test_rows_that_are_not_distributions_are_refused_on_every_path(drawn, cell, offset):
    rows, d = drawn
    cells = [n for row in rows for n in row]
    cells[cell] += offset
    bad_rows = [tuple(cells[i : i + 4]) for i in range(0, 16, 4)]
    with pytest.raises(InvariantViolation) as from_numerators:
        ExperimentTable.from_numerators(bad_rows, d)
    with pytest.raises(InvariantViolation) as diagnostics:
        exact_diagnostics(cells, d)
    assert str(from_numerators.value) == str(diagnostics.value)
    assert str(from_numerators.value).startswith(f"{probability.ROW_LABELS[cell // 4]}: cell numerators ")
    # The generic constructor allows a row sum off 1 by NORMALIZATION_TOL, so it refuses only the rest.
    row = bad_rows[cell // 4]
    if min(row) < 0 or max(row) > d or Fraction(abs(sum(row) - d), d) > NORMALIZATION_TOL:
        with pytest.raises(InvariantViolation):
            table_from_rows(*(tuple(Fraction(n, d) for n in row) for row in bad_rows))


@pytest.mark.parametrize("build", [lambda: WHITE_STRING_TABLE, lambda: analytic_table(StringModelConfig(variant="v3", p_w=0.3))], ids=["generic", "numerators"])
def test_check_bell_bounds_refuses_a_bool_bound(build):
    quantities = chsh(build())
    for bound in (True, False):
        with pytest.raises(TypeError, match=rf"^bound must be a real number, not a bool, got {bound}$"):
            check_bell_bounds(quantities, bound)


@pytest.mark.parametrize("build", [lambda: WHITE_STRING_TABLE, lambda: analytic_table(StringModelConfig(variant="v3", p_w=0.3))], ids=["generic", "numerators"])
def test_marginals_refuse_a_bool_tolerance(build):
    for tolerance in (True, False):
        with pytest.raises(TypeError, match=rf"^tolerance must be a real number, not a bool, got {tolerance}$"):
            marginals(build(), tolerance)


@pytest.mark.parametrize("cls", [JointDistribution, ChshQuantities])
def test_the_generic_constructors_refuse_a_bool_field(cls):
    # True would be read as the int 1, and a table of bools would render "1/1".
    fields = list(cls.__dataclass_fields__)
    good = (Fraction(1, 2), Fraction(1, 2), 0, 0)
    cls(*good)
    for position, name in enumerate(fields):
        for flag in (True, False):
            values = list(good)
            values[position] = flag
            with pytest.raises(TypeError, match=rf"^{name} must be a real number, not a bool, got {flag}$"):
                cls(*values)


def test_frequency_table_refuses_bool_counts():
    with pytest.raises(ValueError, match=r"^AB: counts \(True, False, 0, 0\) are not integers >= 0 with a positive total$"):
        frequency_table([[True, False, 0, 0]] * 4)


# --- one exact path: every table and every ChshQuantities carries its numerators from construction ---

EIGHTHS = [(0, 8, 0, 0), (1, 2, 3, 2), (8, 0, 0, 0), (2, 2, 2, 2)]  # dyadic, so the float rows sum to 1.0 exactly
TABLE_KINDS = {
    "float": lambda: table_from_rows(*(tuple(n / 8 for n in row) for row in EIGHTHS)),
    "generic": lambda: table_from_rows(*(tuple(Fraction(n, 8) for n in row) for row in EIGHTHS)),
    "numerators": lambda: ExperimentTable.from_numerators(EIGHTHS, 8),
}


def table_results(table):
    """chsh, marginals at tolerance 0 and check_bell_bounds at bounds 2 and 2*sqrt(2), as plain values."""
    quantities = chsh(table)
    bells = [bell_values(check_bell_bounds(quantities, bound)) for bound in (2, 2 * math.sqrt(2))]
    return [quantities.as_tuple(), marginal_values(marginals(table, 0)), *bells]


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_a_table_survives_pickle_and_deepcopy(kind):
    # A float table's unscaler is a module-level function; a lambda would not pickle.
    table = TABLE_KINDS[kind]()
    quantities = chsh(table)
    for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert copied == table
        assert_same(table_results(copied), table_results(table))
    for copied in (pickle.loads(pickle.dumps(quantities)), copy.deepcopy(quantities)):
        assert_same(bell_values(check_bell_bounds(copied)), bell_values(check_bell_bounds(quantities)))


def test_replace_recomputes_the_numerators_of_a_table():
    table = analytic_table(StringModelConfig(variant="v4", p_w=HALF, p_1=Fraction(7, 10)))
    replaced = dataclasses.replace(table, ab_prime=JointDistribution(Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)))
    generic = table_from_rows(*(dist.probabilities() for _, dist in replaced.rows()))
    assert chsh(replaced) != chsh(table)
    assert_same(table_results(replaced), table_results(generic))


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_replace_recomputes_the_numerators_of_chsh_quantities(kind):
    quantities = chsh(TABLE_KINDS[kind]())
    replaced = dataclasses.replace(quantities, a_chsh=quantities.a_chsh + HALF)  # 7/4 + 1/2, past the bound 2
    by_hand = ChshQuantities(*replaced.as_tuple())
    for bound in (2, Fraction(5, 2), 2 * math.sqrt(2)):
        assert_same(bell_values(check_bell_bounds(replaced, bound)), bell_values(check_bell_bounds(by_hand, bound)))
    assert check_bell_bounds(replaced).checks[0].violated and not check_bell_bounds(quantities).checks[0].violated


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_chsh_range_checks_every_table(monkeypatch, kind):
    table = TABLE_KINDS[kind]()
    value = 6.0 if kind == "float" else Fraction(6)
    with pytest.raises(InvariantViolation) as expected:
        ChshQuantities(value, 0, 0, 0)
    # Valid rows keep every combination within [-4, 4], so force one to 6 in the cells' own scale (AB sums to d).
    monkeypatch.setattr(probability, "_cell_chsh", lambda cells: (6 * sum(cells[:4]), 0, 0, 0))
    with pytest.raises(InvariantViolation) as got:
        chsh(table)
    assert str(got.value) == str(expected.value) == f"a_chsh = {value!r} outside [-4, 4]"


def test_chsh_refuses_a_nan_combination_of_a_float_table(monkeypatch):
    monkeypatch.setattr(probability, "_cell_chsh", lambda cells: (0.0, math.nan, 0.0, 0.0))
    with pytest.raises(InvariantViolation, match=r"^b_chsh = nan outside \[-4, 4\]$"):
        chsh(TABLE_KINDS["float"]())


# --- numpy bools: refused wherever a bool is ---

NUMPY_BOOLS = pytest.mark.parametrize("flag", [np.True_, np.False_], ids=["np.True_", "np.False_"])


@NUMPY_BOOLS
def test_chsh_quantities_refuse_a_numpy_bool_field(flag):
    # A numpy bool is no numbers.Real; before, it passed ChshQuantities and came back as a margin of np.int64(-1).
    for position, name in enumerate(probability._CHSH_NAMES):
        values = [0.0] * 4
        values[position] = flag
        with pytest.raises(TypeError, match=rf"^{name} must be a real number, got bool_?$"):
            ChshQuantities(*values)


@NUMPY_BOOLS
@pytest.mark.parametrize("build", [lambda: WHITE_STRING_TABLE, lambda: analytic_table(StringModelConfig(variant="v3", p_w=0.3))], ids=["generic", "numerators"])
def test_marginals_refuse_a_numpy_bool_tolerance(build, flag):
    with pytest.raises(TypeError, match=r"^tolerance must be a real number, got bool_?$"):
        marginals(build(), flag)


@NUMPY_BOOLS
@pytest.mark.parametrize("build", [lambda: WHITE_STRING_TABLE, lambda: analytic_table(StringModelConfig(variant="v3", p_w=0.3))], ids=["generic", "numerators"])
def test_check_bell_bounds_refuses_a_numpy_bool_bound(build, flag):
    with pytest.raises(TypeError, match=r"^bound must be a real number, got bool_?$"):
        check_bell_bounds(chsh(build()), flag)


@NUMPY_BOOLS
def test_joint_distribution_refuses_a_numpy_bool_field_by_the_same_rule(flag):
    with pytest.raises(TypeError, match=r"^p_mp must be a real number, got bool_?$"):
        JointDistribution(0.5, 0.5, flag, 0.0)


# --- the verdict records: NamedTuples with the surface of the frozen dataclasses they were ---

RECORD_FIELDS = {
    BoundCheck: ("quantity", "value", "margin", "violated"),
    BellBoundReport: ("bound", "checks"),
    MarginalComparison: ("side", "setting", "outcome", "partner_settings", "first", "second", "residual"),
    MarginalReport: ("tolerance", "comparisons", "max_abs_residual", "violated"),
}

#: The repr of the Bell checks and the marginal comparisons of the table v4_records reads,
#: as the frozen dataclasses printed them.
FIRST_CHECK_REPR = "BoundCheck(quantity='a_chsh', value=Fraction(1534, 625), margin=Fraction(284, 625), violated=True)"
OTHER_CHECK_REPR = "BoundCheck(quantity='{}', value=Fraction(84, 625), margin=Fraction(-1166, 625), violated=False)"
COMPARISON_REPRS = [
    f"MarginalComparison(side='{side}', setting={setting!r}, outcome='{outcome}', partner_settings={partners!r}, "
    f"first={first}, second={second}, residual={residual})"
    for side, partners, own in (("alice", ("B", "B'"), ("A", "A'")), ("bob", ("A", "A'"), ("B", "B'")))
    for setting, rows in zip(own, (
        (("Fraction(52, 125)", "Fraction(3, 10)", "Fraction(29, 250)"), ("Fraction(73, 125)", "Fraction(7, 10)", "Fraction(-29, 250)")),
        (("Fraction(3, 10)", "Fraction(3, 10)", "Fraction(0, 1)"), ("Fraction(7, 10)", "Fraction(7, 10)", "Fraction(0, 1)")),
    ))
    for outcome, (first, second, residual) in zip("+-", rows)
]


def v4_records():
    """One record of each kind, from the exact v4 table at p_w = 3/10, p_1 = 7/10 (both laws broken)."""
    table = analytic_table(StringModelConfig(variant="v4", p_w=Fraction(3, 10), p_1=Fraction(7, 10)))
    bell, report = check_bell_bounds(chsh(table)), marginals(table, 0)
    return {BoundCheck: bell.checks[0], BellBoundReport: bell, MarginalComparison: report.comparisons[0], MarginalReport: report}


def test_the_verdict_records_print_as_the_dataclasses_did():
    records = v4_records()
    checks = [FIRST_CHECK_REPR] + [OTHER_CHECK_REPR.format(name) for name in ("b_chsh", "c_chsh", "d_chsh")]
    assert repr(records[BoundCheck]) == FIRST_CHECK_REPR
    assert repr(records[BellBoundReport]) == f"BellBoundReport(bound=2, checks=({', '.join(checks)}))"
    assert repr(records[MarginalComparison]) == COMPARISON_REPRS[0]
    assert [repr(c) for c in records[MarginalReport].comparisons] == COMPARISON_REPRS
    assert repr(records[MarginalReport]) == (
        f"MarginalReport(tolerance=0, comparisons=({', '.join(COMPARISON_REPRS)}), "
        "max_abs_residual=Fraction(29, 250), violated=True)"
    )


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_a_verdict_record_keeps_its_fields_and_is_frozen(cls):
    record = v4_records()[cls]
    fields = RECORD_FIELDS[cls]
    assert type(record) is cls and cls._fields == fields
    assert [field.name for field in dataclasses.fields(record)] == list(fields)
    # The widened surface: a record is a tuple of its field values, in field order.
    assert tuple(getattr(record, name) for name in fields) == tuple(record) == record
    assert [record[i] for i in range(len(fields))] == list(record)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in fields) == tuple(record)  # unchanged


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_a_verdict_record_hashes_and_survives_pickle_and_deepcopy(cls):
    record = v4_records()[cls]
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)
        assert hash(copied) == hash(record) and {record: cls}[copied] is cls
    assert v4_records()[cls] == record and hash(v4_records()[cls]) == hash(record)


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_dataclasses_replace_still_takes_a_verdict_record(cls):
    # perfbench/selftest.py builds its corrupted verdicts this way.
    record = v4_records()[cls]
    first, *rest = RECORD_FIELDS[cls]
    replaced = dataclasses.replace(record, **{first: "changed"})
    assert type(replaced) is cls and replaced == ("changed", *record[1:])
    assert dataclasses.asdict(replaced)[first] == "changed" and list(dataclasses.asdict(replaced)) == [first, *rest]


def test_any_violated_reads_the_checks_of_a_bell_report():
    bell = v4_records()[BellBoundReport]
    assert bell.any_violated and not bell._replace(checks=bell.checks[1:]).any_violated


# --- the memo builds each Fraction from its lowest terms, as Fraction(n, d) would ---

BIG = 2**200


def facts(value):
    return (type(value), value.numerator, value.denominator, hash(value), repr(value), str(value))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(-BIG, BIG), st.sampled_from([0])),
    st.integers(1, BIG),
    st.sampled_from(["n", "zero", "plus_d", "minus_d", "multiple"]),
    st.integers(-5, 5),
)
def test_the_memo_builds_what_fraction_builds(n, d, kind, k):
    n = {"n": n, "zero": 0, "plus_d": d, "minus_d": -d, "multiple": k * d}[kind]
    built, expected = probability._Fractions(d)[n], Fraction(n, d)
    assert facts(built) == facts(expected)
    assert built == expected and not built < expected and not expected < built
    assert facts(pickle.loads(pickle.dumps(built))) == facts(expected)
    other = Fraction(3, 7)
    for a, b in ((built + other, expected + other), (built * other, expected * other), (built + 5, expected + 5), (built * -2, expected * -2)):
        assert facts(a) == facts(b)


def test_the_layout_check_refuses_a_class_laid_out_otherwise():
    class Renamed:
        __slots__ = ("_num", "_den")

    class Subclass(Fraction):  # built through the slots, but its repr and pickle differ
        __slots__ = ()

    for cls in (Renamed, Subclass, float):
        with pytest.raises(RuntimeError, match=r"^Python \d+\.\d+\.\d+\S*: Fraction is not laid out as"):
            probability._Fractions._check_layout(cls)
    probability._Fractions._check_layout(Fraction)  # passes


def lowest_terms(value):
    return not isinstance(value, Fraction) or (value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q), st.integers(0, q), st.just(q))),
       st.sampled_from([Variant.V2, Variant.V3, Variant.V4]))
def test_every_exact_result_is_in_lowest_terms(params, variant):
    k_w, q_w, k_1, q_1 = params
    p_w, p_1 = Fraction(k_w) / q_w, Fraction(k_1) / q_1
    table = analytic_table(StringModelConfig(variant, p_w=p_w, p_1=p_1 if variant is Variant.V4 else None))
    quantities = chsh(table)
    report, bounds = marginals(table, 0), check_bell_bounds(quantities)
    values = [p for _, row in table.rows() for p in row.probabilities()] + list(quantities.as_tuple())
    values += [v for c in report.comparisons for v in (c.first, c.second, c.residual)] + [report.max_abs_residual]
    values += [v for c in bounds.checks for v in (c.value, c.margin)]
    assert all(isinstance(v, Fraction) for v in values)
    assert all(map(lowest_terms, values))


def generic_frequency_table(counts):
    rows = [tuple(int(c) for c in row) for row in counts]
    return ExperimentTable(*(JointDistribution(*(c / sum(row) for c in row)) for row in rows))


count_rows = st.lists(
    st.one_of(
        st.tuples(*[st.integers(0, 10**6)] * 4).filter(any),
        st.integers(0, 3).flatmap(lambda i: st.integers(1, 10**9).map(lambda n: tuple(n if j == i else 0 for j in range(4)))),
    ),
    min_size=4, max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(count_rows, st.booleans())
def test_frequency_table_matches_the_generic_construction(rows, as_numpy):
    counts = np.array(rows, dtype=np.int64) if as_numpy else rows
    table, by_label = frequency_table(counts)
    expected = generic_frequency_table(rows)
    assert table == expected
    assert table._scaled_cells == expected._scaled_cells
    assert chsh(table) == chsh(expected)
    assert marginals(table, 1e-9) == marginals(expected, 1e-9)
    assert by_label == dict(zip(probability.ROW_LABELS, rows))


def test_frequency_table_refuses_another_shape():
    with pytest.raises(ValueError, match=r"^expected 4 rows of 4 counts, got rows of \[4, 4, 3\]$"):
        frequency_table([(1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0)])

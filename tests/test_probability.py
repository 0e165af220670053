"""Tests for joint distributions, correlations, CHSH combinations and marginals."""

import math
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_lab import probability
from entangle_lab.probability import (
    NORMALIZATION_TOL,
    ChshQuantities,
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    check_bell_bounds,
    chsh,
    correlation,
    exact_diagnostics,
    exact_rational,
    frequency_table,
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

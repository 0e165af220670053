"""Exact arithmetic over the joint-outcome distributions of two-party +/- experiments.

Everything here is a pure function of immutable values.  A joint measurement
is summarized by its four outcome probabilities (++, +-, -+, --); four joint
measurements (AB, AB', A'B, A'B') form an experiment table, from which
correlation functions, the four CHSH combinations, Bell-bound verdicts and
no-signaling (marginal-law) residuals are derived.

Probabilities may be floats or ``fractions.Fraction``; all operations are
polymorphic over both, so tables built from closed forms stay exact while
Monte Carlo tables flow through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

NORMALIZATION_TOL = 1e-12

#: Row labels of an experiment table, in canonical order.
ROW_LABELS = ("AB", "AB'", "A'B", "A'B'")


class InvariantViolation(ValueError):
    """A numerical invariant failed (normalization, hermiticity, positivity)."""


def _checked_probability(name: str, value) -> Real:
    """Validate a single probability, absorbing float round-off at the edges."""
    if not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if isinstance(value, float):
        if not value == value:  # NaN
            raise InvariantViolation(f"{name} is NaN")
        if value < -NORMALIZATION_TOL or value > 1.0 + NORMALIZATION_TOL:
            raise InvariantViolation(f"{name} = {value!r} outside [0, 1]")
        return min(max(value, 0.0), 1.0)
    if value < 0 or value > 1:
        raise InvariantViolation(f"{name} = {value!r} outside [0, 1]")
    return value


@dataclass(frozen=True)
class JointDistribution:
    """The four outcome probabilities of one joint measurement.

    Fields are ordered ++, +-, -+, -- and must sum to one within
    ``NORMALIZATION_TOL``.  Floats are clamped into [0, 1] when they carry
    round-off of at most the same tolerance; exact rationals are kept as-is.
    """

    p_pp: Real
    p_pm: Real
    p_mp: Real
    p_mm: Real

    def __post_init__(self):
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            object.__setattr__(self, name, _checked_probability(name, getattr(self, name)))
        total = self.p_pp + self.p_pm + self.p_mp + self.p_mm
        # Exact first: comparing a Fraction with the float tolerance is slow.
        if total != 1 and abs(total - 1) > NORMALIZATION_TOL:
            raise InvariantViolation(f"outcome probabilities sum to {total!r}, not 1")

    def probabilities(self) -> tuple[Real, Real, Real, Real]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)

    def marginal_alice_plus(self) -> Real:
        return self.p_pp + self.p_pm

    def marginal_alice_minus(self) -> Real:
        return self.p_mp + self.p_mm

    def marginal_bob_plus(self) -> Real:
        return self.p_pp + self.p_mp

    def marginal_bob_minus(self) -> Real:
        return self.p_pm + self.p_mm


@dataclass(frozen=True)
class ExperimentTable:
    """The 4x4 block of joint probabilities for the settings AB, AB', A'B, A'B'."""

    ab: JointDistribution
    ab_prime: JointDistribution
    a_prime_b: JointDistribution
    a_prime_b_prime: JointDistribution

    def rows(self) -> tuple[tuple[str, JointDistribution], ...]:
        """Rows with their canonical labels, in canonical order."""
        return (
            ("AB", self.ab),
            ("AB'", self.ab_prime),
            ("A'B", self.a_prime_b),
            ("A'B'", self.a_prime_b_prime),
        )


def frequency_table(counts) -> tuple[ExperimentTable, dict[str, tuple[int, ...]]]:
    """Relative-frequency table of sampled counts, and the counts by row label.

    ``counts`` holds one (n_pp, n_pm, n_mp, n_mm) row per setting in canonical
    row order; each row is divided by its own total.
    """
    rows = [tuple(int(c) for c in row) for row in counts]
    table = ExperimentTable(*(JointDistribution(*(c / sum(row) for c in row)) for row in rows))
    return table, dict(zip(ROW_LABELS, rows))


def correlation(dist: JointDistribution) -> Real:
    """Correlation function E: agreement minus disagreement of the two outcomes.

    E = (P++ + P--) - (P+- + P-+), always in [-1, 1].
    """
    return (dist.p_pp + dist.p_mm) - (dist.p_pm + dist.p_mp)


CHSH_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class ChshQuantities:
    """The four signed combinations of the table's correlation functions.

    Each combination flips the sign of exactly one correlation (AB, AB',
    A'B, A'B' respectively for a, b, c, d) and is bounded by 4 in magnitude.
    """

    a_chsh: Real
    b_chsh: Real
    c_chsh: Real
    d_chsh: Real

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if abs(value) > 4 and abs(value) > 4 + CHSH_RANGE_TOL:
                raise InvariantViolation(f"{name} = {value!r} outside [-4, 4]")

    def as_dict(self) -> dict[str, Real]:
        return {
            "a_chsh": self.a_chsh,
            "b_chsh": self.b_chsh,
            "c_chsh": self.c_chsh,
            "d_chsh": self.d_chsh,
        }

    def as_tuple(self) -> tuple[Real, Real, Real, Real]:
        return (self.a_chsh, self.b_chsh, self.c_chsh, self.d_chsh)

    def max_abs(self) -> Real:
        return max(abs(q) for q in self.as_tuple())


def chsh(table: ExperimentTable) -> ChshQuantities:
    """The four CHSH combinations of a table's correlation functions."""
    e_ab = correlation(table.ab)
    e_ab_prime = correlation(table.ab_prime)
    e_a_prime_b = correlation(table.a_prime_b)
    e_a_prime_b_prime = correlation(table.a_prime_b_prime)
    return ChshQuantities(
        a_chsh=-e_ab + e_ab_prime + e_a_prime_b + e_a_prime_b_prime,
        b_chsh=e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime,
        c_chsh=e_ab + e_ab_prime - e_a_prime_b + e_a_prime_b_prime,
        d_chsh=e_ab + e_ab_prime + e_a_prime_b - e_a_prime_b_prime,
    )


@dataclass(frozen=True)
class BoundCheck:
    """Verdict for one CHSH quantity against a bound.

    ``margin`` is |value| - bound: positive for a violation, non-positive
    when the inequality holds (the boundary counts as satisfied).
    """

    quantity: str
    value: Real
    margin: Real
    violated: bool


@dataclass(frozen=True)
class BellBoundReport:
    bound: Real
    checks: tuple[BoundCheck, ...]

    @property
    def any_violated(self) -> bool:
        return any(c.violated for c in self.checks)


def check_bell_bounds(quantities: ChshQuantities, bound: Real = 2) -> BellBoundReport:
    """Test each CHSH quantity against |q| <= bound (non-strict).

    ``bound`` defaults to the classical limit 2; pass 2*sqrt(2) to test
    against the Tsirelson limit instead.
    """
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound!r}")
    checks = []
    for name, value in quantities.as_dict().items():
        margin = abs(value) - bound
        checks.append(BoundCheck(quantity=name, value=value, margin=margin, violated=margin > 0))
    return BellBoundReport(bound=bound, checks=tuple(checks))


@dataclass(frozen=True)
class MarginalComparison:
    """One observer-side marginal compared across the partner's two settings.

    ``residual`` = marginal under the first partner setting minus the marginal
    under the second; nonzero residuals signal dependence of one side's
    statistics on the remote setting choice.
    """

    side: str  # "alice" | "bob"
    setting: str  # the observer's own measurement: "A", "A'", "B" or "B'"
    outcome: str  # "+" | "-"
    partner_settings: tuple[str, str]
    first: Real
    second: Real
    residual: Real


@dataclass(frozen=True)
class MarginalReport:
    tolerance: Real
    comparisons: tuple[MarginalComparison, ...]
    max_abs_residual: Real
    violated: bool


def marginals(table: ExperimentTable, tolerance: Real) -> MarginalReport:
    """All eight no-signaling comparisons of an experiment table.

    For each side, own setting and outcome, the outcome's marginal is computed
    under both partner settings and the difference recorded.  The pairs are
    mutually redundant (the + and - residuals of a side/setting are opposite),
    but all eight are kept for diagnostic readability.  The report flags a
    violation iff max |residual| > tolerance.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")

    def compare(side, setting, outcome, partners, first_row, second_row, pick):
        first = pick(first_row)
        second = pick(second_row)
        return MarginalComparison(
            side=side,
            setting=setting,
            outcome=outcome,
            partner_settings=partners,
            first=first,
            second=second,
            residual=first - second,
        )

    bb = ("B", "B'")
    aa = ("A", "A'")
    comparisons = (
        compare("alice", "A", "+", bb, table.ab, table.ab_prime, JointDistribution.marginal_alice_plus),
        compare("alice", "A", "-", bb, table.ab, table.ab_prime, JointDistribution.marginal_alice_minus),
        compare("alice", "A'", "+", bb, table.a_prime_b, table.a_prime_b_prime, JointDistribution.marginal_alice_plus),
        compare("alice", "A'", "-", bb, table.a_prime_b, table.a_prime_b_prime, JointDistribution.marginal_alice_minus),
        compare("bob", "B", "+", aa, table.ab, table.a_prime_b, JointDistribution.marginal_bob_plus),
        compare("bob", "B", "-", aa, table.ab, table.a_prime_b, JointDistribution.marginal_bob_minus),
        compare("bob", "B'", "+", aa, table.ab_prime, table.a_prime_b_prime, JointDistribution.marginal_bob_plus),
        compare("bob", "B'", "-", aa, table.ab_prime, table.a_prime_b_prime, JointDistribution.marginal_bob_minus),
    )
    max_abs = max(abs(c.residual) for c in comparisons)
    return MarginalReport(
        tolerance=tolerance,
        comparisons=comparisons,
        max_abs_residual=max_abs,
        violated=max_abs > tolerance,
    )


def exact_rational(value, max_denominator: int = 10**6) -> str | None:
    """Render a probability as an exact rational string, if it has a small one.

    Returns e.g. ``"1/2"`` when the value is exactly a rational with
    denominator <= ``max_denominator`` (Fractions directly, floats via their
    exact binary value), else None.
    """
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, float):
        frac = Fraction(value)
    else:
        return None
    if frac.denominator > max_denominator:
        return None
    return f"{frac.numerator}/{frac.denominator}"

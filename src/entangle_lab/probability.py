"""Exact arithmetic over the joint-outcome distributions of two-party +/- experiments.

Everything here is a pure function of immutable values.  A joint measurement
is summarized by its four outcome probabilities (++, +-, -+, --); four joint
measurements (AB, AB', A'B, A'B') form an experiment table, from which
correlation functions, the four CHSH combinations, Bell-bound verdicts and
no-signaling (marginal-law) residuals are derived.

Probabilities may be floats or exact (ints and ``fractions.Fraction``); every
operation runs one expression tree for both.  All-exact inputs enter it as
integer numerators over one common denominator ``d``, and every value computed
from them is returned as a ``Fraction(n, d)``; with a float among the inputs,
they enter it unchanged and the result carries Python's float bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Real

NORMALIZATION_TOL = 1e-12

#: Row labels of an experiment table, in canonical order.
ROW_LABELS = ("AB", "AB'", "A'B", "A'B'")


class InvariantViolation(ValueError):
    """A numerical invariant failed (normalization, hermiticity, positivity)."""


def _scaled(values: tuple) -> tuple[tuple, int | None]:
    """``(numerators, d)``: exact values (ints and Fractions) as integers over their
    least common denominator ``d``; with any other value among them, ``(values, None)``."""
    for value in values:
        if not isinstance(value, (Fraction, int)):
            return values, None
    denominators = [v.denominator for v in values]
    d = math.lcm(*denominators)
    return tuple([v.numerator * (d // q) for v, q in zip(values, denominators)]), d


def _unscaled(n, d: int | None):
    """The value ``n`` stands for: ``n`` unscaled, else the Fraction ``n / d``."""
    return n if d is None else Fraction(n, d)


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
        scaled, d = _scaled(self.probabilities())
        one = 1 if d is None else d
        checked = []
        for name, n in zip(("p_pp", "p_pm", "p_mp", "p_mm"), scaled):
            if isinstance(n, float):
                if not n == n:  # NaN
                    raise InvariantViolation(f"{name} is NaN")
                if n < -NORMALIZATION_TOL or n > 1.0 + NORMALIZATION_TOL:
                    raise InvariantViolation(f"{name} = {n!r} outside [0, 1]")
                n = min(max(n, 0.0), 1.0)  # absorb float round-off at the edges
                object.__setattr__(self, name, n)
            elif not isinstance(n, Real):
                raise TypeError(f"{name} must be a real number, got {type(n).__name__}")
            elif not 0 <= n <= one:  # also rejects a NaN that is not a float, e.g. np.float32
                raise InvariantViolation(f"{name} = {getattr(self, name)!r} outside [0, 1]")
            checked.append(n)
        total = checked[0] + checked[1] + checked[2] + checked[3]
        # Exact first: only a row that misses 1 builds its total (a Fraction if scaled).
        if total != one:
            total = _unscaled(total, d)
            if abs(total - 1) > NORMALIZATION_TOL:
                raise InvariantViolation(f"outcome probabilities sum to {total!r}, not 1")

    def probabilities(self) -> tuple[Real, Real, Real, Real]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


@dataclass(frozen=True)
class ExperimentTable:
    """The 4x4 block of joint probabilities for the settings AB, AB', A'B, A'B'."""

    ab: JointDistribution
    ab_prime: JointDistribution
    a_prime_b: JointDistribution
    a_prime_b_prime: JointDistribution

    def rows(self) -> tuple[tuple[str, JointDistribution], ...]:
        """Rows with their canonical labels, in canonical order."""
        return tuple(zip(ROW_LABELS, (self.ab, self.ab_prime, self.a_prime_b, self.a_prime_b_prime)))

    @cached_property
    def _scaled_cells(self) -> tuple[tuple, int | None]:
        """The 16 cells, row by row, through :func:`_scaled` (once per table)."""
        return _scaled(tuple(p for _, row in self.rows() for p in row.probabilities()))


def frequency_table(counts) -> tuple[ExperimentTable, dict[str, tuple[int, ...]]]:
    """Relative-frequency table of sampled counts, and the counts by row label.

    ``counts`` holds one (n_pp, n_pm, n_mp, n_mm) row per setting in canonical
    row order; each row is divided by its own total.  A count that is not an
    integer >= 0, or a row whose total is 0, is a ``ValueError``.
    """
    rows = [tuple(row) for row in counts]
    for label, row in zip(ROW_LABELS, rows):
        if not all(isinstance(c, Integral) and c >= 0 for c in row) or sum(row) == 0:
            raise ValueError(f"{label}: counts {row!r} are not integers >= 0 with a positive total")
    rows = [tuple(int(c) for c in row) for row in rows]
    table = ExperimentTable(*(JointDistribution(*(c / sum(row) for c in row)) for row in rows))
    return table, dict(zip(ROW_LABELS, rows))


def _correlation(p_pp, p_pm, p_mp, p_mm):
    return (p_pp + p_mm) - (p_pm + p_mp)


def correlation(dist: JointDistribution) -> Real:
    """Correlation function E: agreement minus disagreement of the two outcomes.

    E = (P++ + P--) - (P+- + P-+), always in [-1, 1].
    """
    cells, d = _scaled(dist.probabilities())
    return _unscaled(_correlation(*cells), d)


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
            if not (abs(value) <= 4 or abs(value) <= 4 + CHSH_RANGE_TOL):  # also rejects NaN
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


def _chsh_combinations(e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime):
    """The four CHSH combinations of four correlations (scalars or arrays alike)."""
    return (
        -e_ab + e_ab_prime + e_a_prime_b + e_a_prime_b_prime,
        e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime,
        e_ab + e_ab_prime - e_a_prime_b + e_a_prime_b_prime,
        e_ab + e_ab_prime + e_a_prime_b - e_a_prime_b_prime,
    )


def _cell_chsh(cells) -> tuple:
    """The four CHSH combinations of the 16 cells, row by row, in the cells' own scale."""
    return _chsh_combinations(*(_correlation(*cells[i : i + 4]) for i in range(0, 16, 4)))


def chsh(table: ExperimentTable) -> ChshQuantities:
    """The four CHSH combinations of a table's correlation functions."""
    cells, d = table._scaled_cells
    return ChshQuantities(*(_unscaled(q, d) for q in _cell_chsh(cells)))


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
    if not 0 < bound < math.inf:
        raise ValueError(f"bound must be positive and finite, got {bound!r}")
    (*values, scaled_bound), d = _scaled((*quantities.as_tuple(), bound))
    checks = []
    for (name, value), n in zip(quantities.as_dict().items(), values):
        margin = abs(n) - scaled_bound
        checks.append(BoundCheck(quantity=name, value=value, margin=_unscaled(margin, d), violated=margin > 0))
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


#: Side, own setting, outcome, partner settings, and the two cells (of the 16,
#: row by row) whose sum is the marginal under each partner setting.
_MARGINAL_COMPARISONS = (
    ("alice", "A", "+", ("B", "B'"), (0, 1), (4, 5)),
    ("alice", "A", "-", ("B", "B'"), (2, 3), (6, 7)),
    ("alice", "A'", "+", ("B", "B'"), (8, 9), (12, 13)),
    ("alice", "A'", "-", ("B", "B'"), (10, 11), (14, 15)),
    ("bob", "B", "+", ("A", "A'"), (0, 2), (8, 10)),
    ("bob", "B", "-", ("A", "A'"), (1, 3), (9, 11)),
    ("bob", "B'", "+", ("A", "A'"), (4, 6), (12, 14)),
    ("bob", "B'", "-", ("A", "A'"), (5, 7), (13, 15)),
)


def _cell_marginals(cells) -> list[tuple]:
    """``(first, second)`` of each of ``_MARGINAL_COMPARISONS``, in the cells' own scale."""
    return [(cells[i] + cells[j], cells[k] + cells[m]) for _, _, _, _, (i, j), (k, m) in _MARGINAL_COMPARISONS]


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
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    cells, d = table._scaled_cells
    comparisons, residuals = [], []
    for (side, setting, outcome, partners, _, _), (first, second) in zip(_MARGINAL_COMPARISONS, _cell_marginals(cells)):
        residual = first - second
        values = (_unscaled(v, d) for v in (first, second, residual))
        comparisons.append(MarginalComparison(side, setting, outcome, partners, *values))
        residuals.append(abs(residual))
    # The first largest |residual|, as max() over the returned residuals picks it.
    max_abs = abs(comparisons[max(range(len(residuals)), key=residuals.__getitem__)].residual)
    return MarginalReport(
        tolerance=tolerance,
        comparisons=tuple(comparisons),
        max_abs_residual=max_abs,
        violated=max_abs > tolerance,
    )


def exact_diagnostics(cells, d: int) -> tuple[tuple[int, int, int, int], int]:
    """:func:`chsh` and the largest |:func:`marginals` residual| of 16 integer cells over ``d``, row by row.

    No ``Fraction`` is built: each result is a numerator over ``d``.  As in
    :class:`JointDistribution` and :class:`ChshQuantities`, a negative cell, a
    row not summing to ``d`` or a combination outside [-4, 4] is an :class:`InvariantViolation`.
    """
    for label, i in zip(ROW_LABELS, range(0, 16, 4)):
        row = cells[i : i + 4]
        if min(row) < 0 or sum(row) != d:
            raise InvariantViolation(f"{label}: cell numerators {tuple(row)} over {d} are not a distribution")
    combinations = _cell_chsh(cells)
    for name, q in zip(ChshQuantities.__dataclass_fields__, combinations):
        if abs(q) > 4 * d:
            raise InvariantViolation(f"{name} = {Fraction(q, d)!r} outside [-4, 4]")
    return combinations, max(abs(first - second) for first, second in _cell_marginals(cells))


#: Largest denominator :func:`exact_rational` renders.
EXACT_RATIONAL_MAX_DENOMINATOR = 10**6


def exact_rational(value) -> str | None:
    """Render a probability as an exact rational string, if it has a small one.

    Returns e.g. ``"1/2"`` when the value is exactly a rational with
    denominator <= ``EXACT_RATIONAL_MAX_DENOMINATOR`` (Fractions directly,
    floats via their exact binary value), else None.
    """
    if not isinstance(value, (Fraction, int, float)):
        return None
    if isinstance(value, float) and not math.isfinite(value):  # NaN and +-inf have no rational
        return None
    frac = Fraction(value)
    if frac.denominator > EXACT_RATIONAL_MAX_DENOMINATOR:
        return None
    return f"{frac.numerator}/{frac.denominator}"

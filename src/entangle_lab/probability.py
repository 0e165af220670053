"""Exact arithmetic over the joint-outcome distributions of two-party +/- experiments.

Everything here is a pure function of immutable values.  A joint measurement
is summarized by its four outcome probabilities (++, +-, -+, --); four joint
measurements (AB, AB', A'B, A'B') form an experiment table, from which
correlation functions, the four CHSH combinations, Bell-bound verdicts and
no-signaling (marginal-law) residuals are derived.

Probabilities may be floats or exact (ints and ``fractions.Fraction``); every
operation runs one expression tree for both.  All-exact inputs enter it as
integer numerators over one common denominator ``d``, and every value computed
from them is returned as a ``Fraction(n, d)``, one per distinct ``n``; with a
float among the inputs, they enter it unchanged and the result carries Python's
float bits.

Every :class:`ExperimentTable` reaches that form once, when it is built: its
16 cells as numerators over ``d`` (``d`` None for a table with a float cell),
with one unscaler that every result derived from it shares, a memo of
``Fraction(n, d)`` by numerator for an exact table (each written from its lowest
terms into a bare ``Fraction``'s slots, whose layout is checked at import) and
the identity for a float table.  Every :class:`ChshQuantities` likewise carries its numerators
and unscaler (its table's, when :func:`chsh` builds it).  So :func:`chsh`,
:func:`marginals` and :func:`check_bell_bounds` each have one body for every
table.  :meth:`ExperimentTable.from_numerators` differs only in its check: one
test on the integer numerators (every cell >= 0 and every row summing to
``d`` > 0), which implies every test a :class:`JointDistribution` makes, so it
skips their ``Fraction`` re-tests.  ``strings.analytic_table`` hands its flat
int cells to the constructor behind it, ``_numerator_table``, which makes the
same check.

The verdict records, which check nothing, are ``NamedTuple``s, built without a ``__setattr__`` per field;
the three classes that check their values stay frozen dataclasses.  One rule, ``_check_real``, refuses a value
that is no real number (a bool, Python's or numpy's, included) wherever this module takes a real number.
"""

from __future__ import annotations

import math
import operator
import pickle
import platform
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from typing import NamedTuple

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
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return tuple([n * (d // q) for n, q in ratios]), d


class _Fractions(dict):
    """``Fraction(n, d)`` by integer numerator ``n``, each built on its first lookup from its lowest terms (``d`` > 0 at
    every caller) in the two slots of a bare ``Fraction``, which :meth:`_check_layout` vouches for at import."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, n: int, cls=Fraction) -> Fraction:
        g = math.gcd(n, self.d)
        self[n] = value = object.__new__(cls)  # Fraction(n, d) without its type dispatch
        value._numerator, value._denominator = n // g, self.d // g
        return value

    @staticmethod
    def _check_layout(cls) -> None:
        """Raise ``RuntimeError`` unless :meth:`__missing__` building a ``cls`` gives ``Fraction(n, d)`` for an ``n`` < 0 not in
        lowest terms: the same numerator, denominator, ``==``, ``hash`` and ``repr``, also after a pickle round trip."""
        expected = Fraction(-6, 4)
        try:
            built = _Fractions(4).__missing__(-6, cls)
            copied = pickle.loads(pickle.dumps(built))
            seen = {(v.numerator, v.denominator, v == expected, hash(v), repr(v)) for v in (expected, built, copied)}
        except Exception:  # e.g. no such slot
            seen = ()
        if len(seen) != 1:
            raise RuntimeError(f"Python {platform.python_version()}: Fraction is not laid out as ('_numerator', '_denominator')")


_Fractions._check_layout(Fraction)


def _identity(n):
    """A value over no denominator: itself (a module-level function, so a float table pickles)."""
    return n


def _unscaler(d: int | None):
    """The value each numerator over ``d`` stands for: itself if ``d`` is None, else a
    ``Fraction(n, d)`` built once per distinct ``n`` (never keyed by floats: ``1.0 == 1``)."""
    return _identity if d is None else _Fractions(d).__getitem__


def _check_numerators(cells, d: int) -> None:
    """Refuse 16 integer cells over ``d`` unless each row is >= 0 and sums to ``d`` > 0."""
    if min(cells) >= 0 and sum(cells[0:4]) == sum(cells[4:8]) == sum(cells[8:12]) == sum(cells[12:16]) == d > 0:
        return
    for label, i in zip(ROW_LABELS, range(0, 16, 4)):  # name the first row that fails
        row = cells[i : i + 4]
        if min(row) < 0 or not sum(row) == d > 0:
            raise InvariantViolation(f"{label}: cell numerators {tuple(row)} over {d} are not a distribution")


def _prechecked(cls, values, **carried):
    """A frozen dataclass ``cls`` with ``values`` as its fields and ``carried`` attributes, its
    ``__post_init__`` not run: for values that an integer check has already passed."""
    instance = object.__new__(cls)
    instance.__dict__.update(zip(cls.__dataclass_fields__, values), **carried)
    return instance


def _check_real(name: str, value) -> None:
    """Refuse a ``value`` that is no real number with a ``TypeError`` naming ``name``.  No bool is one: numpy's
    ``np.True_`` is no ``numbers.Real``, and Python's ``True``, which is one, would count as 1 here."""
    if type(value) in (int, float):  # the common case, decided by one type test
        return
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, not a bool, got {value!r}")
    if not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def _check_chsh_numerators(combinations, d: int | None) -> None:
    """Refuse four CHSH numerators over ``d`` unless each lies in [-4d, 4d], with the message of :class:`ChshQuantities`.

    Exact numerators are held to 4d strictly, where :class:`ChshQuantities` lets any value (a ``Fraction``
    too) pass 4 by up to ``CHSH_RANGE_TOL``; with ``d`` None, values take that float rule, which refuses NaN.
    """
    bound = 4 + CHSH_RANGE_TOL if d is None else 4 * d
    for name, q in zip(_CHSH_NAMES, combinations):
        if not abs(q) <= bound:
            raise InvariantViolation(f"{name} = {_unscaler(d)(q)!r} outside [-4, 4]")


def _check_chsh_batch(combinations) -> None:
    """Refuse a (4, n) float array of CHSH combinations, column by column, as :func:`_check_chsh_numerators`
    refuses a float table's four: one array comparison, and on failure the message of the first offending
    column's first offending combination."""
    if not (abs(combinations) <= 4 + CHSH_RANGE_TOL).all():
        for column in combinations.T.tolist():
            _check_chsh_numerators(column, None)


@dataclass(frozen=True)
class JointDistribution:
    """The four outcome probabilities of one joint measurement.

    Fields are ordered ++, +-, -+, -- and must sum to one within
    ``NORMALIZATION_TOL``.  Floats are clamped into [0, 1] when they carry
    round-off of at most the same tolerance; exact rationals are kept as-is.
    A bool field is a ``TypeError``.
    """

    p_pp: Real
    p_pm: Real
    p_mp: Real
    p_mm: Real

    def __post_init__(self):
        scaled, d = _scaled(self.probabilities())
        for name, value, n in zip(("p_pp", "p_pm", "p_mp", "p_mm"), self.probabilities(), scaled):
            _check_real(name, value)
            if d is not None:  # an integer numerator over d
                if not 0 <= n <= d:
                    raise InvariantViolation(f"{name} = {getattr(self, name)!r} outside [0, 1]")
            elif isinstance(n, float):
                if not n == n:  # NaN
                    raise InvariantViolation(f"{name} is NaN")
                if n < -NORMALIZATION_TOL or n > 1.0 + NORMALIZATION_TOL:
                    raise InvariantViolation(f"{name} = {n!r} outside [0, 1]")
                object.__setattr__(self, name, min(max(n, 0.0), 1.0))  # absorb float round-off at the edges
            elif not 0 <= n <= 1:  # also rejects a NaN that is not a float, e.g. np.float32
                raise InvariantViolation(f"{name} = {n!r} outside [0, 1]")
        p = scaled if d is not None else self.probabilities()  # floats as clamped
        total = p[0] + p[1] + p[2] + p[3]
        # Exact first: only a row that misses 1 builds its total (a Fraction if scaled).
        if total != (d or 1):
            total = _unscaler(d)(total)
            if abs(total - 1) > NORMALIZATION_TOL:
                raise InvariantViolation(f"outcome probabilities sum to {total!r}, not 1")

    def probabilities(self) -> tuple[Real, Real, Real, Real]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


def _distribution_batch(rows):
    """A clamped copy of an (n, 4) float array of outcome probabilities, each row checked and clamped as by
    :class:`JointDistribution`: one array test, and on failure the message of the first offending row."""
    if ((rows >= -NORMALIZATION_TOL) & (rows <= 1.0 + NORMALIZATION_TOL)).all():  # False at a NaN
        rows = rows.copy()
        rows[rows < 0.0] = 0.0
        rows[rows > 1.0] = 1.0
        if (abs(rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3] - 1.0) <= NORMALIZATION_TOL).all():
            return rows
    for row in rows.tolist():
        JointDistribution(*row)  # refuses the first row that failed a test above


@dataclass(frozen=True)
class ExperimentTable:
    """The 4x4 block of joint probabilities for the settings AB, AB', A'B, A'B'."""

    ab: JointDistribution
    ab_prime: JointDistribution
    a_prime_b: JointDistribution
    a_prime_b_prime: JointDistribution

    def __post_init__(self):
        # The cells as numerators over d, and the unscaler every result derived from the table shares.
        cells, d = _scaled(tuple(p for _, row in self.rows() for p in row.probabilities()))
        self.__dict__.update(_scaled_cells=(cells, d), _fraction=_unscaler(d))

    def rows(self) -> tuple[tuple[str, JointDistribution], ...]:
        """Rows with their canonical labels, in canonical order."""
        return tuple(zip(ROW_LABELS, (self.ab, self.ab_prime, self.a_prime_b, self.a_prime_b_prime)))

    @classmethod
    def from_numerators(cls, rows, d: int) -> ExperimentTable:
        """The exact table of four rows (AB, AB', A'B, A'B') of four integer numerators over ``d``, each a
        distribution over ``d``: cells ``Fraction(n, d)``, and ``(numerators, d)`` as ``_scaled_cells``.
        The numerators and ``d`` pass :func:`_integer_cells`; rows of another shape are a ``ValueError``."""
        rows = [tuple(row) for row in rows]
        if [len(row) for row in rows] != [4, 4, 4, 4]:
            raise ValueError(f"expected 4 rows of 4 cell numerators, got rows of {[len(row) for row in rows]}")
        return _numerator_table(*_integer_cells([n for row in rows for n in row], d))


def _integer_cells(cells, d) -> tuple[tuple[int, ...], int]:
    """16 cell numerators and their ``d`` as ints, numpy ints read as ints.  A value that is not an integer,
    a bool included (``True`` is no numerator), is a ``TypeError``; another count of cells a ``ValueError``."""
    values = (*cells, d)
    if bool in map(type, values) or not all(hasattr(n, "__index__") for n in values):
        raise TypeError(f"cell numerators and d must be integers, not bools, got {values[:-1]!r} over {d!r}")
    if len(values) != 17:
        raise ValueError(f"expected 16 cell numerators, got {len(values) - 1}")
    return tuple(map(operator.index, values[:-1])), operator.index(d)


def _numerator_table(cells: tuple[int, ...], d: int) -> ExperimentTable:
    """:meth:`ExperimentTable.from_numerators` of 16 int cells, row by row, over an int ``d``."""
    _check_numerators(cells, d)
    fraction = _unscaler(d)
    # The check above implies every test of JointDistribution.__post_init__.
    dists = (_prechecked(JointDistribution, map(fraction, cells[i : i + 4])) for i in range(0, 16, 4))
    return _prechecked(ExperimentTable, dists, _scaled_cells=(cells, d), _fraction=fraction)


def frequency_table(counts) -> tuple[ExperimentTable, dict[str, tuple[int, ...]]]:
    """Relative-frequency table of sampled counts, and the counts by row label.

    ``counts`` holds one (n_pp, n_pm, n_mp, n_mm) row per setting in canonical
    row order; each row is divided by its own total.  A count that is not an
    integer >= 0 (a bool included), a row whose total is 0, or other than 4 rows of 4, is a ``ValueError``.
    """
    rows = [tuple(row) for row in counts]
    if [len(row) for row in rows] != [4, 4, 4, 4]:
        raise ValueError(f"expected 4 rows of 4 counts, got rows of {[len(row) for row in rows]}")
    flat = [c for row in rows for c in row]  # one test of each type, then of the values; on failure, the first bad row
    if not (all(issubclass(t, Integral) and t is not bool for t in set(map(type, flat))) and min(flat) >= 0 and all(map(sum, rows))):
        for label, row in zip(ROW_LABELS, rows):
            if not all(isinstance(c, Integral) and not isinstance(c, bool) and c >= 0 for c in row) or sum(row) == 0:
                raise ValueError(f"{label}: counts {row!r} are not integers >= 0 with a positive total")
    rows = [tuple(map(int, row)) for row in rows]
    # Such cells lie in [0, 1], none -0.0, summing to 1 within a few ulps: every test of a JointDistribution passes.
    cells = tuple([c / total for row in rows for total in [sum(row)] for c in row])
    dists = (_prechecked(JointDistribution, cells[i : i + 4]) for i in range(0, 16, 4))
    return _prechecked(ExperimentTable, dists, _scaled_cells=(cells, None), _fraction=_identity), dict(zip(ROW_LABELS, rows))


def _correlation(p_pp, p_pm, p_mp, p_mm):
    return (p_pp + p_mm) - (p_pm + p_mp)


def correlation(dist: JointDistribution) -> Real:
    """Correlation function E: agreement minus disagreement of the two outcomes.

    E = (P++ + P--) - (P+- + P-+), always in [-1, 1].
    """
    cells, d = _scaled(dist.probabilities())
    return _unscaler(d)(_correlation(*cells))


CHSH_RANGE_TOL = 1e-9


@dataclass(frozen=True)
class ChshQuantities:
    """The four signed combinations of the table's correlation functions.

    Each combination flips the sign of exactly one correlation (AB, AB',
    A'B, A'B' respectively for a, b, c, d) and is bounded by 4 in magnitude.
    A bool field is a ``TypeError``.
    """

    a_chsh: Real
    b_chsh: Real
    c_chsh: Real
    d_chsh: Real

    def __post_init__(self):
        for name, value in zip(_CHSH_NAMES, self.as_tuple()):
            _check_real(name, value)
        _check_chsh_numerators(self.as_tuple(), None)
        values, d = _scaled(self.as_tuple())
        self.__dict__.update(_scaled_values=(values, d), _fraction=_unscaler(d))

    def as_dict(self) -> dict[str, Real]:
        return dict(zip(_CHSH_NAMES, self.as_tuple()))

    def as_tuple(self) -> tuple[Real, Real, Real, Real]:
        return (self.a_chsh, self.b_chsh, self.c_chsh, self.d_chsh)

    def max_abs(self) -> Real:
        return max(abs(q) for q in self.as_tuple())


_CHSH_NAMES = tuple(ChshQuantities.__dataclass_fields__)


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
    combinations = _cell_chsh(cells)
    _check_chsh_numerators(combinations, d)
    fraction = table._fraction
    return _prechecked(ChshQuantities, map(fraction, combinations), _scaled_values=(combinations, d), _fraction=fraction)


def _replaceable(cls):
    """Give the NamedTuple ``cls`` the field table of a dataclass with its fields, and no per-record cost,
    so ``dataclasses.replace``, ``fields`` and ``asdict`` take its records as when they were dataclasses."""
    shadow = dataclass(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))
    cls.__dataclass_fields__ = shadow.__dataclass_fields__
    return cls


@_replaceable
class BoundCheck(NamedTuple):
    """Verdict for one CHSH quantity against a bound.

    ``margin`` is |value| - bound: positive for a violation, non-positive
    when the inequality holds (the boundary counts as satisfied).
    """

    quantity: str
    value: Real
    margin: Real
    violated: bool


@_replaceable
class BellBoundReport(NamedTuple):
    bound: Real
    checks: tuple[BoundCheck, ...]

    @property
    def any_violated(self) -> bool:
        return any(c.violated for c in self.checks)


def check_bell_bounds(quantities: ChshQuantities, bound: Real = 2) -> BellBoundReport:
    """Test each CHSH quantity against |q| <= bound (non-strict).

    ``bound`` defaults to the classical limit 2; pass 2*sqrt(2) to test
    against the Tsirelson limit instead.  A bool bound is a ``TypeError``.
    """
    _check_real("bound", bound)
    if not 0 < bound < math.inf:
        raise ValueError(f"bound must be positive and finite, got {bound!r}")
    if type(bound) is int:
        (values, d), unscaled = quantities._scaled_values, quantities._fraction
        scaled_bound = bound if d is None else bound * d
    else:
        (*values, scaled_bound), d = _scaled((*quantities.as_tuple(), bound))
        unscaled = _unscaler(d)
    return BellBoundReport(bound, tuple([
        BoundCheck(name, value, unscaled(margin := abs(n) - scaled_bound), margin > 0)
        for name, value, n in zip(_CHSH_NAMES, quantities.as_tuple(), values)
    ]))


@_replaceable
class MarginalComparison(NamedTuple):
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


#: Per no-signaling comparison: its labels (side, own setting, outcome, partner settings), then the
#: two cells (of the 16, row by row) whose sum is the marginal under each partner setting.
_MARGINAL_COMPARISONS = (
    (("alice", "A", "+", ("B", "B'")), (0, 1), (4, 5)),
    (("alice", "A", "-", ("B", "B'")), (2, 3), (6, 7)),
    (("alice", "A'", "+", ("B", "B'")), (8, 9), (12, 13)),
    (("alice", "A'", "-", ("B", "B'")), (10, 11), (14, 15)),
    (("bob", "B", "+", ("A", "A'")), (0, 2), (8, 10)),
    (("bob", "B", "-", ("A", "A'")), (1, 3), (9, 11)),
    (("bob", "B'", "+", ("A", "A'")), (4, 6), (12, 14)),
    (("bob", "B'", "-", ("A", "A'")), (5, 7), (13, 15)),
)


def _cell_marginals(cells) -> list[tuple]:
    """``(first, second)`` of each of ``_MARGINAL_COMPARISONS``, in the cells' own scale."""
    return [(cells[i] + cells[j], cells[k] + cells[m]) for _, (i, j), (k, m) in _MARGINAL_COMPARISONS]


@_replaceable
class MarginalReport(NamedTuple):
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
    violation iff max |residual| > tolerance.  A bool tolerance is a ``TypeError``.
    """
    _check_real("tolerance", tolerance)
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    cells, unscaled = table._scaled_cells[0], table._fraction
    comparisons, residuals = [], []
    for labels, (i, j), (k, m) in _MARGINAL_COMPARISONS:
        first, second = cells[i] + cells[j], cells[k] + cells[m]
        residual = first - second
        comparisons.append(MarginalComparison(*labels, unscaled(first), unscaled(second), unscaled(residual)))
        residuals.append(abs(residual))
    max_abs = unscaled(max(residuals))
    return MarginalReport(tolerance, tuple(comparisons), max_abs, max_abs > tolerance)


def exact_diagnostics(cells, d: int) -> tuple[tuple[int, int, int, int], int]:
    """:func:`chsh` and the largest |:func:`marginals` residual| of 16 integer cells over ``d``, row by row.

    No ``Fraction`` is built: each result is a numerator over ``d``.  As in :meth:`ExperimentTable.from_numerators` and
    :class:`ChshQuantities`, a row that is not a distribution or a combination outside [-4, 4] is an :class:`InvariantViolation`;
    the cells and ``d`` pass :func:`_integer_cells`.
    """
    cells, d = _integer_cells(cells, d)
    _check_numerators(cells, d)
    combinations = _cell_chsh(cells)
    _check_chsh_numerators(combinations, d)
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

"""Breakable-string models: mechanism-level samplers and exact analytic tables.

A string of unit-normalized length connects Alice's and Bob's sides.  Pulling
it from both ends breaks it at a uniformly random point; pulling from one end
only collects the whole string.  Length measurements compare the collected
fragment against half the string; color measurements read the string's
per-trial color.  The variants differ in what the observables are and in how
many strings there are:

* ``V1`` - white string; A/B measure length, A'/B' measure color.
* ``V1_PRE_BROKEN`` - same, but the string is already cut at a uniform point
  before the measurements, so every correlation is merely discovered.
* ``V2`` - the color is a fresh Bernoulli draw each trial (white with
  probability p_w), shared by both observers.
* ``V3`` - A/B measure the length-color parity: "long-white" and
  "short-black" count as +, the other two combinations as -.
* ``V4`` - two independent strings; each observer privately selects string 1
  with probability p_1 and applies the V3 measurements to the selection.

The mechanism is written once, in two layers: ``_events`` asks a block for
the threshold tests a setting's outcome reads, and ``_outcome_signs`` turns
the events into Alice's and Bob's + masks (``_outcome_indices`` packs
boolean ones into cell indices).  A block's ``below(j, p)``
(:meth:`rng.Block.below`) gives the events "column j is below p", one bit
per trial packed 64 to a word; ``_events`` asks only for the columns it
tests: the color(s) unless a plain variant has both observers pull, V4's
selections, and the cut (the test at p = 1/2) only where a string splits.  A
threshold at 0 or 1 gives a constant event and draws nothing.  The outcome
rule is bitwise throughout, so one copy serves packed words, bool arrays
and Python int bitsets.  ``estimate_table`` samples through
``rng.count_outcomes``: the kernel runs once on each run of blocks' words
and ``rng.sign_counts`` counts the run's four cells from the two masks.
``_trace_columns``, the trace's one replay, asks the same blocks for the
same events, unpacks them to one bool per trial and returns one block's
traced trials as columns; its break position is the cut bit plus a
continuous draw made for the trace alone, so the trace agrees with the
cut.  ``write_trace`` writes ``table --trace``'s JSON lines from these
columns, and ``iter_trials`` zips them into one ``MicroTrace``, the record
of a trace line, per trial.
``cell_polynomials`` runs the kernel once per variant over the finite event
space and keeps every cell as an integer polynomial in (p_w, p_1).  These are
compiled once per polynomials object into the distinct cells' coefficients
over one flat vector of Bernstein monomials and each cell's index among them,
so one evaluation forms the monomials once and takes one dot product per
distinct cell.  ``cell_numerators`` and ``analytic_table`` share that
evaluator: the first returns the cells as rows of integer numerators over one
denominator, the second hands the flat cells to the constructor behind
``ExperimentTable.from_numerators``, which builds the exact table that
carries them.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Integral, Real
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .probability import NORMALIZATION_TOL, ExperimentTable, JointDistribution, _numerator_table, frequency_table
from .probability import _check_real, _Fractions
from .rng import (
    DOMAIN_STRING_TRACE,
    DOMAIN_STRING_TRIALS,
    Block,
    block_uniforms,
    count_outcomes,
    iter_block_slices,
    sign_counts,
)


class Variant(str, Enum):
    V1 = "v1"
    V1_PRE_BROKEN = "v1pre"
    V2 = "v2"
    V3 = "v3"
    V4 = "v4"


#: Variants whose A/B measurements record the length-color parity.
_PARITY_VARIANTS = frozenset({Variant.V3, Variant.V4})

_SINGLE_WHITE = frozenset({Variant.V1, Variant.V1_PRE_BROKEN})


def draws_per_trial(variant: Variant) -> int:
    """A variant's block columns: the color(s), V4's two selections, then the cut; setting-independent."""
    return 5 if variant is Variant.V4 else 2


@dataclass(frozen=True)
class StringModelConfig:
    """Variant selector plus parameters.

    ``p_w`` is the white-color probability (black is implied); ``p_1`` the
    string-1 selection probability, used by V4 only.  ``length_l`` is carried
    for trace readability; all probabilities depend only on the half-length
    threshold, so it cancels everywhere.
    """

    variant: Variant
    p_w: Real | None = None
    p_1: Real | None = None
    length_l: Real = 1.0

    def __post_init__(self):
        variant = Variant(self.variant)
        object.__setattr__(self, "variant", variant)
        p_w = self.p_w
        if variant in _SINGLE_WHITE:
            if p_w is None:
                p_w = 1.0
            elif p_w != 1:
                raise ValueError(f"{variant.value} uses a white string: p_w must be 1, got {p_w!r}")
        elif p_w is None:
            p_w = 0.5
        p_1 = 0.5 if self.p_1 is None else self.p_1
        for name, value in (("p_w", p_w), ("p_1", p_1), ("length_l", self.length_l)):
            _check_real(name, value)
            if name != "length_l" and not 0 <= value <= 1:  # also rejects NaN
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        try:
            length = float(self.length_l)  # the trace computes in floats
        except OverflowError:  # an int or Fraction past the float range
            length = math.inf
        if not 0 < length < math.inf:
            raise ValueError(f"length_l must be positive and finite, got {self.length_l!r}")
        object.__setattr__(self, "p_w", p_w)
        object.__setattr__(self, "p_1", p_1)


@dataclass(frozen=True)
class Setting:
    """One of the four joint measurement choices."""

    alice: str  # "A" | "A'"
    bob: str  # "B" | "B'"

    def __post_init__(self):
        if self.alice not in ("A", "A'") or self.bob not in ("B", "B'"):
            raise ValueError(f"invalid setting ({self.alice!r}, {self.bob!r})")

    @property
    def label(self) -> str:
        return self.alice + self.bob

    @property
    def alice_pulls(self) -> bool:
        return self.alice == "A"

    @property
    def bob_pulls(self) -> bool:
        return self.bob == "B"


SETTINGS = (Setting("A", "B"), Setting("A", "B'"), Setting("A'", "B"), Setting("A'", "B'"))


@dataclass(frozen=True)
class OutcomePair:
    """The +/-1 outcomes of one joint trial."""

    alice: int
    bob: int

    def __post_init__(self):
        if self.alice not in (1, -1) or self.bob not in (1, -1):
            raise ValueError(f"outcomes must be +1 or -1, got ({self.alice!r}, {self.bob!r})")

    @property
    def index(self) -> int:
        """0, 1, 2, 3 for ++, +-, -+, --."""
        return (0 if self.alice > 0 else 2) + (0 if self.bob > 0 else 1)

    @property
    def label(self) -> str:
        return ("+" if self.alice > 0 else "-") + ("+" if self.bob > 0 else "-")


class MicroTrace(NamedTuple):
    """What physically happened inside one trial: a trace line's record, in field order.

    :func:`iter_trials` builds one per trial from the columns of
    :func:`_trace_columns`; :func:`write_trace` writes the same fields from
    those columns into line templates built once from this record.

    ``break_fraction`` is the Alice-side fraction of the jointly held string
    and is present iff such a string existed and at least one observer pulled
    it: a two-sided pull records the break point, a one-sided pull records
    1.0 (Alice collected everything) or 0.0 (Bob did).  In V4, trials where
    the observers hold different strings record no break.  ``colors`` has one
    entry per string; ``selections`` is V4-only.  Fragment lengths satisfy
    length_alice + length_bob = L whenever the break is defined.
    """

    break_fraction: float | None
    colors: tuple[str, ...]
    selections: tuple[str, str] | None
    length_alice: float | None
    length_bob: float | None


class _Events(NamedTuple):
    """The events of a batch of trials: a block's packed words, or one bool per trial.

    ``white`` has one column per string; it is None where the outcome reads
    no color (a plain variant with both observers pulling).  ``sel_a``/``sel_b``
    (V4 only) are True where that observer holds string 1.  ``cut`` is True
    where the cut leaves Alice the long side; it is None when no string splits
    in the setting, so samplers skip that test.
    """

    white: tuple[np.ndarray, ...] | None
    sel_a: np.ndarray | None
    sel_b: np.ndarray | None
    cut: np.ndarray | None


def _splits(variant: Variant, setting: Setting) -> bool:
    """Whether the cut decides the fragments: both pull, or a pre-cut string is pulled."""
    alice_pulls, bob_pulls = setting.alice_pulls, setting.bob_pulls
    return (alice_pulls and bob_pulls) or (variant is Variant.V1_PRE_BROKEN and (alice_pulls or bob_pulls))


def _events(config: StringModelConfig, setting: Setting, block: Block, *, trace: bool = False) -> _Events:
    """block -> events: the threshold tests the setting's outcome reads, over the block's trials.

    ``block.below(j, p)`` tests the block's column j (see
    :func:`draws_per_trial`); it is called only for the columns the outcome
    reads.  ``trace`` also builds the colors the outcome does not read, which
    a ``MicroTrace`` records.
    """
    variant = config.variant
    n_strings = 2 if variant is Variant.V4 else 1
    p_w = float(config.p_w)
    white = None
    if trace or variant in _PARITY_VARIANTS or not (setting.alice_pulls and setting.bob_pulls):
        white = tuple(block.below(j, p_w) for j in range(n_strings))
    sel_a = sel_b = None
    if variant is Variant.V4:
        p_1 = float(config.p_1)
        sel_a, sel_b = block.below(2, p_1), block.below(3, p_1)
    cut = ~block.below(_cut_column(variant), 0.5) if _splits(variant, setting) else None
    return _Events(white, sel_a, sel_b, cut)


def _cut_column(variant: Variant) -> int:
    """The cut is a variant's last block column."""
    return draws_per_trial(variant) - 1


def _outcome_signs(variant: Variant, setting: Setting, events: _Events) -> tuple[np.ndarray, np.ndarray]:
    """events -> outcome: the masks (a_plus, b_plus) of Alice's and Bob's + results.

    The one copy of the outcome rule.  A color measurement is + iff the
    observer's string is white.  A pull measurement is + iff the collected
    fragment is long (plain variants) or iff long-white / short-black
    (parity variants).  Every step is bitwise, so the events may be bool
    arrays (one trial each), packed words (64 trials each) or Python int
    bitsets alike; the sampler's padding bits come out arbitrary and are not
    counted.
    """
    if events.white is None:
        alice_white = bob_white = None  # a plain variant with both observers pulling reads no color
    elif events.sel_a is None:
        alice_white = bob_white = events.white[0]
    else:
        # String 1's color where selected, else string 2's: np.where on these
        # masks gives the same booleans but is over ten times slower.
        white_1, white_2 = events.white
        differs = white_1 ^ white_2
        alice_white, bob_white = white_2 ^ (events.sel_a & differs), white_2 ^ (events.sel_b & differs)
    if _splits(variant, setting):
        # The cut gives one side the long fragment of the string both hold ...
        alice_long, bob_long = events.cut, ~events.cut
        if events.sel_a is not None:
            # ... but observers holding different strings each collect a whole one.
            apart = events.sel_a ^ events.sel_b
            alice_long, bob_long = alice_long | apart, bob_long | apart
    else:
        # A lone puller collects the whole string.
        alice_long = bob_long = alice_white | ~alice_white
    parity = variant in _PARITY_VARIANTS
    if setting.alice_pulls:
        a_plus = ~(alice_long ^ alice_white) if parity else alice_long
    else:
        a_plus = alice_white
    if setting.bob_pulls:
        b_plus = ~(bob_long ^ bob_white) if parity else bob_long
    else:
        b_plus = bob_white
    return a_plus, b_plus


def _outcome_indices(variant: Variant, setting: Setting, events: _Events) -> np.ndarray:
    """events -> outcome indices 0, 1, 2, 3 for ++, +-, -+, --."""
    a_plus, b_plus = _outcome_signs(variant, setting, events)
    return (~a_plus) * 2 + (~b_plus)


_PAIRS = tuple(OutcomePair(alice, bob) for alice in (1, -1) for bob in (1, -1))
_COLOR_NAMES = {True: "white", False: "black"}
_STRING_NAMES = {True: "string1", False: "string2"}


def estimate_table(
    config: StringModelConfig,
    trials_per_setting: int,
    master_seed: int,
    *,
    workers: int = 1,
):
    """Monte Carlo table from ``trials_per_setting`` mechanism trials per setting.

    Deterministic given ``master_seed``: :func:`rng.count_outcomes` samples
    fixed blocks whose substreams depend only on (seed, setting, block,
    column), so the counts are bit-identical for any ``workers`` value.  A
    setting draws only the columns its outcome reads, and only the bit
    planes its thresholds need.
    Returns the relative-frequency :class:`ExperimentTable` and the raw
    counts as ``{row label: (n_pp, n_pm, n_mp, n_mm)}``.
    """

    def outcome(si, block):
        setting = SETTINGS[si]
        return sign_counts(*_outcome_signs(config.variant, setting, _events(config, setting, block)), block.rows)

    counts = count_outcomes(
        master_seed, DOMAIN_STRING_TRIALS, len(SETTINGS), trials_per_setting, 4, outcome, workers=workers
    )
    return frequency_table(counts)


@functools.cache
def _trace_parts(variant: Variant) -> tuple[tuple[OutcomePair, tuple[str, ...], tuple[str, str] | None], ...]:
    """A variant's trace codes decoded: ``(OutcomePair, colors, selections)`` per code."""
    n_strings, n_flags = (2, 4) if variant is Variant.V4 else (1, 1)
    parts = []
    for code in range(4 << n_flags):
        flags = [bool(code >> bit & 1) for bit in range(2, 2 + n_flags)]
        selections = tuple(_STRING_NAMES[s] for s in flags[n_strings:]) or None
        parts.append((_PAIRS[code & 3], tuple(_COLOR_NAMES[w] for w in flags[:n_strings]), selections))
    return tuple(parts)


def _trace_columns(
    config: StringModelConfig, setting: Setting, master_seed: int, block_index: int, rows: int
) -> tuple[list[int], list[float | None], list[float | None], list[float | None]]:
    """The first ``rows`` trials of a setting's block ``block_index``, column by column.

    Returns ``(codes, break_fraction, length_alice, length_bob)``.  A code
    packs a trial's outcome index (bits 0-1) with its white column(s) and, in
    V4, its two string-1 selections (one bit each, from bit 2 up);
    ``_trace_parts(variant)[code]`` decodes it.  The three float columns hold
    the ``MicroTrace`` fields of the same names, ``None`` where no break is
    recorded.

    Asks the block for the same events as :func:`estimate_table`, unpacked to
    one bool per trial, so trial ``t`` here is exactly trial ``t`` of the
    vectorized estimate.  Where the string splits, the break fraction is
    ``(b + v) / 2``: b is the trial's cut bit (the top bit of its cut
    column's U, 1 iff Alice holds the long side) and v a continuous draw on
    ``DOMAIN_STRING_TRACE``, so Alice holds the long side iff the fraction is
    at least 1/2.
    """
    si = SETTINGS.index(setting)
    variant, length = config.variant, float(config.length_l)
    block = Block(master_seed, DOMAIN_STRING_TRIALS, si, block_index, rows)
    packed = _events(config, setting, block, trace=True)
    events = _Events(
        tuple(map(block.unpack, packed.white)), *(None if e is None else block.unpack(e) for e in packed[1:])
    )
    flags = events.white if events.sel_a is None else (*events.white, events.sel_a, events.sel_b)
    codes = _outcome_indices(variant, setting, events)
    for bit, flag in enumerate(flags, 2):
        codes += flag * (1 << bit)
    if not (setting.alice_pulls or setting.bob_pulls):
        floats = [[None] * rows] * 3
    else:
        if _splits(variant, setting):
            b = events.cut
            v = block_uniforms(master_seed, DOMAIN_STRING_TRACE, si, block_index, rows)
            # Rounding b + v may reach b + 1; the fraction stays below (b + 1) / 2.
            fractions = np.minimum((b + v) / 2, np.nextafter((b + 1.0) / 2, 0.0))
        else:
            # A lone puller collects the whole string: Alice everything, or Bob.
            fractions = np.full(rows, 1.0 if setting.alice_pulls else 0.0)
        length_alice = fractions * length
        floats = [fractions, length_alice, length - length_alice]
        if events.sel_a is not None:
            # Observers holding different strings share no string to break.
            apart = events.sel_a ^ events.sel_b
            floats = [np.where(apart, None, column) for column in floats]
        floats = [column.tolist() for column in floats]
    return codes.tolist(), *floats


def iter_trials(
    config: StringModelConfig,
    setting: Setting,
    master_seed: int,
    n_trials: int,
    start: int = 0,
) -> Iterator[tuple[OutcomePair, MicroTrace]]:
    """Replay trials [start, start + n_trials) of a setting, one by one.

    Zips each block's :func:`_trace_columns`, the replay :func:`write_trace`
    writes from, into ``(OutcomePair, MicroTrace)`` items, so trial ``t``
    here is exactly trial ``t`` of the vectorized :func:`estimate_table`.
    ``n_trials == 0`` replays nothing; a negative ``start`` or ``n_trials`` is
    a ``ValueError``.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")

    def replay_block(block_index: int, first: int, rows: int):
        codes, *floats = _trace_columns(config, setting, master_seed, block_index, rows)
        parts = map(_trace_parts(config.variant).__getitem__, codes)
        items = (
            (pair, MicroTrace(fraction, colors, selections, length_alice, length_bob))
            for (pair, colors, selections), fraction, length_alice, length_bob in zip(parts, *floats)
        )
        return itertools.islice(items, max(start - first, 0), None)

    # A plain function returning a lazy chain, so bad arguments raise at the call.
    return itertools.chain.from_iterable(itertools.starmap(replay_block, iter_block_slices(start + n_trials, start)))


@functools.cache
def _trace_templates(variant: Variant, setting: Setting) -> tuple[str, ...]:
    """A setting's trace lines as ``%`` templates, one per trace code of :func:`_trace_columns`.

    Each is ``json.dumps`` of the line with NaN at the trial and the three
    float fields, each NaN then made a ``%s`` slot.
    """
    nan = math.nan
    records = (
        {"setting": setting.label, "trial": nan, "outcome": pair.label, **MicroTrace(nan, colors, sel, nan, nan)._asdict()}
        for pair, colors, sel in _trace_parts(variant)
    )
    return tuple(json.dumps(record).replace("NaN", "%s") + "\n" for record in records)


def write_trace(out: TextIO, config: StringModelConfig, master_seed: int, n_trials: int) -> None:
    """Trials [0, n_trials) of each setting as JSON lines on the text file ``out``, one write per block.

    A line's bytes are those of ``json.dumps`` of its fields, the labels then
    :class:`MicroTrace`'s: the templates hold the rest, and a float slot gets
    ``repr`` of its value (``json``'s spelling too) or ``null``.
    """
    for setting in SETTINGS:
        templates = _trace_templates(config.variant, setting)
        for block_index, first, rows in iter_block_slices(n_trials):
            codes, *floats = _trace_columns(config, setting, master_seed, block_index, rows)
            texts = (["null" if x is None else repr(x) for x in column] for column in floats)
            slots = zip(range(first, first + rows), *texts)
            out.write("".join([templates[code] % slot for code, slot in zip(codes, slots)]))


class CellPolynomials(NamedTuple):
    """Every cell of one variant's exact table as an integer polynomial in (p_w, p_1).

    ``cells[row][cell]`` (rows AB, AB', A'B, A'B'; cells ++, +-, -+, --) is a
    tuple of ``((a, c), coefficient)`` pairs, one per Bernstein monomial with
    a nonzero integer coefficient.  With ``(k_w, k_1) = degrees`` the cell is

        sum(coefficient * p_w**a * (1 - p_w)**(k_w - a) * p_1**c * (1 - p_1)**(k_1 - c)) / 2

    where ``a`` counts white strings, ``c`` counts observers holding string 1
    and the 1/2 is the fair cut.  The white string of V1 and V1_PRE_BROKEN has
    no color parameter, so their ``k_w`` is 0.
    """

    degrees: tuple[int, int]
    cells: tuple[tuple[tuple[tuple[tuple[int, int], int], ...], ...], ...]


@functools.cache
def cell_polynomials(variant: Variant) -> CellPolynomials:
    """The outcome kernel run once per setting over the symbolic event space.

    Each event row (colors, V4 selections, cut) adds 1 to the coefficient of
    its monomial in the cell its outcome lands in.
    """
    variant = Variant(variant)
    n_strings, n_selections = (2, 2) if variant is Variant.V4 else (1, 0)
    colors = (True,) if variant in _SINGLE_WHITE else (True, False)
    # One row per event combination: colors, V4 selections, then the cut.
    rows = list(itertools.product(*[colors] * n_strings, *[(True, False)] * n_selections, (True, False)))
    columns = [np.array(column) for column in zip(*rows)]
    events = _Events(tuple(columns[:n_strings]), *(columns[n_strings:-1] or (None, None)), columns[-1])
    k_w = 0 if variant in _SINGLE_WHITE else n_strings
    monomials = [(sum(row[:n_strings]) if k_w else 0, sum(row[n_strings:-1])) for row in rows]
    basis = sorted(set(monomials))
    cells = []
    for setting in SETTINGS:
        counts = collections.Counter(zip(_outcome_indices(variant, setting, events).tolist(), monomials))
        cells.append(tuple(tuple((m, counts[i, m]) for m in basis if counts[i, m]) for i in range(4)))
    return CellPolynomials((k_w, n_selections), tuple(cells))


class _CompiledCells(NamedTuple):
    """A variant's :class:`CellPolynomials` compiled for evaluation.

    ``distinct`` holds each distinct cell polynomial once, as its
    coefficients over the flat monomial vector whose entry
    ``a * (k_1 + 1) + c`` is the Bernstein monomial ``(a, c)``; ``index``
    gives each of the 16 cells, row by row, its entry of ``distinct``, and
    ``pick`` gathers them.
    """

    degrees: tuple[int, int]
    distinct: tuple[tuple[int, ...], ...]
    index: tuple[int, ...]
    pick: Callable[[list[int]], tuple[int, ...]]


def _compile(polynomials: CellPolynomials) -> _CompiledCells:
    (k_w, k_1), rows = polynomials
    cells = [cell for row in rows for cell in row]
    distinct = list(dict.fromkeys(cells))
    index = tuple(map(distinct.index, cells))
    flat = [[0] * ((k_w + 1) * (k_1 + 1)) for _ in distinct]
    for coefficients, cell in zip(flat, distinct):
        for (a, c), n in cell:
            coefficients[a * (k_1 + 1) + c] = n
    return _CompiledCells((k_w, k_1), tuple(map(tuple, flat)), index, operator.itemgetter(*index))


#: Per variant: the polynomials last returned by :func:`cell_polynomials` and their compiled form.
_COMPILED: dict[Variant, tuple[CellPolynomials, _CompiledCells]] = {}


def _compiled_cells(variant: Variant) -> _CompiledCells:
    """:func:`cell_polynomials` of ``variant``, compiled once per polynomials object it returns."""
    polynomials = cell_polynomials(variant)
    entry = _COMPILED.get(variant)
    if entry is None or entry[0] is not polynomials:
        entry = _COMPILED[variant] = (polynomials, _compile(polynomials))
    return entry[1]


def _scaled_bernstein(n: int, q: int, k: int) -> list[int]:
    """``p**a * (1 - p)**(k - a) * q**k`` for a = 0..k and p = n / q, in integers."""
    m = q - n
    return [n**a * m ** (k - a) for a in range(k + 1)]


def _evaluate(compiled: _CompiledCells, p_w: tuple[int, int], p_1: tuple[int, int]) -> tuple[tuple[int, ...], int]:
    """``(cells, d)``: the 16 compiled cells, row by row, as integer numerators over ``d``.

    One pass forms the (k_w + 1)(k_1 + 1) Bernstein products; each distinct
    cell is then one dot product with them.
    """
    (k_w, k_1), distinct, _, pick = compiled
    (n_w, q_w), (n_1, q_1) = p_w, p_1
    s = _scaled_bernstein(n_1, q_1, k_1)
    products = [x * y for x in _scaled_bernstein(n_w, q_w, k_w) for y in s]
    cells = pick([sum(map(operator.mul, coefficients, products)) for coefficients in distinct])
    return cells, 2 * q_w**k_w * q_1**k_1


def _checked_ratio(name: str, pair) -> tuple[int, int]:
    """``(n, q)`` as ints if it is n / q with 0 <= n <= q and q > 0, else a ``ValueError`` naming ``name``."""
    try:
        n, q = pair
    except (TypeError, ValueError):  # not a pair
        n = q = None
    if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in (n, q)):
        raise ValueError(f"{name} must be a pair (n, q) of integers, got {pair!r}")
    if not 0 <= n <= q or q <= 0:
        raise ValueError(f"{name} = {n}/{q} is not a probability n/q with 0 <= n <= q and q > 0")
    return int(n), int(q)


def cell_numerators(variant: Variant, p_w: tuple[int, int], p_1: tuple[int, int]) -> tuple[list[tuple], int]:
    """``(rows, d)``: the cell polynomials at exact ``(numerator, denominator)`` pairs in [0, 1].

    Each row (AB, AB', A'B, A'B') holds its cells' integer numerators over
    ``d = 2 * d_w**k_w * d_1**k_1``.  A pair that is not n / q with
    0 <= n <= q and q > 0 is a ``ValueError`` naming ``p_w`` or ``p_1``.
    """
    cells, d = _evaluate(_compiled_cells(variant), _checked_ratio("p_w", p_w), _checked_ratio("p_1", p_1))
    return [cells[i : i + 4] for i in range(0, 16, 4)], d


def _integer_ratio(p: Real) -> tuple[int, int]:
    """``(n, q)`` of the exact value of a real that :class:`StringModelConfig` accepts: its ``as_integer_ratio()``
    (int, float, ``Fraction`` and every numpy float, ``float32`` and ``longdouble`` too), else that of ``Fraction(p)``
    (numpy ints and other rationals)."""
    ratio = getattr(p, "as_integer_ratio", None)
    return ratio() if ratio is not None else Fraction(p).as_integer_ratio()


def analytic_table(config: StringModelConfig) -> ExperimentTable:
    """Closed-form experiment table: the cells of :func:`cell_numerators` as an exact table that carries them."""
    cells, d = _evaluate(_compiled_cells(config.variant), _integer_ratio(config.p_w), _integer_ratio(config.p_1))
    return _numerator_table(cells, d)


OutcomeFn = Callable[[object, str], int]


def lhv_table(
    alice: OutcomeFn,
    bob: OutcomeFn,
    lam_values: Sequence,
    weights: Sequence[Real] | None = None,
) -> ExperimentTable:
    """Table of a deterministic local-hidden-variable strategy.

    ``alice(lam, "A"|"A'")`` and ``bob(lam, "B"|"B'")`` fix every outcome from
    the shared variable alone, so all correlations pre-exist the joint
    measurement.  The finite lambda space is enumerated exactly, so Fraction
    weights give Fraction cells.
    """
    n_lam = len(lam_values)
    if n_lam == 0:
        raise ValueError("lambda space must be non-empty")
    if weights is None:
        weights = [_Fractions(n_lam)[1]] * n_lam
    if len(weights) != n_lam:
        raise ValueError("weights and lam_values must have equal length")
    # Compared, not converted: math.isfinite(w) overflows on a huge Fraction.
    if any(w != w or abs(w) == math.inf for w in weights):
        raise ValueError("weights must be finite, not NaN or infinite")
    total = sum(weights)
    if any(w < 0 for w in weights) or abs(total - 1) > NORMALIZATION_TOL:
        raise ValueError("weights must be non-negative and sum to 1")
    dists = []
    for setting in SETTINGS:
        probs = [0 * total] * 4  # zero of the weights' numeric type
        for lam, w in zip(lam_values, weights):
            probs[OutcomePair(alice(lam, setting.alice), bob(lam, setting.bob)).index] += w
        dists.append(JointDistribution(*probs))
    return ExperimentTable(*dists)

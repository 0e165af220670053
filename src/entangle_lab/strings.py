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
``rng.count_outcomes``: the kernel runs on each block's words and
``rng.sign_counts`` counts the block's four cells from the two masks.
``iter_trials`` asks the same blocks for the same events, unpacks them to
one bool per trial, and adds a ``MicroTrace``, the record of a trace line,
per trial; its break position
is the cut bit plus a continuous draw made for the trace alone, so the
trace agrees with the cut.
``cell_polynomials`` runs the kernel once per variant over the finite event
space and keeps every cell as an integer polynomial in (p_w, p_1);
``cell_numerators`` evaluates these cached polynomials exactly, as integer
numerators over one denominator, and ``analytic_table`` reduces them into
``fractions.Fraction`` cells.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Real
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .probability import ExperimentTable, JointDistribution, frequency_table
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
    length_l: float = 1.0

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
        for name, value in (("p_w", p_w), ("p_1", p_1)):
            if not isinstance(value, Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not 0 <= value <= 1:  # also rejects NaN
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if not 0 < self.length_l < math.inf:
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


def iter_trials(
    config: StringModelConfig,
    setting: Setting,
    master_seed: int,
    n_trials: int,
    start: int = 0,
) -> Iterator[tuple[OutcomePair, MicroTrace]]:
    """Replay trials [start, start + n_trials) of a setting, one by one.

    Asks the same blocks as :func:`estimate_table` for the same events, so
    trial ``t`` here is exactly trial ``t`` of the vectorized estimate; the
    packed events are unpacked to one bool per trial.  Where the string
    splits, the break fraction is ``(b + v) / 2``: b is the trial's cut bit
    (the top bit of its cut column's U, 1 iff Alice holds the long side) and
    v a continuous draw on ``DOMAIN_STRING_TRACE``, so Alice holds the long
    side iff the fraction is at least 1/2.
    ``n_trials == 0`` replays nothing; a negative ``start`` or ``n_trials`` is
    a ``ValueError``.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    si = SETTINGS.index(setting)
    variant, length = config.variant, config.length_l
    splits = _splits(variant, setting)
    pulled = setting.alice_pulls or setting.bob_pulls
    lone_break = 1.0 if setting.alice_pulls else 0.0

    def replay_block(block_index: int, first: int, rows: int):
        block = Block(master_seed, DOMAIN_STRING_TRIALS, si, block_index, rows)
        packed = _events(config, setting, block, trace=True)
        events = _Events(
            tuple(map(block.unpack, packed.white)), *(None if e is None else block.unpack(e) for e in packed[1:])
        )
        skip = max(start - first, 0)
        breaks = itertools.repeat(None)
        if splits:
            b = events.cut
            v = block_uniforms(master_seed, DOMAIN_STRING_TRACE, si, block_index, rows)
            # Rounding b + v may reach b + 1; the fraction stays below (b + 1) / 2.
            breaks = np.minimum((b + v) / 2, np.nextafter((b + 1.0) / 2, 0.0))[skip:].tolist()
        indices = _outcome_indices(variant, setting, events)[skip:].tolist()
        colors = zip(*([_COLOR_NAMES[w] for w in column[skip:].tolist()] for column in events.white))
        if events.sel_a is None:
            selections, shared = itertools.repeat(None), itertools.repeat(True)
        else:
            sel_a, sel_b = events.sel_a[skip:].tolist(), events.sel_b[skip:].tolist()
            selections = ((_STRING_NAMES[a], _STRING_NAMES[b]) for a, b in zip(sel_a, sel_b))
            shared = (a == b for a, b in zip(sel_a, sel_b))
        for index, color, selection, same, u_break in zip(indices, colors, selections, shared, breaks):
            break_fraction = length_alice = length_bob = None
            if same and pulled:
                break_fraction = u_break if splits else lone_break
                length_alice = break_fraction * length
                length_bob = length - length_alice
            yield _PAIRS[index], MicroTrace(break_fraction, color, selection, length_alice, length_bob)

    # A plain function returning a lazy chain, so bad arguments raise at the call.
    return itertools.chain.from_iterable(itertools.starmap(replay_block, iter_block_slices(start + n_trials, start)))


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


def _scaled_bernstein(n: int, q: int, k: int) -> list[int]:
    """``p**a * (1 - p)**(k - a) * q**k`` for a = 0..k and p = n / q, in integers."""
    m = q - n
    return [n**a * m ** (k - a) for a in range(k + 1)]


def cell_numerators(variant: Variant, p_w: tuple[int, int], p_1: tuple[int, int]) -> tuple[list[tuple], int]:
    """``(rows, d)``: the cell polynomials at exact ``(numerator, denominator)`` pairs in [0, 1].

    Each row (AB, AB', A'B, A'B') holds its cells' integer numerators over
    ``d = 2 * d_w**k_w * d_1**k_1``.
    """
    (k_w, k_1), cells = cell_polynomials(variant)
    w, s = _scaled_bernstein(*p_w, k_w), _scaled_bernstein(*p_1, k_1)
    rows = [tuple([sum(n * w[a] * s[c] for (a, c), n in cell) for cell in row]) for row in cells]
    return rows, 2 * p_w[1] ** k_w * p_1[1] ** k_1


def analytic_table(config: StringModelConfig) -> ExperimentTable:
    """Closed-form experiment table: :func:`cell_numerators` reduced by ``Fraction``."""
    p_w, p_1 = Fraction(config.p_w).as_integer_ratio(), Fraction(config.p_1).as_integer_ratio()
    rows, d = cell_numerators(config.variant, p_w, p_1)
    return ExperimentTable(*(JointDistribution(*(Fraction(n, d) for n in row)) for row in rows))


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
        weights = [Fraction(1, n_lam)] * n_lam
    if len(weights) != n_lam:
        raise ValueError("weights and lam_values must have equal length")
    # Compared, not converted: math.isfinite(w) overflows on a huge Fraction.
    if any(w != w or abs(w) == math.inf for w in weights):
        raise ValueError("weights must be finite, not NaN or infinite")
    total = sum(weights)
    if any(w < 0 for w in weights) or abs(total - 1) > 1e-12:
        raise ValueError("weights must be non-negative and sum to 1")
    dists = []
    for setting in SETTINGS:
        probs = [0 * total] * 4  # zero of the weights' numeric type
        for lam, w in zip(lam_values, weights):
            probs[OutcomePair(alice(lam, setting.alice), bob(lam, setting.bob)).index] += w
        dists.append(JointDistribution(*probs))
    return ExperimentTable(*dists)


def pre_broken_lhv_strategy():
    """The pre-broken string expressed as an LHV strategy.

    Lambda is which side of the cut is long; length measurements discover it,
    color measurements always see white.  Exact enumeration reproduces the
    pre-broken analytic table.
    """
    lam_values = ("alice_long", "bob_long")
    weights = (Fraction(1, 2), Fraction(1, 2))

    def alice(lam, setting: str) -> int:
        if setting == "A":
            return 1 if lam == "alice_long" else -1
        return 1

    def bob(lam, setting: str) -> int:
        if setting == "B":
            return 1 if lam == "bob_long" else -1
        return 1

    return alice, bob, lam_values, weights


def random_lhv_strategy(n_lambda: int, rng: np.random.Generator):
    """A random deterministic strategy over ``n_lambda`` equally-typed points.

    Outcome tables are independent fair +/-1 draws per (lambda, setting);
    lambda weights are random positive integers normalized exactly.
    """
    if n_lambda < 1:
        raise ValueError(f"n_lambda must be >= 1, got {n_lambda}")
    a_table = rng.integers(0, 2, size=(n_lambda, 2)) * 2 - 1
    b_table = rng.integers(0, 2, size=(n_lambda, 2)) * 2 - 1
    raw = rng.integers(1, 1000, size=n_lambda)
    total = int(raw.sum())
    weights = tuple(Fraction(int(w), total) for w in raw)

    def alice(lam, setting: str) -> int:
        return int(a_table[lam, 0 if setting == "A" else 1])

    def bob(lam, setting: str) -> int:
        return int(b_table[lam, 0 if setting == "B" else 1])

    return alice, bob, tuple(range(n_lambda)), weights

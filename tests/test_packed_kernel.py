"""The outcome kernel on packed words agrees with the boolean kernel and with the cell polynomials.

``strings._outcome_signs`` is the one copy of the outcome rule, for bool
arrays (one trial each) and packed words (64 trials each) alike.  For every
variant and setting, Hypothesis draws how often each row of the variant's
event space occurs, so the trials land in each cell as many times as the
cell polynomials' coefficients, weighted by those counts, say.  The rows are
shuffled and packed with every padding bit set, at row counts that are not
multiples of 64, and counted with ``rng.sign_counts``: the counts must equal
the boolean kernel's and the polynomials', and the padding must never count.
The kernel also runs on Python int bitsets (trial r at bit r), with the same
signs trial by trial.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from byte_streams import pack
from entangle_lab import strings
from entangle_lab.rng import sign_counts
from entangle_lab.strings import SETTINGS, Variant, cell_polynomials

property_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def event_space(variant):
    """The rows (colors, V4 selections, cut) of a variant's event space and each row's monomial (a, c)."""
    single_white = variant in (Variant.V1, Variant.V1_PRE_BROKEN)
    n_strings, n_selections = (2, 2) if variant is Variant.V4 else (1, 0)
    colors = (True,) if single_white else (True, False)
    rows = list(itertools.product(*[colors] * n_strings, *[(True, False)] * n_selections, (True, False)))
    monomials = [(0 if single_white else sum(row[:n_strings]), sum(row[n_strings:-1])) for row in rows]
    return rows, monomials, n_strings


def events_of(columns, n_strings, variant):
    """The ``_Events`` of event columns laid out as the event space's rows."""
    selections = columns[n_strings:-1] if variant is Variant.V4 else (None, None)
    return strings._Events(tuple(columns[:n_strings]), *selections, columns[-1])


@property_settings
@given(variant=st.sampled_from(list(Variant)), data=st.data())
def test_packed_counts_equal_the_boolean_kernel_and_the_polynomials(variant, data):
    rows, monomials, n_strings = event_space(variant)
    basis = sorted(set(monomials))
    weight = dict(zip(basis, data.draw(st.lists(st.integers(0, 6), min_size=len(basis), max_size=len(basis)))))
    trials = [row for row, m in zip(rows, monomials) for _ in range(weight[m])]
    assume(len(trials) % 64)
    order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(trials))
    columns = [np.array(column)[order] for column in zip(*trials)]
    boolean = events_of(columns, n_strings, variant)
    packed = events_of([pack(column) for column in columns], n_strings, variant)
    polynomials = cell_polynomials(variant)
    for si, setting in enumerate(SETTINGS):
        a_plus, b_plus = strings._outcome_signs(variant, setting, boolean)
        from_bools = np.bincount((~a_plus) * 2 + (~b_plus), minlength=4).tolist()
        from_words = list(sign_counts(*strings._outcome_signs(variant, setting, packed), len(trials)))
        from_polynomials = [sum(weight[m] * n for m, n in cell) for cell in polynomials.cells[si]]
        assert from_words == from_bools == from_polynomials


def bitset(column) -> int:
    """A bool column as one Python int, trial r at bit r."""
    return int.from_bytes(np.packbits(column, bitorder="little").tobytes(), "little")


@property_settings
@given(variant=st.sampled_from(list(Variant)), data=st.data())
def test_the_kernel_on_int_bitsets_equals_bool_arrays_and_packed_words(variant, data):
    rows, _, n_strings = event_space(variant)
    trials = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=150))
    n = len(trials)
    columns = [np.array(column) for column in zip(*trials)]
    boolean = events_of(columns, n_strings, variant)
    packed = events_of([pack(column) for column in columns], n_strings, variant)
    ints = events_of([bitset(column) for column in columns], n_strings, variant)
    for setting in SETTINGS:
        from_bools = [mask.tolist() for mask in strings._outcome_signs(variant, setting, boolean)]
        from_words = [
            np.unpackbits(mask.astype("<u8").view(np.uint8), count=n, bitorder="little").astype(bool).tolist()
            for mask in strings._outcome_signs(variant, setting, packed)
        ]
        int_masks = strings._outcome_signs(variant, setting, ints)
        assert all(type(mask) is int for mask in int_masks)  # no numpy call turns a bitset into an array
        from_ints = [[bool(mask >> r & 1) for r in range(n)] for mask in int_masks]
        assert from_ints == from_words == from_bools

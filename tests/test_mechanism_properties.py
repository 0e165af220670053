"""Property tests of the string mechanism against independent per-row oracles.

``oracle_trial`` is a branchy scalar resolution of one trial, written out
apart from the package's event/outcome layers.  Both sampling paths
(``iter_trials`` and ``estimate_table``) must agree with it row by row,
including draws that sit exactly on a threshold or one float below it, and
``analytic_table`` must equal the closed forms and an enumeration of the
event space exactly.  The sampling paths are fed the oracle's draws as bit
planes through ``byte_streams``, on multiples of 2**-64, where the float
test u < p and the bit-plane rule agree.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from byte_streams import feeding_rows, quantized
from entangle_lab import rng, strings
from entangle_lab.cli import main
from entangle_lab.probability import chsh, exact_diagnostics, marginals
from entangle_lab.rng import DOMAIN_STRING_TRIALS, TRIAL_BLOCK, Block
from entangle_lab.strings import (
    SETTINGS,
    MicroTrace,
    OutcomePair,
    StringModelConfig,
    Variant,
    analytic_table,
    cell_numerators,
    draws_per_trial,
    estimate_table,
    iter_trials,
)

property_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None)

HALF = Fraction(1, 2)


def _plus(parity, pulls, long_fragment, white):
    if not pulls:
        return white
    if parity:
        return long_fragment == white
    return long_fragment


def _color(white):
    return "white" if white else "black"


def oracle_trial(config, setting, draws):
    """One trial resolved branch by branch: ``(OutcomePair, MicroTrace)``."""
    parity = config.variant in (Variant.V3, Variant.V4)
    alice_pulls, bob_pulls = setting.alice_pulls, setting.bob_pulls
    length = config.length_l
    if config.variant is Variant.V4:
        u_c1, u_c2, u_sa, u_sb, u_break = (float(u) for u in draws)
        white = (u_c1 < config.p_w, u_c2 < config.p_w)
        sel_a = 0 if u_sa < config.p_1 else 1
        sel_b = 0 if u_sb < config.p_1 else 1
        same = sel_a == sel_b
        break_fraction = None
        if same and (alice_pulls or bob_pulls):
            if alice_pulls and bob_pulls:
                break_fraction = u_break
            else:
                break_fraction = 1.0 if alice_pulls else 0.0
        both_on_one = same and alice_pulls and bob_pulls
        alice_long = (break_fraction >= 0.5) if both_on_one else True
        bob_long = (break_fraction < 0.5) if both_on_one else True
        a_plus = _plus(parity, alice_pulls, alice_long, white[sel_a])
        b_plus = _plus(parity, bob_pulls, bob_long, white[sel_b])
        colors = (_color(white[0]), _color(white[1]))
        selections = (f"string{sel_a + 1}", f"string{sel_b + 1}")
    else:
        u_color, u_break = (float(u) for u in draws)
        white = u_color < config.p_w
        break_fraction = None
        if alice_pulls or bob_pulls:
            if (alice_pulls and bob_pulls) or config.variant is Variant.V1_PRE_BROKEN:
                break_fraction = u_break
            else:
                break_fraction = 1.0 if alice_pulls else 0.0
        alice_long = None if break_fraction is None else break_fraction >= 0.5
        bob_long = None if break_fraction is None else break_fraction < 0.5
        a_plus = _plus(parity, alice_pulls, alice_long, white)
        b_plus = _plus(parity, bob_pulls, bob_long, white)
        colors = (_color(white),)
        selections = None
    if break_fraction is None:
        length_alice = length_bob = None
    else:
        length_alice = break_fraction * length
        length_bob = length - length_alice
    pair = OutcomePair(alice=1 if a_plus else -1, bob=1 if b_plus else -1)
    return pair, MicroTrace(break_fraction, colors, selections, length_alice, length_bob)


def closed_form_rows(config):
    """The published closed-form rows, in exact rationals."""
    p_w = Fraction(config.p_w)
    p_b = 1 - p_w
    if config.variant is Variant.V1:
        return [(0, HALF, HALF, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)]
    if config.variant is Variant.V1_PRE_BROKEN:
        return [(0, HALF, HALF, 0), (HALF, 0, HALF, 0), (HALF, HALF, 0, 0), (1, 0, 0, 0)]
    if config.variant is Variant.V2:
        return [(0, HALF, HALF, 0), (p_w, p_b, 0, 0), (p_w, 0, p_b, 0), (p_w, 0, 0, p_b)]
    if config.variant is Variant.V3:
        return [(0, HALF, HALF, 0)] + [(p_w, 0, 0, p_b)] * 3
    p_1 = Fraction(config.p_1)
    q = p_1 * (1 - p_1)
    cross = HALF + q * (2 * p_w * p_b - 1)
    ab = (2 * q * p_w**2, cross, cross, 2 * q * p_b**2)
    other = (p_w * (1 - 2 * q * p_b), 2 * q * p_w * p_b, 2 * q * p_w * p_b, p_b * (1 - 2 * q * p_w))
    return [ab, other, other, other]


probabilities = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 5e-324, 1 - 2**-53]),
    st.floats(0.0, 1.0),
    st.integers(0, 1024).map(lambda k: Fraction(k, 1024)),
)

configs = st.one_of(
    st.sampled_from([StringModelConfig(variant=Variant.V1), StringModelConfig(variant=Variant.V1_PRE_BROKEN)]),
    st.builds(
        lambda variant, p_w, length: StringModelConfig(variant=variant, p_w=p_w, length_l=length),
        st.sampled_from([Variant.V2, Variant.V3]),
        probabilities,
        st.sampled_from([1.0, 0.3, 7.5]),
    ),
    st.builds(lambda p_w, p_1: StringModelConfig(variant=Variant.V4, p_w=p_w, p_1=p_1), probabilities, probabilities),
)


def draw_rows(config, data):
    """Draw rows mixing random uniforms with every threshold and the float just below it.

    Every draw is a multiple of 2**-64, so the bit planes can carry it exactly.
    """
    k = draws_per_trial(config.variant)
    thresholds = {float(config.p_w), float(config.p_1), 0.5}
    # A generator never yields 1.0, so an edge of 1.0 is dropped; the largest
    # draw, the float just below it, stays.
    edges = sorted(v for v in thresholds | {math.nextafter(t, 0.0) for t in thresholds} if v < 1.0)
    value = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0, exclude_max=True))
    rows = [[edge] * k for edge in edges]
    rows += data.draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=1, max_size=40))
    return [[quantized(u) for u in row] for row in rows]


@property_settings
@given(config=configs, data=st.data())
def test_every_sampling_path_matches_the_oracle_row_by_row(config, data):
    rows = draw_rows(config, data)
    start = data.draw(st.integers(0, len(rows) - 1))
    streams, trace = feeding_rows(config, rows)
    for setting in SETTINGS:
        expected = [oracle_trial(config, setting, row) for row in rows]
        with streams, trace:
            _, counts = estimate_table(config, len(rows), 0)
            replayed = list(iter_trials(config, setting, 0, len(rows) - start, start))
        assert replayed == expected[start:]
        tally = [0, 0, 0, 0]
        for pair, _ in expected:
            tally[pair.index] += 1
        assert counts[setting.label] == tuple(tally)


@property_settings
@given(config=configs, data=st.data())
def test_sign_mask_counts_equal_the_index_bincount(config, data):
    # estimate_table counts each block from the two sign masks; the per-trial
    # indices of the same kernel must land in the same four cells.
    rows = draw_rows(config, data)
    streams, _ = feeding_rows(config, rows)
    with streams:
        _, counts = estimate_table(config, len(rows), 0)
    # One bool event column per tested column, u < p, as the oracle tests it.
    u = np.array(rows)
    tested = [config.p_w, config.p_w, config.p_1, config.p_1] if config.variant is Variant.V4 else [config.p_w]
    columns = [u[:, j] < float(p) for j, p in enumerate(tested)]
    cut = u[:, -1] >= 0.5
    if config.variant is Variant.V4:
        events = strings._Events(tuple(columns[:2]), *columns[2:], cut)
    else:
        events = strings._Events((columns[0],), None, None, cut)
    for setting in SETTINGS:
        indices = strings._outcome_indices(config.variant, setting, events)
        assert counts[setting.label] == tuple(np.bincount(indices, minlength=4).tolist())


@property_settings
@given(config=configs)
def test_analytic_table_equals_the_closed_forms(config):
    table = analytic_table(config)
    for (_, dist), expected in zip(table.rows(), closed_form_rows(config)):
        assert dist.probabilities() == expected
        assert all(type(p) is Fraction for p in dist.probabilities())


def enumerated_table_rows(config):
    """Exact rows by enumerating the finite event space with integer weights.

    Each combination of the white, selection and cut events is weighted by
    its product of exact factors, run through the outcome kernel and summed
    per cell; the cell polynomials must give the same rows.
    """
    p_w, p_1 = Fraction(config.p_w), Fraction(config.p_1)
    factors = [p_w, p_w, p_1, p_1] if config.variant is Variant.V4 else [p_w]
    factors.append(HALF)
    rows = list(itertools.product((True, False), repeat=len(factors)))
    weights = [
        math.prod(p.numerator if event else p.denominator - p.numerator for p, event in zip(factors, row))
        for row in rows
    ]
    denominator = math.prod(p.denominator for p in factors)
    columns = [np.array(column) for column in zip(*rows)]
    if config.variant is Variant.V4:
        events = strings._Events(tuple(columns[:2]), *columns[2:])
    else:
        events = strings._Events((columns[0],), None, None, columns[1])
    table = []
    for setting in SETTINGS:
        cells = [0] * 4
        for weight, index in zip(weights, strings._outcome_indices(config.variant, setting, events).tolist()):
            cells[index] += weight
        table.append(tuple(Fraction(c, denominator) for c in cells))
    return table


@property_settings
@given(config=configs)
def test_analytic_table_equals_the_enumerated_event_space(config):
    got = [dist.probabilities() for _, dist in analytic_table(config).rows()]
    assert got == enumerated_table_rows(config)
    assert all(type(p) is Fraction for row in got for p in row)


def fraction_path_values(config):
    """The four CHSH values and the largest |marginal residual| of ``analytic_table``, as Fractions."""
    table = analytic_table(config)
    return [*chsh(table).as_tuple(), marginals(table, 1e-9).max_abs_residual]


odd_fractions = st.fractions(0, 1, max_denominator=10**9)


@property_settings
@given(
    config=st.one_of(
        configs,
        st.builds(
            lambda variant, p_w, p_1: StringModelConfig(variant=variant, p_w=p_w, p_1=p_1),
            st.sampled_from([Variant.V2, Variant.V3, Variant.V4]),
            odd_fractions,
            odd_fractions,
        ),
    )
)
def test_integer_diagnostics_equal_the_fraction_path(config):
    ratios = (Fraction(config.p_w).as_integer_ratio(), Fraction(config.p_1).as_integer_ratio())
    cells, d = cell_numerators(config.variant, *ratios)
    combinations, residual = exact_diagnostics([n for row in cells for n in row], d)
    expected = fraction_path_values(config)
    assert [Fraction(n, d) for n in (*combinations, residual)] == expected
    assert [n / d for n in (*combinations, residual)] == [float(v) for v in expected]


@property_settings
@given(variant=st.sampled_from([Variant.V2, Variant.V3, Variant.V4]), data=st.data())
def test_every_scan_row_equals_the_fraction_path(variant, data):
    parameter = data.draw(st.sampled_from(["p_w", "p_1"] if variant is Variant.V4 else ["p_w"]))
    start, stop, fixed = (data.draw(probabilities.map(float)) for _ in range(3))
    assume(start < stop)
    argv = ["scan", "--variant", variant.value, "--parameter", parameter, "--start", repr(start), "--stop", repr(stop)]
    argv += ["--steps", str(data.draw(st.integers(2, 6)))]
    if variant is Variant.V4:
        argv += ["--pw" if parameter == "p_1" else "--p1", repr(fixed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    for value, *row in json.loads(out.getvalue())["results"]["rows"]:
        p_w, p_1 = (value, fixed) if parameter == "p_w" else (fixed, value)
        config = StringModelConfig(variant=variant, p_w=p_w, p_1=p_1 if variant is Variant.V4 else None)
        assert row == [float(v) for v in fraction_path_values(config)]


near_half = st.one_of(
    st.sampled_from([0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
    st.floats(0.5 - 1e-8, 0.5 + 1e-8),
)


@property_settings
@given(variant=st.sampled_from([Variant.V3, Variant.V4]), p_w=near_half, p_1=probabilities.map(float))
def test_the_table_marginal_verdict_is_exact_near_half(variant, p_w, p_1):
    argv = ["table", "--variant", variant.value, "--pw", repr(p_w)] + (["--p1", repr(p_1)] if variant is Variant.V4 else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    verdict = json.loads(out.getvalue())["results"]["analytic"]["marginals"]
    config = StringModelConfig(variant=variant, p_w=p_w, p_1=p_1 if variant is Variant.V4 else None)
    residual = marginals(analytic_table(config), 0).max_abs_residual
    assert verdict["violated"] is (residual != 0)
    assert verdict["max_abs_residual"] == float(residual)


ONE_BELOW_1 = math.nextafter(1.0, 0.0)


def draws_of(config, trace):
    """Draws the oracle resolves to ``trace``: 0 for white or string 1, else just below 1."""
    u = [0.0 if color == "white" else ONE_BELOW_1 for color in trace.colors]
    u += [0.0 if s == "string1" else ONE_BELOW_1 for s in trace.selections or ()]
    bf = trace.break_fraction
    return u + [bf if bf is not None and bf not in (0.0, 1.0) else 0.0]


def test_replay_across_a_block_boundary_matches_the_oracle():
    config = StringModelConfig(variant=Variant.V4, p_w=0.4, p_1=0.3)
    for setting in SETTINGS:
        replayed = list(iter_trials(config, setting, 5, 7, start=TRIAL_BLOCK - 3))
        tail = list(iter_trials(config, setting, 5, 3, start=TRIAL_BLOCK - 3))
        head = list(iter_trials(config, setting, 5, 4, start=TRIAL_BLOCK))
        assert replayed == tail + head
        for pair, trace in replayed:
            assert oracle_trial(config, setting, draws_of(config, trace)) == (pair, trace)


@pytest.mark.parametrize("v", [None, ONE_BELOW_1], ids=["drawn", "one-below-1"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_the_trace_break_agrees_with_the_sampler_cut(variant, v):
    # With v just below 1, 1 + v rounds up to 2; the break must still stay
    # below (b + 1) / 2.
    white_string = variant in (Variant.V1, Variant.V1_PRE_BROKEN)
    config = StringModelConfig(variant=variant, p_w=None if white_string else 0.3, p_1=0.7)
    n = 3000
    patch = contextlib.nullcontext()
    if v is not None:
        patch = mock.patch.object(strings, "block_uniforms", lambda *args: np.full(n, v))
    for si, setting in enumerate(SETTINGS):
        block = Block(8, DOMAIN_STRING_TRIALS, si, 0, n)
        events = strings._events(config, setting, block, trace=True)
        with patch:
            traces = [trace for _, trace in iter_trials(config, setting, 8, n)]
        if events.cut is None:
            continue
        # The cut bit is the top bit of the cut column's U: plane 0.
        planes = rng.bit_stream(8, DOMAIN_STRING_TRIALS, si, 0, draws_per_trial(variant) - 1).random_raw(1024)
        cut_bits = np.unpackbits(planes.astype("<u8").view(np.uint8), bitorder="little")[:n].tolist()
        shared = np.ones(n, bool) if events.sel_a is None else ~block.unpack(events.sel_a ^ events.sel_b)
        for trace, alice_long, same, b in zip(traces, block.unpack(events.cut).tolist(), shared.tolist(), cut_bits):
            if not same:
                assert trace.break_fraction is None
                continue
            assert b / 2 <= trace.break_fraction < (b + 1) / 2
            assert (trace.break_fraction >= 0.5) == alice_long == bool(b)

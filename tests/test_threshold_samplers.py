"""The three samplers on the shared trial-block driver, as threshold events.

``collapse_counts`` and ``sample_collapse`` put the break on the + side iff
u < F(p+); ``quantum.sample_table`` picks the cell as the number of a row's
cumulative thresholds that are <= u; ``estimate_table`` runs the string
kernel.  Crafted draw rows (every threshold and the float just below it) are
fed by patching ``entangle_lab.rng.block_column``, and each sampler is
checked row by row against an independent rule written out here.  All three
must give identical counts for any number of workers.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_lab.bloch import BreakDistribution, MeasurementFrame, collapse_counts, outcome_probabilities, sample_collapse
from entangle_lab.probability import ExperimentTable, JointDistribution
from entangle_lab.quantum import coplanar_axes, sample_table, singlet_state, table_for_axes
from entangle_lab.rng import TRIAL_BLOCK
from entangle_lab.strings import StringModelConfig, Variant, analytic_table, estimate_table

property_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None)

Z_FRAME = MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))
ONE_BELOW_1 = math.nextafter(1.0, 0.0)


def feeding(rows):
    """Patch the driver's draws so that every block starts with ``rows``."""
    u = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    return mock.patch("entangle_lab.rng.block_column", lambda seed, domain, si, block, j, n, out=None: u[:n, j])


class FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def parent_measure_from_uniform(weights, u):
    """The break position of the previous sampler: cumsum, searchsorted, rescale."""
    if weights is None:
        return u
    cum = np.cumsum(weights)
    k = min(int(np.searchsorted(cum, u, side="right")), weights.size - 1)
    lower = cum[k - 1] if k > 0 else 0.0
    width = weights[k]
    frac = (u - lower) / width if width > 0 else 0.0
    return (k + frac) / weights.size


def with_ulp_below(values):
    points = {v for v in values if 0.0 <= v < 1.0}
    points |= {math.nextafter(v, 0.0) for v in values if 0.0 < v <= 1.0}
    return sorted(points)


def geometry(costheta):
    return np.array([math.sqrt(max(0.0, 1.0 - costheta * costheta)), 0.0, costheta])


weight_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.sampled_from([5e-324, 1e-300])), min_size=1, max_size=8
).filter(lambda w: sum(w) > 0)
distributions = st.one_of(st.just(None), weight_lists.map(lambda w: np.asarray(w) / math.fsum(w)))
costhetas = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, 0.5, -0.5]), st.floats(-1.0, 1.0))


@property_settings
@given(weights=distributions, costheta=costhetas, data=st.data())
def test_collapse_is_one_threshold_event_row_by_row(weights, costheta, data):
    dist = BreakDistribution(weights=weights)
    r = geometry(costheta)
    p_plus, _ = outcome_probabilities(r, Z_FRAME)
    threshold = dist.plus_probability(p_plus)
    cells = [] if weights is None else np.cumsum(weights).tolist()
    edges = with_ulp_below([threshold, p_plus, 0.0, 1.0, *cells])
    draws = edges + data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))

    for u in draws:
        outcome, lam = sample_collapse(r, Z_FRAME, dist, FixedDraw(u))
        with feeding([u]):
            counts = collapse_counts(r, Z_FRAME, dist, 1, 0)
        assert counts == ((1, 0) if outcome == 1 else (0, 1))
        assert outcome == (1 if u < threshold else -1)
        m = parent_measure_from_uniform(weights, u)
        assert lam == 2.0 * m - 1.0
        if abs(u - threshold) > 1e-12:
            assert outcome == (1 if m < p_plus else -1)

    with feeding(draws):
        n_plus, n_minus = collapse_counts(r, Z_FRAME, dist, len(draws), 0)
    assert n_plus == sum(1 for u in draws if u < threshold)
    assert n_plus + n_minus == len(draws)

    if threshold < 1.0:
        assert sample_collapse(r, Z_FRAME, dist, FixedDraw(threshold))[0] == -1
    if threshold > 0.0:
        assert sample_collapse(r, Z_FRAME, dist, FixedDraw(math.nextafter(threshold, 0.0)))[0] == 1


@pytest.mark.parametrize("weights", [None, [0.5, 0.0, 0.5], [0.0, 0.0, 0.9, 0.1]])
def test_eigenstates_never_collapse_the_other_way(weights):
    dist = BreakDistribution(weights=None if weights is None else np.asarray(weights))
    draws = [0.0, 0.5, ONE_BELOW_1]
    for costheta, expected in ((1.0, (3, 0)), (-1.0, (0, 3))):
        with feeding(draws):
            assert collapse_counts(geometry(costheta), Z_FRAME, dist, 3, 0) == expected


def first_cell_below(row, u):
    """The cell a draw picks: the first whose cumulative share exceeds u."""
    total = sum(row)
    running = 0.0
    for cell, p in enumerate(row[:3]):
        running += p
        if u < running / total:
            return cell
    return 3


probability_rows = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=4, max_size=4
).filter(lambda row: sum(row) > 0).map(lambda row: [p / math.fsum(row) for p in row])


@property_settings
@given(rows=st.lists(probability_rows, min_size=4, max_size=4), data=st.data())
def test_quantum_cell_is_the_count_of_thresholds_at_or_below_the_draw(rows, data):
    table = ExperimentTable(*(JointDistribution(*row) for row in rows))
    rows = [[float(p) for p in dist.probabilities()] for _, dist in table.rows()]
    for si, row in enumerate(rows):
        cumulative = np.cumsum(row)
        edges = with_ulp_below([*(cumulative[:3] / cumulative[3]).tolist(), 0.0, 1.0])
        draws = edges + data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10))
        for u in draws:
            with feeding([u]):
                _, counts = sample_table(table, 1, 0)
            cell = list(counts.values())[si].index(1)
            assert 0 <= cell <= 3
            assert row[cell] > 0
            assert cell == first_cell_below(row, u)


def test_singlet_at_zero_angle_never_agrees():
    table = table_for_axes(singlet_state(), coplanar_axes(0.0))
    draws = with_ulp_below([0.0, 0.25, 0.5, 0.75, 1.0])
    with feeding(draws):
        _, counts = sample_table(table, len(draws), 0)
    for label in ("AB", "A'B'"):
        assert counts[label][0] == counts[label][3] == 0
    _, counts = sample_table(table, 3 * TRIAL_BLOCK + 5, 17)
    for label in ("AB", "A'B'"):
        assert counts[label][0] == counts[label][3] == 0
        assert sum(counts[label]) == 3 * TRIAL_BLOCK + 5


N_BLOCKS = 3 * TRIAL_BLOCK + 5


@pytest.mark.parametrize("weights", [None, [0.1, 0.0, 0.6, 0.3]])
def test_collapse_counts_do_not_depend_on_workers(weights):
    dist = BreakDistribution(weights=None if weights is None else np.asarray(weights))
    r = geometry(0.3)
    counts = [collapse_counts(r, Z_FRAME, dist, N_BLOCKS, 29, workers=w) for w in (1, 2, 3)]
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[0]) == N_BLOCKS


def test_quantum_counts_do_not_depend_on_workers():
    table = table_for_axes(singlet_state(), coplanar_axes(math.pi / 4))
    results = [sample_table(table, N_BLOCKS, 31, workers=w) for w in (1, 2, 3)]
    assert results[0][1] == results[1][1] == results[2][1]
    assert results[0][0] == results[1][0] == results[2][0]
    assert all(sum(cells) == N_BLOCKS for cells in results[0][1].values())


def test_quantum_sampler_accepts_exact_tables():
    exact = analytic_table(StringModelConfig(Variant.V1_PRE_BROKEN))
    _, counts = sample_table(exact, 1000, 3)
    for (label, dist), cells in zip(exact.rows(), counts.values()):
        assert all(c == 0 for c, p in zip(cells, dist.probabilities()) if p == 0), label


STRING_CONFIGS = {
    "v1": StringModelConfig(Variant.V1),
    "v1pre": StringModelConfig(Variant.V1_PRE_BROKEN),
    "v2": StringModelConfig(Variant.V2, p_w=0.3),
    "v3": StringModelConfig(Variant.V3, p_w=0.7),
    "v4": StringModelConfig(Variant.V4, p_w=0.4, p_1=0.3),
}

# estimate_table counts of 2 * TRIAL_BLOCK + 7 trials per setting in stream
# format 4, where every (setting, block, column) has its own substream.
STRING_COUNTS = {
    ("v1", 0): [[0, 65628, 65451, 0], [131079, 0, 0, 0], [131079, 0, 0, 0], [131079, 0, 0, 0]],
    ("v1pre", 0): [[0, 65628, 65451, 0], [65455, 0, 65624, 0], [65419, 65660, 0, 0], [131079, 0, 0, 0]],
    ("v2", 0): [[0, 65628, 65451, 0], [39260, 91819, 0, 0], [39119, 0, 91960, 0], [39373, 0, 0, 91706]],
    ("v3", 0): [[0, 65536, 65543, 0], [91744, 0, 0, 39335], [91736, 0, 0, 39343], [92047, 0, 0, 39032]],
    ("v4", 0): [[8823, 51212, 51126, 19918], [39386, 13035, 13336, 65322], [38981, 13345, 13296, 65457], [39438, 13224, 13222, 65195]],
    ("v1", 13): [[0, 65395, 65684, 0], [131079, 0, 0, 0], [131079, 0, 0, 0], [131079, 0, 0, 0]],
    ("v1pre", 13): [[0, 65395, 65684, 0], [65543, 0, 65536, 0], [65564, 65515, 0, 0], [131079, 0, 0, 0]],
    ("v2", 13): [[0, 65395, 65684, 0], [39229, 91850, 0, 0], [39374, 0, 91705, 0], [39183, 0, 0, 91896]],
    ("v3", 13): [[0, 65363, 65716, 0], [91428, 0, 0, 39651], [91861, 0, 0, 39218], [91527, 0, 0, 39552]],
    ("v4", 13): [[8938, 51171, 51213, 19757], [38949, 13338, 13337, 65455], [39304, 13212, 13256, 65307], [39309, 13103, 13147, 65520]],
    ("v1", 2**64 - 1): [[0, 65617, 65462, 0], [131079, 0, 0, 0], [131079, 0, 0, 0], [131079, 0, 0, 0]],
    ("v1pre", 2**64 - 1): [[0, 65617, 65462, 0], [65154, 0, 65925, 0], [65833, 65246, 0, 0], [131079, 0, 0, 0]],
    ("v2", 2**64 - 1): [[0, 65617, 65462, 0], [39488, 91591, 0, 0], [39400, 0, 91679, 0], [39263, 0, 0, 91816]],
    ("v3", 2**64 - 1): [[0, 65554, 65525, 0], [92090, 0, 0, 38989], [91840, 0, 0, 39239], [91766, 0, 0, 39313]],
    ("v4", 2**64 - 1): [[8734, 51123, 51308, 19914], [39379, 13312, 13279, 65109], [39211, 13302, 13239, 65327], [39227, 13302, 13227, 65323]],
}


@pytest.mark.parametrize("variant, seed", sorted(STRING_COUNTS))
def test_string_counts_are_unchanged_for_any_workers(variant, seed):
    for workers in (1, 2, 3):
        _, counts = estimate_table(STRING_CONFIGS[variant], 2 * TRIAL_BLOCK + 7, seed, workers=workers)
        assert [list(cells) for cells in counts.values()] == STRING_COUNTS[variant, seed]

"""The three samplers on the shared trial-block driver, as threshold events.

``collapse_counts`` puts the break on the + side iff the draw is below
F(p+); ``quantum.sample_table`` collapses Alice on her marginal and then
Bob on the conditional given her outcome; ``estimate_table`` runs the
string kernel.  Crafted 64-bit draws (every
threshold and the float just below it) are fed by patching
``entangle_lab.rng.bit_stream`` (see ``byte_streams``), and each sampler is
checked trial by trial against an independent rule written out here.  All
three must give identical counts for any number of workers, and the string
counts are recounted from the substreams by a rule written out apart from
the package.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byte_streams import feeding, from_float, key, quantized
from entangle_lab.bloch import BreakDistribution, MeasurementFrame, collapse_counts, outcome_probabilities
from entangle_lab.probability import ExperimentTable, JointDistribution
from entangle_lab.quantum import coplanar_axes, sample_table, singlet_state, table_for_axes
from entangle_lab.rng import TRIAL_BLOCK
from entangle_lab.strings import StringModelConfig, Variant, analytic_table, estimate_table

property_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None)

Z_FRAME = MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))
ONE_BELOW_1 = math.nextafter(1.0, 0.0)


def feeding_one_column(draws, threshold):
    """Column 0 of every block reads the float ``draws``, tested at ``threshold``."""
    return feeding({0: [from_float(u) for u in draws]}, lambda si, column: key(threshold))


def break_measure(weights, u):
    """The break position, in uniform measure, that a draw u gives under the cell weights: the inverse CDF."""
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
    # On a multiple of 2**-64, the float test u < F and the plane rule agree.
    draws = [quantized(u) for u in draws]

    for u in draws:
        with feeding_one_column([u], threshold):
            counts = collapse_counts(r, Z_FRAME, dist, 1, 0)
        assert counts == ((1, 0) if u < threshold else (0, 1))
        m = break_measure(weights, u)
        if abs(u - threshold) > 1e-12:
            assert counts == ((1, 0) if m < p_plus else (0, 1))

    with feeding_one_column(draws, threshold):
        n_plus, n_minus = collapse_counts(r, Z_FRAME, dist, len(draws), 0)
    assert n_plus == sum(1 for u in draws if u < threshold)
    assert n_plus + n_minus == len(draws)


@pytest.mark.parametrize("weights", [None, [0.5, 0.0, 0.5], [0.0, 0.0, 0.9, 0.1]])
def test_eigenstates_never_collapse_the_other_way(weights):
    dist = BreakDistribution(weights=None if weights is None else np.asarray(weights))
    draws = [0.0, 0.5, ONE_BELOW_1]
    for costheta, expected in ((1.0, (3, 0)), (-1.0, (0, 3))):
        with feeding_one_column(draws, 1.0 if costheta > 0 else 0.0):
            assert collapse_counts(geometry(costheta), Z_FRAME, dist, 3, 0) == expected


def two_collapses(row):
    """(P(A+), P(B+ | A-), P(B+ | A+)) of a row, each conditional 0 where its outcome is impossible."""
    pp, pm, mp, mm = row
    alice = (pp + pm) / ((pp + pm) + (mp + mm))
    return alice, (mp / (mp + mm) if mp + mm > 0 else 0.0), (pp / (pp + pm) if pp + pm > 0 else 0.0)


def quantum_feeding(rows, u_alice, u_bob):
    """Columns 0 and 1 read ``u_alice`` and ``u_bob``; Bob's K follows Alice's event per setting."""
    alice_words, bob_words = [from_float(u) for u in u_alice], [from_float(u) for u in u_bob]

    def keys(si, column):
        alice, given_minus, given_plus = two_collapses(rows[si])
        if column == 0:
            return key(alice)
        return [key(given_plus if u < key(alice) else given_minus) for u in alice_words]

    return feeding({0: alice_words, 1: bob_words}, keys)


probability_rows = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=4, max_size=4
).filter(lambda row: sum(row) > 0).map(lambda row: [p / math.fsum(row) for p in row])


@property_settings
@given(rows=st.lists(probability_rows, min_size=4, max_size=4), data=st.data())
def test_quantum_trial_is_two_sequential_collapses(rows, data):
    table = ExperimentTable(*(JointDistribution(*row) for row in rows))
    rows = [[float(p) for p in dist.probabilities()] for _, dist in table.rows()]
    edges = with_ulp_below([0.0, 1.0, *(p for row in rows for p in two_collapses(row))])
    pairs = list(zip(edges, edges)) + list(zip(edges, edges[::-1]))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    pairs += data.draw(st.lists(st.tuples(unit, unit), max_size=10))
    pairs = [(quantized(u), quantized(v)) for u, v in pairs]
    for u, v in pairs:
        with quantum_feeding(rows, [u], [v]):
            _, counts = sample_table(table, 1, 0)
        for row, cells in zip(rows, counts.values()):
            alice, given_minus, given_plus = two_collapses(row)
            a_plus = u < alice
            b_plus = v < (given_plus if a_plus else given_minus)
            cell = (0 if a_plus else 2) + (0 if b_plus else 1)
            assert list(cells) == [int(i == cell) for i in range(4)]
            assert row[cell] > 0  # a zero-probability cell is never drawn
    with quantum_feeding(rows, *zip(*pairs)):
        _, counts = sample_table(table, len(pairs), 0)
    assert all(sum(cells) == len(pairs) for cells in counts.values())


def test_singlet_at_zero_angle_never_agrees():
    table = table_for_axes(singlet_state(), coplanar_axes(0.0))
    rows = [[float(p) for p in dist.probabilities()] for _, dist in table.rows()]
    draws = [quantized(u) for u in with_ulp_below([0.0, 0.25, 0.5, 0.75, 1.0])]
    with quantum_feeding(rows, draws, draws[::-1]):
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
# format 6, where every threshold test reads bit planes of its column's
# substream; test_string_counts_follow_the_written_out_format recounts them.
STRING_COUNTS = {
    ("v1", 0): [[0, 65891, 65188, 0], [131079, 0, 0, 0], [131079, 0, 0, 0], [131079, 0, 0, 0]],
    ("v1pre", 0): [[0, 65891, 65188, 0], [65328, 0, 65751, 0], [65644, 65435, 0, 0], [131079, 0, 0, 0]],
    ("v2", 0): [[0, 65891, 65188, 0], [39228, 91851, 0, 0], [39229, 0, 91850, 0], [39107, 0, 0, 91972]],
    ("v3", 0): [[0, 65679, 65400, 0], [91574, 0, 0, 39505], [91846, 0, 0, 39233], [91515, 0, 0, 39564]],
    ("v4", 0): [[8742, 51108, 51297, 19932], [39297, 13229, 13300, 65253], [39316, 13495, 13132, 65136], [38985, 13294, 13149, 65651]],
    ("v1", 13): [[0, 65519, 65560, 0], [131079, 0, 0, 0], [131079, 0, 0, 0], [131079, 0, 0, 0]],
    ("v1pre", 13): [[0, 65519, 65560, 0], [65736, 0, 65343, 0], [65034, 66045, 0, 0], [131079, 0, 0, 0]],
    ("v2", 13): [[0, 65519, 65560, 0], [39252, 91827, 0, 0], [39367, 0, 91712, 0], [39290, 0, 0, 91789]],
    ("v3", 13): [[0, 65741, 65338, 0], [91619, 0, 0, 39460], [91775, 0, 0, 39304], [91728, 0, 0, 39351]],
    ("v4", 13): [[8874, 51305, 51057, 19843], [39080, 13343, 13131, 65525], [38910, 13302, 13177, 65690], [39302, 13193, 13164, 65420]],
    ("v1", 2**64 - 1): [[0, 65528, 65551, 0], [131079, 0, 0, 0], [131079, 0, 0, 0], [131079, 0, 0, 0]],
    ("v1pre", 2**64 - 1): [[0, 65528, 65551, 0], [65527, 0, 65552, 0], [65456, 65623, 0, 0], [131079, 0, 0, 0]],
    ("v2", 2**64 - 1): [[0, 65528, 65551, 0], [39539, 91540, 0, 0], [39225, 0, 91854, 0], [39225, 0, 0, 91854]],
    ("v3", 2**64 - 1): [[0, 65314, 65765, 0], [91927, 0, 0, 39152], [91661, 0, 0, 39418], [92029, 0, 0, 39050]],
    ("v4", 2**64 - 1): [[8908, 51290, 50912, 19969], [39500, 13112, 13223, 65244], [39412, 13381, 13015, 65271], [39060, 13359, 13374, 65286]],
}


@pytest.mark.parametrize("variant, seed", sorted(STRING_COUNTS))
def test_string_counts_are_unchanged_for_any_workers(variant, seed):
    for workers in (1, 2, 3):
        _, counts = estimate_table(STRING_CONFIGS[variant], 2 * TRIAL_BLOCK + 7, seed, workers=workers)
        assert [list(cells) for cells in counts.values()] == STRING_COUNTS[variant, seed]


def written_out_events(seed, si, block, column, rows, p):
    """Format 6 restated: SHA-256 path keys as SFC64 states, bit planes at a stride of 1024 words, tie words after 8 planes.

    Trial r's top byte is assembled from bit r of planes 0 to 7 (plane 0 the
    most significant) and compared with K's; the k-th trial whose byte ties
    with a K that has nonzero low 56 bits decides on word 8192 + k.
    """
    if p in (0, 1):
        return np.full(rows, p == 1)
    payload = b"entangle-lab/1:" + seed.to_bytes(8, "little")
    payload += b"".join(part.to_bytes(8, "little", signed=True) for part in (1, si, block, column))
    bit_generator = np.random.SFC64()
    state = np.frombuffer(hashlib.sha256(payload).digest(), dtype="<u8").astype(np.uint64)
    bit_generator.state = {"bit_generator": "SFC64", "state": {"state": state}, "has_uint32": 0, "uinteger": 0}
    words = bit_generator.random_raw(8192 + rows)  # more than enough tie words
    top = np.zeros(rows, dtype=np.int64)
    for j in range(8):
        plane = np.frombuffer(words[1024 * j: 1024 * j + -(-rows // 64)].astype("<u8").tobytes(), np.uint8)
        top |= np.unpackbits(plane, bitorder="little")[:rows].astype(np.int64) << (7 - j)
    k = key(p)
    events = top < k >> 56
    if k % 2**56:
        for rank, t in enumerate(np.flatnonzero(top == k >> 56)):
            events[t] = int(words[8192 + rank]) >> 8 < k % 2**56
    return events


def written_out_counts(config, seed, n_trials):
    """Every setting's four cells from the events, with the outcome rule of PAPER.md written out."""
    v4 = config.variant is Variant.V4
    last = 4 if v4 else 1
    rows_out = []
    for si, (alice_pulls, bob_pulls) in enumerate(((True, True), (True, False), (False, True), (False, False))):
        cells = np.zeros(4, dtype=np.int64)
        for block in range(-(-n_trials // TRIAL_BLOCK)):
            rows = min(TRIAL_BLOCK, n_trials - block * TRIAL_BLOCK)
            event = lambda column, p: written_out_events(seed, si, block, column, rows, float(p))  # noqa: E731
            white = [event(j, config.p_w) for j in range(2 if v4 else 1)]
            alice_on_1 = event(2, config.p_1) if v4 else np.ones(rows, bool)
            bob_on_1 = event(3, config.p_1) if v4 else np.ones(rows, bool)
            alice_white = np.where(alice_on_1, white[0], white[-1])
            bob_white = np.where(bob_on_1, white[0], white[-1])
            alice_long_at_cut = ~event(last, 0.5)
            shared = alice_on_1 == bob_on_1
            if alice_pulls and bob_pulls:
                alice_long = alice_long_at_cut | ~shared
                bob_long = ~alice_long_at_cut | ~shared
            elif config.variant is Variant.V1_PRE_BROKEN:
                alice_long, bob_long = alice_long_at_cut, ~alice_long_at_cut
            else:
                alice_long = bob_long = np.ones(rows, bool)
            parity = config.variant in (Variant.V3, Variant.V4)
            a_plus = (alice_long == alice_white if parity else alice_long) if alice_pulls else alice_white
            b_plus = (bob_long == bob_white if parity else bob_long) if bob_pulls else bob_white
            cells += np.bincount(2 * ~a_plus + ~b_plus, minlength=4)
        rows_out.append(cells.tolist())
    return rows_out


def test_string_counts_follow_the_written_out_format():
    for variant, seed in sorted(STRING_COUNTS):
        assert written_out_counts(STRING_CONFIGS[variant], seed, 2 * TRIAL_BLOCK + 7) == STRING_COUNTS[variant, seed]

"""Tests for the collapse mechanism, universal averages and the 15-dim decomposition."""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byte_streams import feeding, from_float, key
from entangle_lab import bloch
from entangle_lab.bloch import (
    AVERAGE_BLOCK_FLOATS,
    BlochVector15,
    BreakDistribution,
    MeasurementFrame,
    bloch_vector,
    collapse_counts,
    decohere,
    decompose,
    lambda_basis,
    outcome_probabilities,
    rank_one_residual,
    reconstruct,
    universal_average,
)
from entangle_lab.probability import InvariantViolation
from entangle_lab.quantum import (
    joint_probabilities,
    maximally_mixed_state,
    product_state,
    projector,
    qubit_state,
    singlet_state,
    unit_axis,
)
from entangle_lab.rng import DOMAIN_BLOCH_AVERAGE, MAX_BLOCKS, bit_stream

Z_FRAME = MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def spinor(v):
    """State vector of the pure qubit state with Bloch vector v (unit norm)."""
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    phi = math.atan2(v[1], v[0])
    return np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])


def born_oracle(r, n_plus):
    """Independent 2x2 complex-algebra oracle: |<+-_n|psi_r>|^2."""
    psi = spinor(r)
    p_plus = abs(np.vdot(spinor(n_plus), psi)) ** 2
    p_minus = abs(np.vdot(spinor(-np.asarray(n_plus)), psi)) ** 2
    return p_plus, p_minus


class TestDecohere:
    def test_path_start_is_the_state(self):
        rng = np.random.default_rng(1)
        r = random_unit(rng)
        np.testing.assert_allclose(decohere(r, Z_FRAME, 0.0), r, atol=1e-15)

    def test_eigenstate_is_fixed(self):
        n = Z_FRAME.n_plus
        np.testing.assert_allclose(decohere(n, Z_FRAME, 1.0), n, atol=1e-15)
        np.testing.assert_allclose(decohere(-n, Z_FRAME, 1.0), -n, atol=1e-15)

    def test_orthogonal_state_lands_at_the_origin(self):
        r = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(decohere(r, Z_FRAME, 1.0), np.zeros(3), atol=1e-15)

    def test_affine_in_tau(self):
        rng = np.random.default_rng(2)
        r = random_unit(rng)
        start = decohere(r, Z_FRAME, 0.0)
        end = decohere(r, Z_FRAME, 1.0)
        for tau in (0.25, 0.5, 0.9):
            np.testing.assert_allclose(
                decohere(r, Z_FRAME, tau), (1 - tau) * start + tau * end, atol=1e-14
            )

    def test_lands_on_the_diameter(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = random_unit(rng)
            n = random_unit(rng)
            landed = decohere(r, MeasurementFrame(n_plus=n), 1.0)
            assert np.linalg.norm(np.cross(landed, n)) < 1e-12

    @pytest.mark.parametrize("tau", (-0.1, 1.1))
    def test_rejects_tau_outside_unit_interval(self, tau):
        with pytest.raises(ValueError):
            decohere(np.array([0.0, 0.0, 1.0]), Z_FRAME, tau)


class TestOutcomeProbabilities:
    def test_eigenstate(self):
        assert outcome_probabilities(Z_FRAME.n_plus, Z_FRAME) == (1.0, 0.0)

    def test_orthogonal_state(self):
        assert outcome_probabilities(np.array([1.0, 0.0, 0.0]), Z_FRAME) == (0.5, 0.5)

    def test_cosine_law(self):
        for theta in (0.1, 0.7, 2.0, 3.0):
            r = np.array([math.sin(theta), 0.0, math.cos(theta)])
            p_plus, p_minus = outcome_probabilities(r, Z_FRAME)
            assert abs(p_plus - (1 + math.cos(theta)) / 2) < 1e-14
            assert abs(p_minus - (1 - math.cos(theta)) / 2) < 1e-14

    def test_matches_spinor_born_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            r = random_unit(rng)
            n = random_unit(rng)
            computed = outcome_probabilities(r, MeasurementFrame(n_plus=n))
            expected = born_oracle(r, n)
            worst = max(worst, abs(computed[0] - expected[0]), abs(computed[1] - expected[1]))
        assert worst < 1e-12

    def test_rejects_overlong_state(self):
        with pytest.raises(InvariantViolation):
            outcome_probabilities(np.array([0.0, 0.0, 1.5]), Z_FRAME)
        with pytest.raises(InvariantViolation):
            bloch_vector([1.0, 1.0, 1.0])


class TestBreakDistribution:
    def test_uniform_plus_probability_is_exact(self):
        dist = BreakDistribution()
        for p in (0.0, 0.25, 0.6180339887, 1.0):
            assert dist.plus_probability(p) == p

    def test_the_uniform_distribution_is_one_cell(self):
        for dist in (BreakDistribution(), BreakDistribution(weights=None)):
            assert dist.weights.tolist() == [1.0]

    def test_single_cell_equals_uniform(self):
        dist = BreakDistribution([1.0])
        for p in (0.1, 0.5, 0.9):
            assert dist.plus_probability(p) == p

    def test_clipped_overlap_hand_case(self):
        dist = BreakDistribution([0.1, 0.2, 0.3, 0.4])
        # split at measure 0.6: cells 0,1 inside, cell 2 covered 40%, cell 3 outside
        assert abs(dist.plus_probability(0.6) - 0.42) < 1e-15

    def test_exact_probability_matches_sampling(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            raw = rng.random(8)
            dist = BreakDistribution(raw / raw.sum())
            p_plus = 0.65
            r = np.array([math.sqrt(1 - (2 * p_plus - 1) ** 2), 0.0, 2 * p_plus - 1])
            n = 200_000
            n_plus, _ = collapse_counts(r, Z_FRAME, dist, n, 5)
            assert abs(n_plus / n - dist.plus_probability(p_plus)) < 4 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            BreakDistribution([0.5, 0.4])
        with pytest.raises(InvariantViolation):
            BreakDistribution([1.5, -0.5])
        with pytest.raises(ValueError):
            BreakDistribution([])

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError) as info:
            BreakDistribution([bad, 1.0])
        assert not isinstance(info.value, InvariantViolation)

    def test_weights_whose_sum_overflows_are_refused_without_a_warning(self):
        with pytest.raises(InvariantViolation, match="cell weights sum to inf, not 1"):
            BreakDistribution([1e308, 1e308])

    def test_rejects_non_finite_vectors(self):
        with pytest.raises(ValueError):
            bloch_vector([math.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            MeasurementFrame(n_plus=np.array([0.0, math.nan, 1.0]))


class TestSampleCollapse:
    """Collapses sampled by ``collapse_counts``, some on crafted draws fed as bit planes."""

    def test_eigenstate_always_collapses_up(self):
        weird = BreakDistribution([0.0, 0.0, 0.9, 0.1])
        for dist in (BreakDistribution(), weird):
            assert collapse_counts(Z_FRAME.n_plus, Z_FRAME, dist, 3 * 64 + 5, 1) == (3 * 64 + 5, 0)

    def test_point_mass_inside_the_plus_segment(self):
        # p_plus = 0.75; cell [0.25, 0.5) of 4 lies wholly inside [0, 0.75)
        r = np.array([math.sqrt(1 - 0.25), 0.0, 0.5])
        dist = BreakDistribution([0.0, 1.0, 0.0, 0.0])
        assert collapse_counts(r, Z_FRAME, dist, 200, 2) == (200, 0)

    def test_break_at_the_split_point_goes_minus(self):
        # engineered: p_plus = 0.5 and a draw exactly at measure 0.5; the float below it goes plus
        r = np.array([1.0, 0.0, 0.0])
        for u, expected in ((0.5, (0, 1)), (math.nextafter(0.5, 0.0), (1, 0))):
            with feeding({0: [from_float(u)]}, lambda si, column: key(0.5)):
                assert collapse_counts(r, Z_FRAME, BreakDistribution(), 1, 0) == expected

    def test_uniform_frequencies_converge_to_born(self):
        r = np.array([math.sqrt(1 - 0.25), 0.0, 0.5])
        n = 200_000
        n_plus, _ = collapse_counts(r, Z_FRAME, BreakDistribution(), n, 11)
        assert abs(n_plus / n - 0.75) < 4 / math.sqrt(n)

    def test_uniform_frequencies_track_born_over_many_geometries(self):
        rng = np.random.default_rng(21)
        n = 10**6
        for case in range(20):
            r = random_unit(rng)
            frame = MeasurementFrame(n_plus=random_unit(rng))
            born_plus, _ = outcome_probabilities(r, frame)
            n_plus, _ = collapse_counts(r, frame, BreakDistribution(), n, 400 + case)
            assert abs(n_plus / n - born_plus) < 4 / math.sqrt(n)

    def test_rejects_non_positive_sample_count(self):
        with pytest.raises(ValueError):
            collapse_counts(Z_FRAME.n_plus, Z_FRAME, BreakDistribution(), 0, 0)


class TestUniversalAverage:
    def test_single_cell_is_exactly_born(self):
        # Besides cos 0.8, the tenths where 1 - p+ is not p- in floats.
        tenths = ([math.sqrt(1.0 - c * c), 0.0, c] for c in (0.1, 0.4, 0.6, 0.9))
        for r in map(np.array, ([0.6, 0.0, 0.8], *tenths)):
            avg = universal_average(r, Z_FRAME, 1, 50, 13)
            assert avg == outcome_probabilities(r, Z_FRAME)

    def test_symmetric_state_averages_to_half(self):
        r = np.array([1.0, 0.0, 0.0])
        avg_plus, avg_minus = universal_average(r, Z_FRAME, 8, 20_000, 14)
        assert abs(avg_plus - 0.5) < 4 / math.sqrt(20_000)
        assert abs(avg_plus + avg_minus - 1.0) < 1e-12

    def test_converges_to_born_for_many_cells(self):
        r = np.array([math.sqrt(1 - 0.25), 0.0, 0.5])
        avg_plus, _ = universal_average(r, Z_FRAME, 16, 20_000, 15)
        assert abs(avg_plus - 0.75) < 0.01

    @pytest.mark.parametrize("cells", [3, 64, 40_000])
    def test_average_is_the_same_for_any_workers(self, cells):
        # 40 000 cells leave 26 distributions per block: 300 of them are 12 blocks.
        r = np.array([math.sqrt(1 - 0.09), 0.0, 0.3])
        results = [universal_average(r, Z_FRAME, cells, 300, 21, workers=w) for w in (1, 2, 3)]
        assert results[0] == results[1] == results[2]

    def test_average_is_the_exact_sum_of_the_block_sums(self):
        # Written out: block b holds the next rows from its own substream, and
        # the average is the exact sum of the blocks' + probability sums.
        r = np.array([math.sqrt(1 - 0.36), 0.0, -0.6])
        cells, n = 1 << 15, 70
        rows = AVERAGE_BLOCK_FLOATS // cells
        overlap = np.clip(outcome_probabilities(r, Z_FRAME)[0] * cells - np.arange(cells), 0.0, 1.0)
        sums = []
        for b in range(-(-n // rows)):
            raw = np.random.Generator(bit_stream(5, DOMAIN_BLOCH_AVERAGE, 0, b)).random((min(rows, n - b * rows), cells))
            sums.append(float(np.sum((raw @ overlap) / raw.sum(axis=1))))
        expected = math.fsum(sums) / n
        assert universal_average(r, Z_FRAME, cells, n, 5) == (expected, 1.0 - expected)
        assert len(sums) == 3

    def test_a_block_stays_within_its_float_bound(self):
        # Blocks of 2**20 // 1000 = 1048 distributions of 1000 cells each.
        tasks = []
        original = bloch.map_blocks

        def recording(block_tasks, fn, *, workers):
            tasks.extend(block_tasks)
            return original(block_tasks, fn, workers=workers)

        with mock.patch.object(bloch, "map_blocks", recording):
            universal_average(Z_FRAME.n_plus, Z_FRAME, 1000, 5000, 1)
        assert tasks == [(0, 1048), (1, 1048), (2, 1048), (3, 1048), (4, 808)]
        assert all(rows * 1000 <= AVERAGE_BLOCK_FLOATS for _, rows in tasks)

    def test_validation(self):
        with pytest.raises(ValueError):
            universal_average(Z_FRAME.n_plus, Z_FRAME, 0, 10, 0)
        with pytest.raises(ValueError):
            universal_average(Z_FRAME.n_plus, Z_FRAME, 4, 0, 0)
        # A distribution of more cells than a block holds floats does not fit in one block.
        with pytest.raises(ValueError, match=r"cells must lie in \[1, 1048576\], got 1048577"):
            universal_average(Z_FRAME.n_plus, Z_FRAME, AVERAGE_BLOCK_FLOATS + 1, 1, 0)

    @pytest.mark.parametrize("cells", [1, 1000, AVERAGE_BLOCK_FLOATS])
    def test_refuses_more_than_max_blocks_before_any_task(self, cells):
        most = MAX_BLOCKS * (AVERAGE_BLOCK_FLOATS // cells)

        def no_tasks(*args, **kwargs):
            raise AssertionError("blocks were mapped")

        with mock.patch.object(bloch, "map_blocks", no_tasks):
            with pytest.raises(ValueError, match=rf"^n_distributions must lie in \[1, {most}\] for {cells} cells"):
                universal_average(Z_FRAME.n_plus, Z_FRAME, cells, most + 1, 0)


class TestLambdaBasis:
    def test_fifteen_generators(self):
        assert len(lambda_basis()) == 15

    def test_traceless_and_hermitian(self):
        for gen in lambda_basis():
            assert abs(np.trace(gen)) < 1e-15
            np.testing.assert_allclose(gen, gen.conj().T, atol=1e-15)

    def test_orthogonality_normalization(self):
        basis = lambda_basis()
        gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
        np.testing.assert_allclose(gram, 2 * np.eye(15), atol=1e-14)

    def test_frozen_ordering(self):
        basis = lambda_basis()
        sx, sz = np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])
        scale = 1 / math.sqrt(2)
        np.testing.assert_allclose(basis[0], scale * np.kron(sx, np.eye(2)), atol=1e-15)
        np.testing.assert_allclose(basis[3], scale * np.kron(np.eye(2), sx), atol=1e-15)
        np.testing.assert_allclose(basis[6], scale * np.kron(sx, sx), atol=1e-15)
        np.testing.assert_allclose(basis[14], scale * np.kron(sz, sz), atol=1e-15)


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


class TestDecompose:
    def test_singlet_blocks(self):
        vec = decompose(singlet_state())
        np.testing.assert_allclose(vec.r_alice, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(vec.r_bob, np.zeros(3), atol=1e-12)
        expected_conn = np.zeros(9)
        expected_conn[[0, 4, 8]] = -1 / math.sqrt(3)  # the sigma_j x sigma_j slots
        np.testing.assert_allclose(vec.r_conn, expected_conn, atol=1e-12)
        assert abs(vec.norm - 1.0) < 1e-10

    def test_maximally_mixed_vanishes(self):
        vec = decompose(maximally_mixed_state())
        np.testing.assert_allclose(vec.r15, np.zeros(15), atol=1e-14)

    def test_local_blocks_match_partial_trace_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            rho = random_density(rng)
            vec = decompose(rho)
            reduced_a = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
            reduced_b = np.einsum("kikj->ij", rho.reshape(2, 2, 2, 2))
            paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
            oracle_a = [np.trace(reduced_a @ s).real for s in paulis]
            oracle_b = [np.trace(reduced_b @ s).real for s in paulis]
            np.testing.assert_allclose(vec.r_alice, oracle_a, atol=1e-12)
            np.testing.assert_allclose(vec.r_bob, oracle_b, atol=1e-12)

    def test_product_states_have_outer_product_connection(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a, b = random_unit(rng), random_unit(rng)
            vec = decompose(product_state(a, b))
            outer = np.outer(a, b).ravel()
            # the constant is fixed by the largest data component, then checked everywhere
            idx = int(np.argmax(np.abs(outer)))
            c = vec.r_conn[idx] / outer[idx]
            np.testing.assert_allclose(vec.r_conn, c * outer, atol=1e-10)
            assert abs(c - 1 / math.sqrt(3)) < 1e-10
            assert abs(vec.norm - 1.0) < 1e-10

    def test_roundtrip_on_random_states(self):
        rng = np.random.default_rng(52)
        for make in (random_density, random_pure):
            for _ in range(50):
                rho = make(rng)
                back = reconstruct(decompose(rho))
                assert np.max(np.abs(back - rho)) < 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_reconstruct_inverts_decompose_on_gaussian_states(self, seed, rank):
        # rho = G G^dagger / tr with a complex Gaussian 4 x rank G: states of every rank.
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        assert np.max(np.abs(reconstruct(decompose(rho)) - rho)) <= 1e-12

    def test_norms_separate_pure_from_mixed(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            assert abs(decompose(random_pure(rng)).norm - 1.0) < 1e-10
            assert decompose(random_density(rng)).norm < 1.0 - 1e-6

    def test_rejects_malformed_states(self):
        with pytest.raises(InvariantViolation):
            decompose(singlet_state() * 2.0)
        bad = singlet_state().copy()
        bad[0, 1] = 1e-3
        with pytest.raises(InvariantViolation):
            decompose(bad)
        with pytest.raises(ValueError):
            decompose(np.eye(2))
        with pytest.raises(InvariantViolation):
            decompose(np.full((4, 4), math.nan, dtype=complex))

    @pytest.mark.parametrize("diagonal", [(1.5, -0.5, 0.0, 0.0), (1.7e308, -1.7e308, 0.5, 0.5)], ids=["small", "huge"])
    def test_rejects_hermitian_unit_trace_matrices_that_are_not_states(self, diagonal):
        with pytest.raises(InvariantViolation, match="not positive semidefinite"):
            decompose(np.diag(np.array(diagonal, dtype=complex)))

    def test_reconstruct_checks_its_input_as_a_bloch_vector15(self):
        with pytest.raises(ValueError, match="r15 must have 15 components, got shape"):
            reconstruct(np.zeros(14))

    def test_vector_views_and_serialization(self):
        vec = decompose(singlet_state())
        data = vec.to_json_dict()
        assert len(data["r15"]) == 15
        assert data["r15"][0:3] == pytest.approx([v / math.sqrt(3) for v in data["r_alice"]])
        assert data["r_conn"] == pytest.approx(list(vec.r15[6:]))
        with pytest.raises(ValueError):
            BlochVector15(r15=np.zeros(14))


class TestRankOneResidual:
    def test_product_connection_is_rank_one(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            vec = decompose(product_state(random_unit(rng), random_unit(rng)))
            assert rank_one_residual(vec.r_conn) < 1e-10

    def test_singlet_connection_is_not(self):
        vec = decompose(singlet_state())
        residual = rank_one_residual(vec.r_conn)
        assert residual > 0.1
        assert abs(residual - math.sqrt(2.0 / 3.0)) < 1e-12


@pytest.mark.parametrize("check", (bloch_vector, qubit_state))
def test_overlong_bloch_vector_message_shows_a_plain_float(check):
    with pytest.raises(InvariantViolation, match=r"^Bloch vector norm 2\.0 exceeds 1$"):
        check([2.0, 0.0, 0.0])


@pytest.mark.parametrize(
    ("check", "message"),
    (
        (unit_axis, "axis norm 2.0 deviates from 1"),
        (lambda v: MeasurementFrame(n_plus=v), "n_plus norm 2.0 deviates from 1"),
        (lambda v: projector(v, 1), "axis norm 2.0 deviates from 1"),
        (lambda v: joint_probabilities(singlet_state(), [v], [[0.0, 0.0, 1.0]]), "axis norm 2.0 deviates from 1"),
    ),
    ids=("unit_axis", "MeasurementFrame", "projector", "joint_probabilities"),
)
def test_non_unit_axis_message_shows_a_plain_float(check, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        check([2.0, 0.0, 0.0])

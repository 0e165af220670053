"""Tests for the singlet reference predictions and CHSH axis scans."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entangle_lab.probability import ExperimentTable, InvariantViolation, JointDistribution, chsh, correlation, marginals
from entangle_lab.quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    AxisQuad,
    axis_in_xz_plane,
    coplanar_axes,
    joint_distribution,
    joint_probabilities,
    maximally_mixed_state,
    product_state,
    projector,
    scan_tsirelson,
    singlet_state,
    table_for_axes,
    unit_axis,
    validate_state,
)

Z = np.array([0.0, 0.0, 1.0])
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def reduced_alice(rho):
    """Partial trace over Bob's side by direct index summation."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho[2 * i + k, 2 * j + k]
    return out


def reduced_bob(rho):
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


class TestSingletState:
    def test_unit_trace_and_purity(self):
        rho = singlet_state()
        assert abs(np.trace(rho) - 1.0) < 1e-15
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-15

    def test_reduced_states_are_maximally_mixed(self):
        rho = singlet_state()
        np.testing.assert_allclose(reduced_alice(rho), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(reduced_bob(rho), np.eye(2) / 2, atol=1e-15)

    def test_invariant_under_subsystem_swap(self):
        rho = singlet_state()
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * j + i, 2 * i + j] = 1.0
        np.testing.assert_allclose(swap @ rho @ swap.T, rho, atol=1e-15)

    def test_passes_validation(self):
        validate_state(singlet_state())


class TestJointDistribution:
    def test_equal_axes_anticorrelate_perfectly(self):
        dist = joint_distribution(singlet_state(), Z, Z)
        np.testing.assert_allclose(
            [float(p) for p in dist.probabilities()], [0.0, 0.5, 0.5, 0.0], atol=1e-14
        )

    def test_eighth_turn_correlation(self):
        dist = joint_distribution(singlet_state(), Z, axis_in_xz_plane(math.pi / 4))
        assert abs(correlation(dist) + math.cos(math.pi / 4)) < 1e-12

    def test_aligned_product_state(self):
        rho = product_state([0, 0, 1], [0, 0, 1])
        dist = joint_distribution(rho, Z, Z)
        np.testing.assert_allclose(
            [float(p) for p in dist.probabilities()], [1.0, 0.0, 0.0, 0.0], atol=1e-14
        )

    def test_singlet_correlation_is_minus_dot_product(self):
        rng = np.random.default_rng(8)
        rho = singlet_state()
        for _ in range(100):
            a, b = random_axis(rng), random_axis(rng)
            e = correlation(joint_distribution(rho, a, b))
            assert abs(e + float(a @ b)) < 1e-12

    def test_rejects_invalid_state(self):
        not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            joint_distribution(not_psd, Z, Z)


class TestChshForAxes:
    def test_reference_angles_reach_minus_tsirelson(self):
        q = chsh(table_for_axes(singlet_state(), coplanar_axes(math.pi / 4)))
        assert abs(q.b_chsh + TWO_SQRT_TWO) < 1e-12
        for other in (q.a_chsh, q.c_chsh, q.d_chsh):
            assert abs(other) < 1e-12

    def test_reference_angle_pattern(self):
        axes = coplanar_axes(math.pi / 4)
        angle = lambda u, v: math.acos(np.clip(u @ v, -1, 1))
        assert abs(angle(axes.a, axes.b) - math.pi / 4) < 1e-12
        assert abs(angle(axes.a, axes.b_prime) - 3 * math.pi / 4) < 1e-12
        assert abs(angle(axes.a_prime, axes.b) - math.pi / 4) < 1e-12
        assert abs(angle(axes.a, axes.a_prime) - math.pi / 2) < 1e-12
        assert abs(angle(axes.b, axes.b_prime) - math.pi / 2) < 1e-12

    def test_all_axes_equal_collapses_to_twice_the_correlation(self):
        rng = np.random.default_rng(31)
        for rho in (singlet_state(), product_state([0.3, 0.1, 0.9] / np.linalg.norm([0.3, 0.1, 0.9]), [0, 1, 0])):
            axis = random_axis(rng)
            quad = AxisQuad(a=axis, a_prime=axis, b=axis, b_prime=axis)
            e = correlation(joint_distribution(rho, axis, axis))
            q = chsh(table_for_axes(rho, quad))
            for value in q.as_tuple():
                assert abs(value - 2 * e) < 1e-12

    def test_maximally_mixed_state_has_no_correlations(self):
        q = chsh(table_for_axes(maximally_mixed_state(), coplanar_axes(math.pi / 4)))
        assert all(abs(v) < 1e-14 for v in q.as_tuple())

    def test_rotational_invariance_of_the_singlet(self):
        rng = np.random.default_rng(12)
        rho = singlet_state()
        base = coplanar_axes(math.pi / 4)
        for _ in range(10):
            rot = random_rotation(rng)
            rotated = AxisQuad(
                a=rot @ base.a, a_prime=rot @ base.a_prime, b=rot @ base.b, b_prime=rot @ base.b_prime
            )
            t1 = table_for_axes(rho, base)
            t2 = table_for_axes(rho, rotated)
            for (_, d1), (_, d2) in zip(t1.rows(), t2.rows()):
                np.testing.assert_allclose(
                    [float(p) for p in d1.probabilities()],
                    [float(p) for p in d2.probabilities()],
                    atol=1e-10,
                )


class TestNoSignaling:
    def test_singlet_marginals_are_half_for_random_axis_quads(self):
        rng = np.random.default_rng(77)
        rho = singlet_state()
        for _ in range(20):
            quad = AxisQuad(
                a=random_axis(rng), a_prime=random_axis(rng), b=random_axis(rng), b_prime=random_axis(rng)
            )
            report = marginals(table_for_axes(rho, quad), 1e-12)
            assert report.max_abs_residual < 1e-12
            for comparison in report.comparisons:
                assert abs(comparison.first - 0.5) < 1e-12


class TestScan:
    def test_known_grid_points(self):
        rho = singlet_state()
        results = dict(scan_tsirelson(rho, [0.0, math.pi / 4, math.pi / 2]))
        assert abs(results[0.0] - 2.0) < 1e-12
        assert abs(results[math.pi / 4] - TWO_SQRT_TWO) < 1e-12
        assert abs(results[math.pi / 2] - 2.0) < 1e-12

    def test_never_exceeds_the_quantum_bound(self):
        rho = singlet_state()
        for _, value in scan_tsirelson(rho, np.linspace(0.0, math.pi, 1001)):
            assert value <= TWO_SQRT_TWO + 1e-9

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            scan_tsirelson(singlet_state(), [])


class TestValidation:
    def test_unit_axis(self):
        with pytest.raises(InvariantViolation):
            unit_axis([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            unit_axis([1.0, 0.0])

    @pytest.mark.parametrize("sign", [0, 2, 1.5])
    def test_projector_sign_must_be_one_or_minus_one(self, sign):
        with pytest.raises(ValueError, match=rf"sign must be \+1 or -1, got {sign}"):
            projector(Z, sign)

    def test_projector_completeness(self):
        rng = np.random.default_rng(4)
        n = random_axis(rng)
        plus, minus = projector(n, 1), projector(n, -1)
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-15)
        np.testing.assert_allclose(plus @ minus, np.zeros((2, 2)), atol=1e-15)

    def test_state_validation_rejects_defects(self):
        good = singlet_state()
        with pytest.raises(InvariantViolation):
            validate_state(good + np.array([[0, 1e-6, 0, 0]] + [[0] * 4] * 3))
        with pytest.raises(InvariantViolation):
            validate_state(good * 1.01)
        with pytest.raises(InvariantViolation):
            validate_state(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            validate_state(np.eye(2))

    def test_product_state_rejects_long_bloch_vector(self):
        with pytest.raises(InvariantViolation):
            product_state([1.1, 0, 0], [0, 0, 1])


def random_axes(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_state(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def oracle_distribution(rho, alice_axis, bob_axis):
    """One cell at a time: np.kron of two projectors and a trace per cell."""

    def projectors(n):
        n_dot_sigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        eye = np.eye(2, dtype=complex)
        return ((eye + n_dot_sigma) / 2.0, (eye - n_dot_sigma) / 2.0)

    probs = [
        float(np.einsum("ij,ji->", rho, np.kron(p_a, p_b)).real)
        for p_a in projectors(np.asarray(alice_axis, dtype=float))
        for p_b in projectors(np.asarray(bob_axis, dtype=float))
    ]
    return JointDistribution(*probs)


def oracle_table(rho, quad):
    return ExperimentTable(
        ab=oracle_distribution(rho, quad.a, quad.b),
        ab_prime=oracle_distribution(rho, quad.a, quad.b_prime),
        a_prime_b=oracle_distribution(rho, quad.a_prime, quad.b),
        a_prime_b_prime=oracle_distribution(rho, quad.a_prime, quad.b_prime),
    )


def bits(values):
    return [float(v).hex() for v in values]


unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def states(draw):
    entries = draw(st.lists(unit_floats, min_size=32, max_size=32))
    m = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho = m @ m.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


@st.composite
def axes(draw):
    v = np.array(draw(st.lists(unit_floats, min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


property_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestBatchedKernel:
    def test_singlet_correlation_over_a_large_batch(self):
        rng = np.random.default_rng(2024)
        a, b = random_axes(rng, 100_000), random_axes(rng, 100_000)
        p = joint_probabilities(singlet_state(), a, b)
        e = (p[:, 0] + p[:, 3]) - (p[:, 1] + p[:, 2])
        assert np.max(np.abs(e + np.einsum("nk,nk->n", a, b))) < 1e-12

    @pytest.mark.parametrize("state", ["singlet", "random"])
    def test_no_signaling_for_many_random_quads(self, state):
        rng = np.random.default_rng(404)
        rho = singlet_state() if state == "singlet" else random_state(rng)
        n = 10_000
        a, a_prime, b, b_prime = (random_axes(rng, n) for _ in range(4))
        alice = np.stack([a, a, a_prime, a_prime], axis=1).reshape(-1, 3)
        bob = np.stack([b, b_prime, b, b_prime], axis=1).reshape(-1, 3)
        p = joint_probabilities(rho, alice, bob).reshape(n, 4, 4)
        alice_plus = p[..., 0] + p[..., 1]  # per row AB, AB', A'B, A'B'
        bob_plus = p[..., 0] + p[..., 2]
        residuals = np.concatenate(
            [
                alice_plus[:, 0] - alice_plus[:, 1],
                alice_plus[:, 2] - alice_plus[:, 3],
                bob_plus[:, 0] - bob_plus[:, 2],
                bob_plus[:, 1] - bob_plus[:, 3],
            ]
        )
        assert np.max(np.abs(residuals)) < 1e-12
        if state == "singlet":
            assert np.max(np.abs(alice_plus - 0.5)) < 1e-12
            assert np.max(np.abs(bob_plus - 0.5)) < 1e-12

    @property_settings
    @given(rho=states(), quad=st.tuples(axes(), axes(), axes(), axes()))
    def test_table_matches_the_scalar_oracle_bit_for_bit(self, rho, quad):
        quad = AxisQuad(*quad)
        got, want = table_for_axes(rho, quad), oracle_table(rho, quad)
        for (_, d_got), (_, d_want) in zip(got.rows(), want.rows()):
            assert bits(d_got.probabilities()) == bits(d_want.probabilities())

    @property_settings
    @given(rho=states(), alphas=st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=20))
    def test_scan_matches_the_scalar_oracle_bit_for_bit(self, rho, alphas):
        got = scan_tsirelson(rho, alphas)
        want = [(alpha, chsh(oracle_table(rho, coplanar_axes(alpha))).max_abs()) for alpha in alphas]
        assert [alpha for alpha, _ in got] == alphas
        assert bits(v for _, v in got) == bits(v for _, v in want)

    @pytest.mark.parametrize("side", ["alice", "bob"])
    @pytest.mark.parametrize("position", [0, 517, 999])
    def test_one_non_unit_axis_anywhere_rejects_the_batch(self, side, position):
        rng = np.random.default_rng(5)
        alice, bob = random_axes(rng, 1000), random_axes(rng, 1000)
        (alice if side == "alice" else bob)[position] *= 1.0 + 1e-9
        with pytest.raises(InvariantViolation):
            joint_probabilities(singlet_state(), alice, bob)

    def test_nan_axis_in_a_batch_is_rejected(self):
        rng = np.random.default_rng(6)
        alice, bob = random_axes(rng, 10), random_axes(rng, 10)
        bob[3, 1] = math.nan
        with pytest.raises(InvariantViolation):
            joint_probabilities(singlet_state(), alice, bob)

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_axes_that_are_not_n_by_3_are_rejected(self, side):
        good, bad = np.tile([0.0, 0.0, 1.0], (2, 1)), np.tile([0.0, 0.0, 1.0, 0.0], (2, 1))
        axes = (bad, good) if side == "alice" else (good, bad)
        with pytest.raises(ValueError, match=r"axes must have shape \(n, 3\), got \(2, 4\)"):
            joint_probabilities(singlet_state(), *axes)

    def test_mismatched_batches_are_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            joint_probabilities(singlet_state(), random_axes(rng, 3), random_axes(rng, 4))

    @pytest.mark.parametrize("cell", [(0, 0), (1, 2)])
    def test_nan_state_entry_raises_instead_of_clamping(self, cell):
        rho = singlet_state()
        rho[cell] = math.nan
        quad = coplanar_axes(math.pi / 4)
        with pytest.raises(InvariantViolation):
            joint_distribution(rho, Z, Z)
        with pytest.raises(InvariantViolation):
            table_for_axes(rho, quad)
        with pytest.raises(InvariantViolation):
            scan_tsirelson(rho, [0.0, math.pi / 4])
        with pytest.raises(InvariantViolation):
            validate_state(rho)

    def test_non_finite_axis_is_a_value_error(self):
        with pytest.raises(ValueError):
            unit_axis([math.nan, 0.0, 1.0])
        with pytest.raises(ValueError):
            product_state([math.inf, 0.0, 0.0], [0.0, 0.0, 1.0])

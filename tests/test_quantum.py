"""Tests for the singlet reference predictions and CHSH axis scans."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entangle_lab import quantum
from entangle_lab.probability import (
    NORMALIZATION_TOL,
    ChshQuantities,
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    chsh,
    correlation,
    marginals,
)
from entangle_lab.quantum import (
    AXIS_NORM_TOL,
    PSD_TOL,
    TRACE_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    AxisQuad,
    _projector_stack,
    coplanar_axes,
    joint_probabilities,
    maximally_mixed_state,
    product_state,
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


def pair_distribution(rho, alice_axis, bob_axis):
    """The JointDistribution of one axis pair: a batch of one of joint_probabilities."""
    return JointDistribution(*joint_probabilities(rho, [alice_axis], [bob_axis])[0].tolist())


class TestJointDistribution:
    def test_equal_axes_anticorrelate_perfectly(self):
        dist = pair_distribution(singlet_state(), Z, Z)
        np.testing.assert_allclose(
            [float(p) for p in dist.probabilities()], [0.0, 0.5, 0.5, 0.0], atol=1e-14
        )

    def test_eighth_turn_correlation(self):
        dist = pair_distribution(singlet_state(), Z, coplanar_axes(math.pi / 4).b)
        assert abs(correlation(dist) + math.cos(math.pi / 4)) < 1e-12

    def test_aligned_product_state(self):
        rho = product_state([0, 0, 1], [0, 0, 1])
        dist = pair_distribution(rho, Z, Z)
        np.testing.assert_allclose(
            [float(p) for p in dist.probabilities()], [1.0, 0.0, 0.0, 0.0], atol=1e-14
        )

    def test_singlet_correlation_is_minus_dot_product(self):
        rng = np.random.default_rng(8)
        rho = singlet_state()
        for _ in range(100):
            a, b = random_axis(rng), random_axis(rng)
            e = correlation(pair_distribution(rho, a, b))
            assert abs(e + float(a @ b)) < 1e-12

    def test_rejects_invalid_state(self):
        not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            joint_probabilities(not_psd, [Z], [Z])


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
            e = correlation(pair_distribution(rho, axis, axis))
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

    @pytest.mark.parametrize("tolerated", [False, True], ids=["refused", "within-tolerance"])
    def test_an_out_of_range_angle_is_refused_with_the_chsh_quantities_message(self, monkeypatch, tolerated):
        # Rows [e, 0, 0, 0] give the correlation e.  Angle 1's correlations (1, 1, 1, -3.5)
        # put only d_chsh out of range (6.5); angle 2's (-3, 1, 1, 1) put a_chsh there (6).
        # A combination past 4 by no more than CHSH_RANGE_TOL passes, as ChshQuantities lets it.
        over = 1e-10 if tolerated else 2.5
        correlations = [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, -1.0 - over), (-1.0 - over, 1.0, 1.0, 1.0)]
        batch = np.array([[e, 0.0, 0.0, 0.0] for angle in correlations for e in angle])
        monkeypatch.setattr(quantum, "joint_probabilities", lambda rho, alice, bob: batch)
        alphas = [0.0, 0.5, 1.0]
        if tolerated:
            assert [value for _, value in scan_tsirelson(singlet_state(), alphas)] == [2.0, 4.0 + over, 4.0 + over]
            return
        with pytest.raises(InvariantViolation) as expected:
            ChshQuantities(-2.5, -2.5, -2.5, 6.5)
        with pytest.raises(InvariantViolation) as got:
            scan_tsirelson(singlet_state(), alphas)
        assert str(got.value) == str(expected.value) == "d_chsh = 6.5 outside [-4, 4]"


class TestValidation:
    def test_unit_axis(self):
        with pytest.raises(InvariantViolation):
            unit_axis([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            unit_axis([1.0, 0.0])

    def test_projector_completeness(self):
        rng = np.random.default_rng(4)
        n = random_axis(rng)
        plus, minus = _projector_stack([n])[0]
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
        with pytest.raises(ValueError, match="axis must be finite") as refused:
            joint_probabilities(singlet_state(), alice, bob)
        assert not isinstance(refused.value, InvariantViolation)

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
            joint_probabilities(rho, [Z], [Z])
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


# --- one rule per concern: the axis check, the table layout, the coplanar family ---

#: Its dot-product norm is 1.0000000000001 and its per-axis sum of squares 1.0000000000001001: it once
#: passed unit_axis and AxisQuad, and table_for_axes then refused it.
BOUNDARY_AXIS = [0.16898105777936037, 0.9691939660276077, -0.1791883320075422]


def axis_verdicts(v):
    """Each entry point that checks an axis, on ``v``: None where it passes, else its refusal."""

    def verdict(call):
        try:
            call()
        except ValueError as refused:  # InvariantViolation included
            return type(refused), str(refused)
        return None

    verdicts = {
        "unit_axis": verdict(lambda: unit_axis(v)),
        "AxisQuad": verdict(lambda: AxisQuad(Z, Z, v, Z)),
        "joint_probabilities": verdict(lambda: joint_probabilities(singlet_state(), [Z, v], [Z, Z])),
    }
    if verdicts["AxisQuad"] is None:
        verdicts["table_for_axes"] = verdict(lambda: table_for_axes(singlet_state(), AxisQuad(Z, Z, v, Z)))
    return verdicts


def test_the_boundary_axis_gets_one_verdict_everywhere():
    refusal = (InvariantViolation, "axis norm 1.0000000000001001 deviates from 1")
    assert axis_verdicts(BOUNDARY_AXIS) == {"unit_axis": refusal, "AxisQuad": refusal, "joint_probabilities": refusal}


def test_axes_within_a_few_ulps_of_the_tolerance_get_one_verdict_everywhere():
    rng = np.random.default_rng(2026)
    outcomes = set()
    for axis in random_axes(rng, 40):
        for edge in (1 - AXIS_NORM_TOL, 1 + AXIS_NORM_TOL):
            for ulps in range(-3, 4):
                verdicts = set(axis_verdicts(axis * edge * (1 + ulps * 2.0**-52)).values())
                assert len(verdicts) == 1, verdicts
                outcomes |= {verdict is None for verdict in verdicts}
    assert outcomes == {True, False}  # the sample straddles the boundary


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_axis_is_a_value_error_on_every_path(bad):
    v = [0.0, bad, 1.0]
    message = f"axis must be finite, got {v!r}"
    assert axis_verdicts(v) == {name: (ValueError, message) for name in ("unit_axis", "AxisQuad", "joint_probabilities")}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_angle_is_refused_by_name(bad):
    message = f"^alpha must be finite, got {bad!r}$"
    with pytest.raises(ValueError, match=message) as refused:
        scan_tsirelson(singlet_state(), [0.0, bad, 1.0])
    assert not isinstance(refused.value, InvariantViolation)
    with pytest.raises(ValueError, match=message):
        coplanar_axes(bad)


def test_the_table_layout_and_the_coplanar_family_are_each_written_once(monkeypatch):
    # Permute the row layout and shift the family's B axes: table_for_axes,
    # coplanar_axes and scan_tsirelson all follow, so they still agree bit for bit.
    rng = np.random.default_rng(9)
    rho, alphas = random_state(rng), [0.3, 1.1, 2.9]
    unpatched = [chsh(table_for_axes(rho, coplanar_axes(alpha))).as_tuple() for alpha in alphas]
    coplanar_quads = quantum._coplanar_quads
    monkeypatch.setattr(quantum, "_ROW_AXES", ([1, 0, 1, 0], [3, 3, 2, 2]))
    monkeypatch.setattr(quantum, "_coplanar_quads", lambda alphas: coplanar_quads([alpha + 0.2 for alpha in alphas]))
    patched = [chsh(table_for_axes(rho, coplanar_axes(alpha))) for alpha in alphas]
    assert [q.as_tuple() for q in patched] != unpatched
    assert bits(v for _, v in scan_tsirelson(rho, alphas)) == bits(q.max_abs() for q in patched)


# --- one tolerance rule: a validated state is never refused ---


def test_a_state_the_probabilities_would_refuse_is_refused_by_validation():
    # lambda_min = -5e-11 once passed validate_state, and joint_probabilities then refused P = -5e-11.
    rho = np.diag([0.5, -5e-11, 0.5 + 5e-11, 0.0]).astype(complex)
    with pytest.raises(InvariantViolation, match=r"not positive semidefinite \(min eigenvalue -5e-11\)"):
        validate_state(rho)
    # Trace and axis norm at their old 1e-12 tolerances once gave P++ = 1 + 1.8e-12.
    with pytest.raises(InvariantViolation, match="trace"):
        validate_state(np.diag([1 + 0.9e-12, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(InvariantViolation, match="deviates from 1"):
        unit_axis([0.0, 0.0, 1 + 0.9e-12])


def test_the_eigenvalue_test_reads_the_hermitian_part():
    # A lower triangle alone would read lambda_min = 0; (rho + rho^H)/2 has -5e-13.
    rho = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
    rho[1, 3] = 1e-12
    with pytest.raises(InvariantViolation, match="positive semidefinite"):
        validate_state(rho)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), edge=st.sampled_from(["low", "high"]), stretch=st.sampled_from([-1, 0, 1]))
def test_a_validated_state_is_never_refused_by_the_probabilities(seed, edge, stretch):
    rng = np.random.default_rng(seed)
    a, b = random_axes(rng, 2)
    # The product eigenvector of P+(a) x P+(b) carries the extreme eigenvalue, so P++ reaches it.
    plus_a, plus_b = (np.linalg.eigh(_projector_stack([n])[0, 0])[1][:, -1] for n in (a, b))
    basis = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    basis[:, 0] = np.kron(plus_a, plus_b)
    basis = np.linalg.qr(basis)[0]
    eps, excess = PSD_TOL * 0.99, TRACE_TOL * 0.99  # 0.99: room for the rounding of the construction
    if edge == "low":  # lambda_min = -PSD_TOL on the measured product state
        rest = rng.dirichlet(np.ones(3)) * (1 + eps)
        eigenvalues = [-eps, *rest]
    else:  # the largest P the tolerances allow: trace 1 + TRACE_TOL, three eigenvalues -PSD_TOL
        eigenvalues = [1 + excess + 3 * eps, -eps, -eps, -eps]
    rho = basis @ np.diag(eigenvalues) @ basis.conj().T
    rho = validate_state((rho + rho.conj().T) / 2)
    # Axes as long or short as the axis check allows, then random unit ones.
    scale = 1 + stretch * AXIS_NORM_TOL * 0.99
    alice = np.vstack([a * scale, random_axes(rng, 3)])
    bob = np.vstack([b * scale, random_axes(rng, 3)])
    probs = joint_probabilities(rho, alice, bob)
    assert ((0 <= probs) & (probs <= 1)).all()
    assert np.abs(probs.sum(axis=1) - 1).max() <= NORMALIZATION_TOL
    assert probs[0, 0] == (0.0 if edge == "low" else 1.0)
    table_for_axes(rho, AxisQuad(a * scale, alice[1], b * scale, bob[1]))


# --- AxisQuad checks its four axes at once, and refuses as unit_axis does ---


def refusal(call):
    """The exception type and message ``call`` raises, else None."""
    try:
        call()
    except (TypeError, ValueError) as refused:  # InvariantViolation included
        return type(refused), str(refused)
    return None


BAD_AXES = {
    "short": [1.0, 0.0],
    "matrix": [[0.0, 0.0, 1.0]] * 3,
    "scalar": 1.0,
    "long": [0.0, 0.0, 2.0],
    "short norm": [0.0, 0.6, 0.6],
    "nan": [math.nan, 0.0, 1.0],
    "inf": [0.0, math.inf, 0.0],
    "text": ["x", 0.0, 1.0],
    "boundary": BOUNDARY_AXIS,
}


@pytest.mark.parametrize("bad", BAD_AXES)
def test_an_axis_quad_refuses_its_first_bad_axis_as_unit_axis_does(bad):
    expected = refusal(lambda: unit_axis(BAD_AXES[bad]))
    assert expected is not None
    for position in range(4):
        axes = [Z, Z, Z, Z]
        axes[position] = BAD_AXES[bad]
        assert refusal(lambda: AxisQuad(*axes)) == expected
    # With two bad axes, the first one's refusal.
    assert refusal(lambda: AxisQuad(Z, BAD_AXES[bad], [0.0, 0.0, 3.0], Z)) == expected
    assert refusal(lambda: AxisQuad(Z, [0.0, 0.0, 3.0], BAD_AXES[bad], Z)) == refusal(lambda: unit_axis([0.0, 0.0, 3.0]))


def test_an_axis_quad_checks_its_axes_in_one_call(monkeypatch):
    calls = []
    check = quantum._check_vectors
    monkeypatch.setattr(quantum, "_check_vectors", lambda r, *args, **kwargs: calls.append(np.shape(r)) or check(r, *args, **kwargs))
    axes = [list(axis) for axis in random_axes(np.random.default_rng(7), 4)]
    quad = AxisQuad(*axes)
    assert calls == [(4, 3)]
    for name, axis in zip(("a", "a_prime", "b", "b_prime"), axes):
        stored = getattr(quad, name)
        assert stored.dtype == np.float64 and stored.shape == (3,) and stored.tolist() == axis

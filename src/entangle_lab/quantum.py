"""Exact two-qubit reference predictions via small dense complex algebra.

Joint outcome probabilities of product spin measurements are computed as
P_ij = Tr[rho (P_i(a) x P_j(b))] with the projectors built branch-free from
(I +/- n.sigma)/2.  For the singlet this yields E(a, b) = -a.b and, on the
standard coplanar axis family, the textbook CHSH values including the
Tsirelson point 2*sqrt(2) at alpha = pi/4.

Each piece of the algebra is written once: ``_three_vector`` checks every
real 3-vector and ``_n_dot_sigma`` forms n.sigma, for the projectors and for
``qubit_state``.  One batched kernel, :func:`joint_probabilities`, computes
every probability: it takes paired (n, 3) Alice and Bob axes, checks all axis
norms at once, builds an (n, 2, 2, 2) projector stack, forms the Kronecker
products by one broadcast multiply and takes all traces in one ``einsum``.
``joint_distribution`` is a batch of one pair, ``table_for_axes`` a batch of
four and ``scan_tsirelson`` a batch of four pairs per angle, with
``probability``'s CHSH expressions applied to arrays.  The arithmetic per cell
is that of ``np.kron`` plus ``einsum("ij,ji->")``, so the batched values are
bit-identical to a one-cell-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import (
    CHSH_RANGE_TOL,
    NORMALIZATION_TOL,
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    _chsh_combinations,
    _correlation,
    frequency_table,
)
from .rng import DOMAIN_QUANTUM_SAMPLING, count_outcomes, sign_counts

AXIS_NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
IDENTITY_2 = np.eye(2, dtype=complex)


def _three_vector(v: Sequence[float], name: str, *, unit: bool) -> np.ndarray:
    """Check the real 3-vector ``name``: shape and finiteness (ValueError), then the
    norm (InvariantViolation): 1 within ``AXIS_NORM_TOL`` if ``unit``, else at most 1."""
    r = np.asarray(v, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"{name} must be finite, got {r.tolist()!r}")
    norm = float(np.linalg.norm(r))
    if unit and abs(norm - 1.0) > AXIS_NORM_TOL:
        raise InvariantViolation(f"{name} norm {norm!r} deviates from 1")
    if not unit and norm > 1.0 + AXIS_NORM_TOL:
        raise InvariantViolation(f"{name} norm {norm!r} exceeds 1")
    return r


def unit_axis(v: Sequence[float]) -> np.ndarray:
    """Validate a measurement direction: real 3-vector of unit norm."""
    return _three_vector(v, "axis", unit=True)


def _n_dot_sigma(n: np.ndarray) -> np.ndarray:
    """n.sigma = n_x X + n_y Y + n_z Z as (..., 2, 2), for real (..., 3) vectors n."""
    n = n[..., None, None]
    return n[..., 0, :, :] * PAULI_X + n[..., 1, :, :] * PAULI_Y + n[..., 2, :, :] * PAULI_Z


def axis_in_xz_plane(theta: float) -> np.ndarray:
    """Direction at angle ``theta`` from +z, rotated toward +x."""
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


@dataclass(frozen=True, eq=False)
class AxisQuad:
    """The four measurement directions of a CHSH experiment."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, unit_axis(getattr(self, name)))


def validate_state(rho: np.ndarray) -> np.ndarray:
    """Check that a 4x4 matrix is a density matrix, the one check of every state.

    Finite entries, Hermitian within 1e-12, unit trace within 1e-12 and
    smallest eigenvalue >= -1e-10.  Raises InvariantViolation otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"state must be 4x4, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvariantViolation("state has a non-finite entry")
    with np.errstate(over="ignore"):  # huge finite entries overflow to inf, which the checks refuse
        asymmetry, trace = np.max(np.abs(rho - rho.conj().T)), complex(np.trace(rho))
    if asymmetry > HERMITICITY_TOL:
        raise InvariantViolation("state is not Hermitian")
    if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
        raise InvariantViolation(f"state trace {trace!r} deviates from 1")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -PSD_TOL:
        raise InvariantViolation(f"state is not positive semidefinite (min eigenvalue {min_eig})")
    return rho


def singlet_state() -> np.ndarray:
    """Density matrix of the rotationally invariant two-spin singlet."""
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0 / math.sqrt(2.0)  # |+->
    ket[2] = -1.0 / math.sqrt(2.0)  # |-+>
    return np.outer(ket, ket.conj())


def maximally_mixed_state() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def qubit_state(bloch: Sequence[float]) -> np.ndarray:
    """Single-qubit density matrix (I + r.sigma)/2 from a Bloch vector."""
    return (IDENTITY_2 + _n_dot_sigma(_three_vector(bloch, "Bloch vector", unit=False))) / 2.0


def product_state(alice_bloch: Sequence[float], bob_bloch: Sequence[float]) -> np.ndarray:
    """Two-qubit product state from the per-side Bloch vectors."""
    return np.kron(qubit_state(alice_bloch), qubit_state(bob_bloch))


def _projector_stack(axes) -> np.ndarray:
    """(n, 2, 2, 2) projectors (I + n.sigma)/2, (I - n.sigma)/2 for (n, 3) unit axes.

    Every norm is checked in one pass; a NaN norm fails the check too.
    """
    axes = np.asarray(axes, dtype=float)
    if axes.ndim != 2 or axes.shape[1] != 3:
        raise ValueError(f"axes must have shape (n, 3), got {axes.shape}")
    norms = np.linalg.norm(axes, axis=1)
    bad = ~(np.abs(norms - 1.0) <= AXIS_NORM_TOL)
    if bad.any():
        raise InvariantViolation(f"axis norm {float(norms[bad][0])!r} deviates from 1")
    n_dot_sigma = _n_dot_sigma(axes)
    return np.stack([(IDENTITY_2 + n_dot_sigma) / 2.0, (IDENTITY_2 - n_dot_sigma) / 2.0], axis=1)


def projector(axis: Sequence[float], sign: int) -> np.ndarray:
    """Spin projector (I + sign * n.sigma)/2 along a unit axis."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return _projector_stack([unit_axis(axis)])[0, (1 - sign) // 2]


def joint_probabilities(rho: np.ndarray, alice_axes, bob_axes) -> np.ndarray:
    """Outcome probabilities ++, +-, -+, -- of paired product measurements.

    ``alice_axes`` and ``bob_axes`` are (n, 3) unit axes; row k of the (n, 4)
    result is Tr[rho (P_i(a_k) x P_j(b_k))].  The state is validated once, the
    Kronecker products are formed by the broadcast multiply of ``np.kron`` and
    all traces are taken by one ``einsum``, so every value carries the same
    bits as a per-cell ``einsum("ij,ji->", rho, np.kron(P_i, P_j))``.  Values
    get the checks of :class:`JointDistribution` in batch: no NaN, each within
    ``NORMALIZATION_TOL`` of [0, 1] (then clamped), each row summing to one.
    """
    rho = validate_state(rho)
    proj_a = _projector_stack(alice_axes)
    proj_b = _projector_stack(bob_axes)
    if proj_a.shape != proj_b.shape:
        raise ValueError(f"got {proj_a.shape[0]} Alice axes but {proj_b.shape[0]} Bob axes")
    # kron[n, s, t, i, k, j, l] = P_s(a_n)[i, j] * P_t(b_n)[k, l]
    kron = proj_a[:, :, None, :, None, :, None] * proj_b[:, None, :, None, :, None, :]
    probs = np.einsum("ij,ncji->nc", rho, kron.reshape(-1, 4, 4, 4)).real
    if np.isnan(probs).any():
        raise InvariantViolation("outcome probability is NaN")
    outside = (probs < -NORMALIZATION_TOL) | (probs > 1.0 + NORMALIZATION_TOL)
    if outside.any():
        raise InvariantViolation(f"outcome probability {float(probs[outside][0])!r} outside [0, 1]")
    probs = np.minimum(np.maximum(probs, 0.0), 1.0)
    totals = probs[:, 0] + probs[:, 1] + probs[:, 2] + probs[:, 3]
    unnormalized = np.abs(totals - 1.0) > NORMALIZATION_TOL
    if unnormalized.any():
        raise InvariantViolation(f"outcome probabilities sum to {float(totals[unnormalized][0])!r}, not 1")
    return probs


def joint_distribution(rho: np.ndarray, alice_axis, bob_axis) -> JointDistribution:
    """Joint outcome probabilities of product spin measurements on a state."""
    return JointDistribution(*joint_probabilities(rho, [alice_axis], [bob_axis])[0].tolist())


def table_for_axes(rho: np.ndarray, axes: AxisQuad) -> ExperimentTable:
    alice = [axes.a, axes.a, axes.a_prime, axes.a_prime]
    bob = [axes.b, axes.b_prime, axes.b, axes.b_prime]
    return ExperimentTable(*(JointDistribution(*row) for row in joint_probabilities(rho, alice, bob).tolist()))


def sample_table(table: ExperimentTable, trials_per_setting: int, master_seed: int, *, workers: int = 1):
    """Monte Carlo table of ``trials_per_setting`` trials per row of ``table``.

    A trial is two sequential collapses on ``DOMAIN_QUANTUM_SAMPLING``: Alice
    gets + by a threshold test on her marginal P(A+) in column 0, then Bob
    gets + by a test on the conditional P(B+ | Alice's outcome) in column 1.
    The row is divided by its total first, and a conditional given an
    outcome of probability 0 is never used, so a zero-probability cell is
    never drawn.  Returns the frequency table and the raw counts, as
    :func:`strings.estimate_table` does.
    """
    thresholds = [_collapse_thresholds(*(float(p) for p in dist.probabilities())) for _, dist in table.rows()]

    def outcome(si, block):
        alice, bob_given_minus, bob_given_plus = thresholds[si]
        a_plus = block.below(0, alice)
        return sign_counts(a_plus, block.below(1, (bob_given_minus, bob_given_plus), pick=a_plus), block.rows)

    counts = count_outcomes(master_seed, DOMAIN_QUANTUM_SAMPLING, 4, trials_per_setting, 4, outcome, workers=workers)
    return frequency_table(counts)


def _collapse_thresholds(p_pp: float, p_pm: float, p_mp: float, p_mm: float) -> tuple[float, float, float]:
    """(P(A+), P(B+ | A-), P(B+ | A+)) of one row; a conditional on an impossible outcome is 0."""
    alice_plus, alice_minus = p_pp + p_pm, p_mp + p_mm
    return (
        alice_plus / (alice_plus + alice_minus),
        p_mp / alice_minus if alice_minus else 0.0,
        p_pp / alice_plus if alice_plus else 0.0,
    )


def coplanar_axes(alpha: float) -> AxisQuad:
    """The standard coplanar CHSH family at relative angle ``alpha``.

    All axes lie in the x-z plane: A along +z, B at alpha, A' at pi/2 and B'
    at alpha + pi/2.  At alpha = pi/4 this realizes the angle pattern
    (A,B) = pi/4, (A,B') = 3pi/4, (A',B) = pi/4, (A,A') = (B,B') = pi/2,
    for which the singlet gives B_CHSH = -2*sqrt(2).
    """
    return AxisQuad(
        a=axis_in_xz_plane(0.0),
        a_prime=axis_in_xz_plane(math.pi / 2.0),
        b=axis_in_xz_plane(alpha),
        b_prime=axis_in_xz_plane(alpha + math.pi / 2.0),
    )


def scan_tsirelson(rho: np.ndarray, alphas: Sequence[float]) -> list[tuple[float, float]]:
    """Sweep the coplanar family: (alpha, max |CHSH quantity|) per grid point.

    The whole grid is one batch of 4 * len(alphas) axis pairs; correlations
    and the four CHSH combinations are formed as arrays by the expressions of
    :func:`probability.chsh`, with the same range check as :class:`ChshQuantities`.
    """
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        raise ValueError("angle grid must be non-empty")
    a, a_prime = axis_in_xz_plane(0.0), axis_in_xz_plane(math.pi / 2.0)
    b = np.array([axis_in_xz_plane(alpha) for alpha in alphas])
    b_prime = np.array([axis_in_xz_plane(alpha + math.pi / 2.0) for alpha in alphas])
    # Four rows per angle, in table order: AB, AB', A'B, A'B'.
    alice = np.tile([a, a, a_prime, a_prime], (len(alphas), 1))
    bob = np.stack([b, b_prime, b, b_prime], axis=1).reshape(-1, 3)
    p = joint_probabilities(rho, alice, bob).reshape(-1, 4, 4)
    e = _correlation(*np.moveaxis(p, 2, 0))  # (angles, rows)
    max_abs = np.abs(_chsh_combinations(*e.T)).max(axis=0)
    if (max_abs > 4 + CHSH_RANGE_TOL).any():
        raise InvariantViolation(f"CHSH quantity {float(max_abs.max())!r} outside [-4, 4]")
    return list(zip(alphas, max_abs.tolist()))

"""Exact two-qubit reference predictions via small dense complex algebra.

Joint outcome probabilities of product spin measurements are computed as
P_ij = Tr[rho (P_i(a) x P_j(b))] with the projectors built branch-free from
(I +/- n.sigma)/2.  For the singlet this yields E(a, b) = -a.b and, on the
standard coplanar axis family, the textbook CHSH values including the
Tsirelson point 2*sqrt(2) at alpha = pi/4.

Each rule is written once.  ``_check_vectors`` checks every real 3-vector,
one or a batch, and ``_n_dot_sigma`` forms n.sigma.  One batched kernel,
:func:`joint_probabilities`, computes every probability: it checks paired
(n, 3) Alice and Bob axes at once, builds an (n, 2, 2, 2) projector stack,
forms the Kronecker products by one broadcast multiply, takes all traces in
one ``einsum`` and checks the rows by ``probability``'s batch form of the
:class:`JointDistribution` rule.  ``_ROW_AXES`` lays out a table's rows and
``_coplanar_quads`` places the coplanar family, so ``table_for_axes`` is a
batch of one axis quad and ``scan_tsirelson`` one of a quad per angle.  The
arithmetic per cell is that of ``np.kron`` plus ``einsum("ij,ji->")``, so the
batched values are bit-identical to a one-cell-at-a-time loop.

One tolerance rule: a state that passes :func:`validate_state`, measured along
axes that pass the axis check, is never refused by :func:`joint_probabilities`'s
row tolerance (1e-12).  As Tr[rho P] >= lambda_min(rho) for a rank-one
projector P, and an axis of norm 1 + e moves its projectors' eigenvalues by e/2,
``PSD_TOL``, ``TRACE_TOL`` and ``AXIS_NORM_TOL`` of 1e-13 keep each probability
within 5e-13 of [0, 1] and each clamped row sum within 6e-13 of 1.  The
eigenvalue test reads the Hermitian part, whose traces the probabilities are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import (
    ExperimentTable,
    InvariantViolation,
    JointDistribution,
    _check_chsh_batch,
    _chsh_combinations,
    _correlation,
    _distribution_batch,
    frequency_table,
)
from .rng import DOMAIN_QUANTUM_SAMPLING, count_outcomes, sign_counts

AXIS_NORM_TOL = 1e-13
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-13
PSD_TOL = 1e-13

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
IDENTITY_2 = np.eye(2, dtype=complex)


def _check_vectors(r: np.ndarray, name: str, *, unit: bool) -> np.ndarray:
    """Check the real 3-vectors on the last axis of the float array ``r``, named ``name``:
    finiteness (ValueError), then the norm (InvariantViolation): 1 within ``AXIS_NORM_TOL``
    if ``unit``, else at most 1.  Each refusal names the first offending vector."""
    if not np.isfinite(r).all():
        finite = np.isfinite(r).all(axis=-1)
        raise ValueError(f"{name} must be finite, got {r[~finite][0].tolist()!r}")
    with np.errstate(over="ignore"):  # a huge finite vector's norm is inf, which the check refuses
        norms = np.linalg.norm(r, axis=-1)
    bad = np.abs(norms - 1.0) > AXIS_NORM_TOL if unit else norms > 1.0 + AXIS_NORM_TOL
    if bad.any():
        raise InvariantViolation(f"{name} norm {float(norms[bad][0])!r} {'deviates from' if unit else 'exceeds'} 1")
    return r


def _three_vector(v: Sequence[float], name: str, *, unit: bool) -> np.ndarray:
    """The real 3-vector ``name``, of shape (3,) (else ValueError), checked by :func:`_check_vectors`."""
    r = np.asarray(v, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {r.shape}")
    return _check_vectors(r, name, unit=unit)


def unit_axis(v: Sequence[float]) -> np.ndarray:
    """Validate a measurement direction: real 3-vector of unit norm."""
    return _three_vector(v, "axis", unit=True)


def _n_dot_sigma(n: np.ndarray) -> np.ndarray:
    """n.sigma = n_x X + n_y Y + n_z Z as (..., 2, 2), for real (..., 3) vectors n."""
    n = n[..., None, None]
    return n[..., 0, :, :] * PAULI_X + n[..., 1, :, :] * PAULI_Y + n[..., 2, :, :] * PAULI_Z


@dataclass(frozen=True, eq=False)
class AxisQuad:
    """The four measurement directions of a CHSH experiment."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        fields = (self.a, self.a_prime, self.b, self.b_prime)
        try:  # one check of the four stacked axes
            axes = _check_vectors(np.array(fields, dtype=float), "axis", unit=True)
        except (TypeError, ValueError):  # InvariantViolation included
            axes = None
        if np.shape(axes) != (4, 3):  # unit_axis refuses the first offending axis with its own message
            axes = [unit_axis(v) for v in fields]
        for name, axis in zip(("a", "a_prime", "b", "b_prime"), axes):
            object.__setattr__(self, name, axis)


def validate_state(rho: np.ndarray) -> np.ndarray:
    """Check that a 4x4 matrix is a density matrix, the one check of every state.

    Finite entries, Hermitian within 1e-12, unit trace within 1e-13 and the Hermitian
    part's smallest eigenvalue >= -1e-13.  Raises InvariantViolation otherwise.
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
    min_eig = float(np.linalg.eigvalsh(rho / 2 + rho.conj().T / 2).min())
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
    """(n, 2, 2, 2) projectors (I + n.sigma)/2, (I - n.sigma)/2 for (n, 3) unit axes, all checked in one pass."""
    axes = np.asarray(axes, dtype=float)
    if axes.ndim != 2 or axes.shape[1] != 3:
        raise ValueError(f"axes must have shape (n, 3), got {axes.shape}")
    n_dot_sigma = _n_dot_sigma(_check_vectors(axes, "axis", unit=True))
    return np.stack([(IDENTITY_2 + n_dot_sigma) / 2.0, (IDENTITY_2 - n_dot_sigma) / 2.0], axis=1)


def joint_probabilities(rho: np.ndarray, alice_axes, bob_axes) -> np.ndarray:
    """Outcome probabilities ++, +-, -+, -- of paired product measurements.

    ``alice_axes`` and ``bob_axes`` are (n, 3) unit axes; row k of the (n, 4)
    result is Tr[rho (P_i(a_k) x P_j(b_k))].  The state is validated once, the
    Kronecker products are formed by the broadcast multiply of ``np.kron`` and
    all traces are taken by one ``einsum``, so every value carries the same
    bits as a per-cell ``einsum("ij,ji->", rho, np.kron(P_i, P_j))``.  Rows
    are checked and clamped by :class:`JointDistribution`'s rule, in batch.
    """
    rho = validate_state(rho)
    proj_a = _projector_stack(alice_axes)
    proj_b = _projector_stack(bob_axes)
    if proj_a.shape != proj_b.shape:
        raise ValueError(f"got {proj_a.shape[0]} Alice axes but {proj_b.shape[0]} Bob axes")
    # kron[n, s, t, i, k, j, l] = P_s(a_n)[i, j] * P_t(b_n)[k, l]
    kron = proj_a[:, :, None, :, None, :, None] * proj_b[:, None, :, None, :, None, :]
    return _distribution_batch(np.einsum("ij,ncji->nc", rho, kron.reshape(-1, 4, 4, 4)).real)


#: The Alice and the Bob axis of each table row AB, AB', A'B, A'B', as indices into an axis quad (a, a', b, b').
_ROW_AXES = ([0, 0, 1, 1], [2, 3, 2, 3])


def _quad_probabilities(rho: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(n, 4, 4) probabilities of (n, 4, 3) axis quads (a, a', b, b'): per quad, one table's rows in order."""
    alice, bob = (quads[:, side].reshape(-1, 3) for side in _ROW_AXES)
    return joint_probabilities(rho, alice, bob).reshape(-1, 4, 4)


def table_for_axes(rho: np.ndarray, axes: AxisQuad) -> ExperimentTable:
    quad = np.array([[axes.a, axes.a_prime, axes.b, axes.b_prime]])
    return ExperimentTable(*(JointDistribution(*row) for row in _quad_probabilities(rho, quad)[0].tolist()))


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


def _coplanar_quads(alphas: list[float]) -> np.ndarray:
    """(n, 4, 3) axis quads (a, a', b, b') of the coplanar family, one per angle in ``alphas``: in the x-z
    plane at 0, pi/2, alpha and alpha + pi/2 from +z toward +x, each axis (sin, 0, cos) of its angle.
    A non-finite angle is a ValueError."""
    thetas = []
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        thetas += (0.0, math.pi / 2.0, alpha, alpha + math.pi / 2.0)
    axes = np.zeros((len(thetas), 3))
    axes[:, 0], axes[:, 2] = list(map(math.sin, thetas)), list(map(math.cos, thetas))
    return axes.reshape(-1, 4, 3)


def coplanar_axes(alpha: float) -> AxisQuad:
    """The standard coplanar CHSH family at relative angle ``alpha`` (see ``_coplanar_quads``).

    At alpha = pi/4 this realizes the angle pattern (A,B) = pi/4,
    (A,B') = 3pi/4, (A',B) = pi/4, (A,A') = (B,B') = pi/2, for which the
    singlet gives B_CHSH = -2*sqrt(2).
    """
    return AxisQuad(*_coplanar_quads([float(alpha)])[0])


def scan_tsirelson(rho: np.ndarray, alphas: Sequence[float]) -> list[tuple[float, float]]:
    """Sweep the coplanar family: (alpha, max |CHSH quantity|) per grid point.

    The whole grid is one batch of 4 * len(alphas) axis pairs; correlations
    and the four CHSH combinations are formed as arrays by the expressions of
    :func:`probability.chsh`; an angle whose combinations :class:`ChshQuantities` would
    refuse is refused with its message, naming the first offending combination.
    """
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        raise ValueError("angle grid must be non-empty")
    p = _quad_probabilities(rho, _coplanar_quads(alphas))
    e = _correlation(*np.moveaxis(p, 2, 0))  # (angles, rows)
    combinations = np.array(_chsh_combinations(*e.T))  # (4, angles)
    _check_chsh_batch(combinations)
    return list(zip(alphas, np.abs(combinations).max(axis=0).tolist()))

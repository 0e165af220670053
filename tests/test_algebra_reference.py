"""The two-qubit algebra against copies of its former one-generator-at-a-time loops.

``decompose`` takes one batched trace over the (15, 4, 4) generator stack,
``reconstruct`` one contraction and ``qubit_state`` forms (I + r.sigma)/2 by
the shared n.sigma; the loops below are what they replaced.  Decompositions
and single-qubit states must keep every bit (report bytes depend on them),
reconstructions agree within 1e-15.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_lab.bloch import LAMBDA_BASIS, decompose, reconstruct
from entangle_lab.quantum import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, product_state, qubit_state, singlet_state

reference_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)

LOOP_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def loop_basis():
    scale = 1.0 / math.sqrt(2.0)
    basis = [scale * np.kron(sigma, IDENTITY_2) for sigma in LOOP_PAULIS]
    basis += [scale * np.kron(IDENTITY_2, sigma) for sigma in LOOP_PAULIS]
    basis += [scale * np.kron(sigma_j, sigma_k) for sigma_j in LOOP_PAULIS for sigma_k in LOOP_PAULIS]
    return basis


LOOP_BASIS = loop_basis()


def loop_decompose(rho):
    return np.array([2.0 / math.sqrt(6.0) * np.trace(rho @ gen).real for gen in LOOP_BASIS])


def loop_reconstruct(r15):
    rho = np.eye(4, dtype=complex)
    for component, gen in zip(r15, LOOP_BASIS):
        rho += math.sqrt(6.0) * component * gen
    return rho / 4.0


def loop_qubit_state(r):
    rho = IDENTITY_2.copy() / 2.0
    for component, pauli in zip(np.asarray(r, dtype=float), LOOP_PAULIS):
        rho += 0.5 * component * pauli
    return rho


def bloch_in_ball(rng, length):
    v = rng.normal(size=3)
    return length * v / np.linalg.norm(v)


@st.composite
def states(draw):
    """Mixed states of rank 1-4, pure states and product states of any purity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "pure", "product"]))
    if kind == "mixed":
        rank = draw(st.integers(1, 4))
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real
    if kind == "pure":
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = psi / np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    lengths = draw(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)] * 2))
    return product_state(bloch_in_ball(rng, lengths[0]), bloch_in_ball(rng, lengths[1]))


@st.composite
def bloch_vectors(draw):
    """Bloch vectors in the closed ball, with exact zeros (of either sign) mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = bloch_in_ball(rng, draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    for i in draw(st.sets(st.integers(0, 2))):
        r[i] = draw(st.sampled_from([0.0, -0.0]))
    return r


def test_basis_stack_keeps_the_loop_generators_bit_for_bit():
    assert LAMBDA_BASIS.shape == (15, 4, 4)
    assert LAMBDA_BASIS.tobytes() == np.array(LOOP_BASIS).tobytes()


def test_basis_stack_is_read_only():
    assert not LAMBDA_BASIS.flags.writeable
    with pytest.raises(ValueError):
        LAMBDA_BASIS[0, 0, 0] = 1.0


def test_singlet_decomposition_matches_the_loop():
    assert decompose(singlet_state()).r15.tobytes() == loop_decompose(singlet_state()).tobytes()


@reference_settings
@given(rho=states())
def test_decompose_matches_the_loop_bit_for_bit(rho):
    assert decompose(rho).r15.tobytes() == loop_decompose(rho).tobytes()


@reference_settings
@given(rho=states())
def test_reconstruct_matches_the_loop(rho):
    r15 = decompose(rho).r15
    assert np.max(np.abs(reconstruct(r15) - loop_reconstruct(r15))) <= 1e-15


@reference_settings
@given(r=bloch_vectors())
def test_qubit_state_matches_the_loop_bit_for_bit(r):
    assert qubit_state(r).tobytes() == loop_qubit_state(r).tobytes()

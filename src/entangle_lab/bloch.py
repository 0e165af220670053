"""Hidden-measurement mechanics on the Bloch sphere, and its two-qubit extension.

A two-outcome measurement is represented by the diameter between the two
outcome directions n+ and -n+.  The state first decoheres onto the diameter
along a straight path, r_tau = (1 - tau) r + tau (r.n+) n+ for tau from 0 to
1, which leaves both outcome directions fixed and lands at the point that
splits the diameter into segments whose relative sizes are the outcome
probabilities; an abstract elastic band over the diameter then breaks at a
random point, and the side containing the break decides the outcome.  Only
the landing point enters the statistics, so no function traces the path.
A uniform break distribution reproduces the Born statistics exactly;
non-uniform (piecewise-constant) distributions span the
classical-to-solipsistic spectrum, and averaging over random distributions
recovers the Born values again.

As in the string model, the outcome is one threshold test: + iff the
uniform break measure lies below F(p+), with F =
``BreakDistribution.plus_probability``.  ``collapse_counts`` makes that
test on whole trial blocks through ``rng.count_outcomes``, the driver of the
string and quantum tables too, on bit planes packed 64 trials to a word.
``universal_average`` draws its random distributions in bounded blocks
through ``rng.map_blocks``, each block one ``rng.uniforms`` draw, and adds
the blocks' partial sums exactly.

For two qubits the analogous representation lives in 15 dimensions: a state
decomposes into the two local Bloch vectors plus a 9-component block
describing their connection, which for product states is fixed by the local
vectors and for entangled states is an independent piece of the description.
The 15 generators are one read-only (15, 4, 4) stack, ``LAMBDA_BASIS``, so
``decompose`` is one batched trace and ``reconstruct`` one contraction over
it.  Bloch vectors and measurement directions are checked by ``quantum``'s
one 3-vector check, and states by its one density-matrix check,
``validate_state``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import InvariantViolation
from .quantum import IDENTITY_2, PAULIS, _three_vector, validate_state
from .rng import DOMAIN_BLOCH_AVERAGE, DOMAIN_BLOCH_COLLAPSE, MAX_BLOCKS, check_workers, count_outcomes, map_blocks, uniforms

WEIGHT_TOL = 1e-12

#: Floats one block of :func:`universal_average` draws at most: its rows times cells.
AVERAGE_BLOCK_FLOATS = 1 << 20

#: Normalization making the 15 generators satisfy Tr(G_i G_j) = 2 delta_ij.
_GEN_SCALE = 1.0 / math.sqrt(2.0)
_DECOMP_SCALE = 2.0 / math.sqrt(6.0)


def bloch_vector(v: Sequence[float]) -> np.ndarray:
    """Validate a single-qubit Bloch vector: real 3-vector, |r| <= 1."""
    return _three_vector(v, "Bloch vector", unit=False)


@dataclass(frozen=True, eq=False)
class MeasurementFrame:
    """A two-outcome spin measurement: outcome directions n+ and n- = -n+."""

    n_plus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_plus", _three_vector(self.n_plus, "n_plus", unit=True))

    @property
    def n_minus(self) -> np.ndarray:
        return -self.n_plus


def outcome_probabilities(r: Sequence[float], frame: MeasurementFrame) -> tuple[float, float]:
    """Born probabilities (p+, p-) = ((1 +/- r.n+)/2) of the two outcomes.

    Geometrically these are the relative sizes of the two diameter segments
    cut by the decohered state.
    """
    c = float(np.dot(bloch_vector(r), frame.n_plus))
    return (1.0 + c) / 2.0, (1.0 - c) / 2.0


@dataclass(frozen=True, eq=False)
class BreakDistribution:
    """Break-point distribution over the diameter, in uniform-measure coordinates.

    ``weights`` holds one weight per equal-size cell of the diameter
    (non-negative, summing to one); None, the default, stands for the one
    cell ``(1.0,)``, the uniform distribution.  A point of the diameter is
    addressed by its uniform measure m in [0, 1), with lambda = 2m - 1 the
    usual coordinate from n- to n+.
    """

    weights: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray((1.0,) if self.weights is None else self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.isfinite(w).all():
            raise ValueError(f"cell weights must be finite, got {w.tolist()!r}")
        if np.any(w < 0):
            raise InvariantViolation(f"cell weights must be non-negative, got {w.tolist()!r}")
        with np.errstate(over="ignore"):  # huge weights sum to inf, which the check refuses
            total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvariantViolation(f"cell weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", w)

    def plus_probability(self, p_plus: float) -> float:
        """Exact probability that the break lands on the + side of the split.

        The + segment covers uniform measure [0, p_plus); each cell
        contributes its weight times the clipped overlap; the one uniform
        cell gives p_plus itself for every p_plus in [0, 1].
        """
        return float(np.dot(self.weights, _cell_overlap(p_plus, self.weights.size)))


def _cell_overlap(p_plus: float, cells: int) -> np.ndarray:
    """Fraction of each of ``cells`` equal cells of [0, 1) that lies in [0, p_plus)."""
    return np.clip(p_plus * cells - np.arange(cells), 0.0, 1.0)


def collapse_counts(
    r: Sequence[float],
    frame: MeasurementFrame,
    dist: BreakDistribution,
    n_samples: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> tuple[int, int]:
    """Tally of ``n_samples`` collapses: (n_plus, n_minus).

    Sample i is + iff trial i's threshold test at F(p+) in column 0 on
    ``DOMAIN_BLOCH_COLLAPSE`` holds (:meth:`rng.Block.below`); the counts are
    bit-identical for any ``workers`` value.
    """
    p_plus, _ = outcome_probabilities(r, frame)
    threshold = dist.plus_probability(p_plus)

    def outcome(_si, block):
        n_plus = int(np.bitwise_count(block.below(0, threshold)).sum())
        return n_plus, block.rows - n_plus

    counts = count_outcomes(master_seed, DOMAIN_BLOCH_COLLAPSE, 1, n_samples, 2, outcome, workers=workers)
    return int(counts[0, 0]), int(counts[0, 1])


def universal_average(
    r: Sequence[float],
    frame: MeasurementFrame,
    cells: int,
    n_distributions: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> tuple[float, float]:
    """Average outcome probability over random piecewise-constant distributions.

    Each distribution has ``cells`` equal cells with weights drawn as
    normalized independent uniforms; its exact + probability is computed in
    closed form and the average over ``n_distributions`` draws is returned.
    The construction is cell-permutation symmetric, so the average converges
    to the Born probabilities; with a single cell every distribution is the
    uniform one, and :func:`outcome_probabilities` is returned as it is,
    without a draw: both values are the Born ones bit for bit.

    ``cells`` lies in [1, ``AVERAGE_BLOCK_FLOATS``], so one block holds at
    least one distribution.  The distributions are drawn in blocks of at most
    ``AVERAGE_BLOCK_FLOATS // cells`` rows, block b from the substream
    ``(master_seed, DOMAIN_BLOCH_AVERAGE, 0, b)``, and ``n_distributions``
    fills at most ``rng.MAX_BLOCKS`` blocks.  Each block is reduced to
    the sum of its rows' + probabilities, ``raw @ overlap`` over the row
    sums, and the partial sums are added exactly with ``math.fsum``, so the
    result is bit-identical for any ``workers`` in [1, ``rng.MAX_WORKERS``].
    """
    if not 1 <= cells <= AVERAGE_BLOCK_FLOATS:
        raise ValueError(f"cells must lie in [1, {AVERAGE_BLOCK_FLOATS}], got {cells}")
    rows = AVERAGE_BLOCK_FLOATS // cells
    if not 1 <= n_distributions <= MAX_BLOCKS * rows:
        raise ValueError(f"n_distributions must lie in [1, {MAX_BLOCKS * rows}] for {cells} cells, got {n_distributions}")
    check_workers(workers)  # here too: one cell returns before map_blocks
    born = outcome_probabilities(r, frame)
    if cells == 1:
        return born
    overlap = _cell_overlap(born[0], cells)
    tasks = [(b, min(rows, n_distributions - b * rows)) for b in range(-(-n_distributions // rows))]

    def block_sum(task):
        block_index, n = task
        raw = uniforms((n, cells), master_seed, DOMAIN_BLOCH_AVERAGE, 0, block_index)
        return float(np.sum((raw @ overlap) / raw.sum(axis=1)))

    averaged = math.fsum(map_blocks(tasks, block_sum, workers=workers)) / n_distributions
    return averaged, 1.0 - averaged


def _generator_stack() -> np.ndarray:
    # Generator g is _GEN_SCALE * kron(left[g], right[g]), the Kronecker product
    # formed by np.kron's broadcast multiply.
    identities = np.broadcast_to(IDENTITY_2, (3, 2, 2))
    left = np.concatenate([PAULIS, identities, np.repeat(PAULIS, 3, axis=0)])
    right = np.concatenate([identities, PAULIS, np.tile(PAULIS, (3, 1, 1))])
    stack = _GEN_SCALE * (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(15, 4, 4)
    stack.setflags(write=False)
    return stack


#: The 15 orthogonal generators of the two-qubit Bloch representation: a read-only
#: (15, 4, 4) stack ordered as sigma_i x I (3), I x sigma_i (3), then sigma_j x sigma_k
#: in row-major (j, k) order (9), all scaled by 1/sqrt(2) so that Tr(G_i G_j) =
#: 2 delta_ij.  The ordering is frozen: serialized 15-vectors index into exactly this stack.
LAMBDA_BASIS = _generator_stack()


@dataclass(frozen=True, eq=False)
class BlochVector15:
    """Two-qubit generalized Bloch vector with its direct-sum views.

    Components 0-2 are the Alice block scaled by 1/sqrt(3), components 3-5
    the Bob block likewise, components 6-14 the connection block as-is.
    Pure states have unit norm; mixed states are shorter.
    """

    r15: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r15, dtype=float)
        if r.shape != (15,):
            raise ValueError(f"r15 must have 15 components, got shape {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError(f"r15 components must be finite, got {r.tolist()!r}")
        object.__setattr__(self, "r15", r)

    @property
    def r_alice(self) -> np.ndarray:
        return math.sqrt(3.0) * self.r15[0:3]

    @property
    def r_bob(self) -> np.ndarray:
        return math.sqrt(3.0) * self.r15[3:6]

    @property
    def r_conn(self) -> np.ndarray:
        return self.r15[6:15]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.r15))

    def to_json_dict(self) -> dict:
        return {
            "r15": [float(x) for x in self.r15],
            "r_alice": [float(x) for x in self.r_alice],
            "r_bob": [float(x) for x in self.r_bob],
            "r_conn": [float(x) for x in self.r_conn],
        }


def decompose(rho: np.ndarray) -> BlochVector15:
    """Generalized Bloch vector of a two-qubit state: r_i = (2/sqrt(6)) Tr(rho G_i)."""
    rho = validate_state(rho)
    return BlochVector15(r15=_DECOMP_SCALE * np.trace(rho @ LAMBDA_BASIS, axis1=1, axis2=2).real)


def reconstruct(vec: BlochVector15 | Sequence[float]) -> np.ndarray:
    """Density matrix from a generalized Bloch vector: (I + sqrt(6) r.G)/4."""
    r15 = (vec if isinstance(vec, BlochVector15) else BlochVector15(vec)).r15
    return (np.eye(4) + math.sqrt(6.0) * np.tensordot(r15, LAMBDA_BASIS, axes=1)) / 4.0


def rank_one_residual(r_conn: Sequence[float]) -> float:
    """Distance of the 3x3 connection block from its best rank-1 approximation.

    Zero (to round-off) exactly when the block factorizes as an outer
    product, as it does for product states; entangled states leave a
    residual.
    """
    matrix = np.asarray(r_conn, dtype=float).reshape(3, 3)
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    return float(np.linalg.norm(singular_values[1:]))

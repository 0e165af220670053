"""Deterministic substream derivation for reproducible, parallel-safe sampling.

Every sampling routine in the package derives its randomness from a 64-bit
master seed through a stable hash: the key of a substream is the SHA-256
digest of a domain tag and the little-endian encoding of
``(master_seed, *path)``, and the substream is an SFC64 generator whose
256-bit state is that digest, read as four little-endian 64-bit words.
Reproducibility comes from the per-path keys, not from the bit generator: a
substream is a pure function of its path, adding new paths never perturbs
existing ones, and work fanned out across any number of workers reproduces
the single-worker numbers bit for bit as long as the path layout is fixed.

The digest is a sound SFC64 state as it stands.  numpy's own seeding runs a
seed through ``SeedSequence`` and discards the first outputs so that a
structured seed (a small integer, say) does not start in a structured
state; a SHA-256 digest is already uniform over all 2**256 states and
unrelated between paths, which is what that mixing approximates.  SFC64's
counter word guarantees a period of at least 2**64 from any state, and a
substream here yields far fewer words than that, so two substreams overlap
only with negligible probability.  Setting the state directly costs
about a tenth of constructing a seeded generator.

Trial-indexed sampling uses one substream per (domain, setting, block,
column), with ``TRIAL_BLOCK`` trials per block.  Every sampled outcome is a
threshold test: for 0 < p < 1 let K = ceil(p * 2**64) (:func:`threshold_key`,
in exact integers).  Trial ``t`` reads byte ``t % TRIAL_BLOCK`` of its
column's substream (the bytes of its little-endian words), so the event
U < K is decided by ``b < K >> 56`` for every byte b except
``b == K >> 56``; when K has nonzero low 56 bits, each such tied trial takes
the next word w of the column's tie substream (the column's path plus
``TIE_PART``) in trial order and its event is ``(w >> 8) < K & (2**56 - 1)``.
So P(U < K) = K / 2**64 exactly, which is p for every float p >= 2**-12.  A
threshold of 0 or 1 is a constant and draws nothing, and a column that
nothing tests is never drawn.  :class:`Block` makes these tests for one
(setting, block); :func:`count_outcomes` is the one sampling driver on this
layout: it splits the (setting, block) tasks into one chunk per worker,
re-keys one SFC64 bit generator per chunk for every column it draws, and
sums the per-block counts of a caller's outcome function as integers.  The
string table, the quantum table and the Bloch collapse all sample through
it.  :func:`iter_block_slices` maps a range of trials to the blocks that
hold them, for the driver and for the trial-by-trial replay alike.  The one
float draw on this layout is :func:`block_uniforms`, a block's column 0 as
continuous uniforms, which places the break of a traced string trial.

``STREAM_FORMAT`` names the mapping from (seed, path) to sampled numbers.
Format 1 seeded Philox with one key per block; format 2 seeded SFC64 with
them; format 3 sampled the quantum table and the Bloch collapse on the
trial-block layout too; format 4 gave every column of a block its own
substream, so a string setting draws only the columns its outcome reads;
format 5, the current one, sets the SFC64 state from the whole digest and
decides each threshold test on one byte, and the quantum table samples
Alice's outcome on her marginal and Bob's on the conditional given hers.
Any change to the numbers a sampler yields must bump it.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

#: Version of the substream numbers; reports carry it as ``stream_format``.
STREAM_FORMAT = 5

#: Trials per substream block for trial-indexed sampling.
TRIAL_BLOCK = 1 << 16

#: Domain tags keeping unrelated commands on disjoint substreams.
DOMAIN_STRING_TRIALS = 1
DOMAIN_QUANTUM_SAMPLING = 2
DOMAIN_BLOCH_COLLAPSE = 3
DOMAIN_BLOCH_AVERAGE = 4
DOMAIN_STRING_TRACE = 5

#: The path part appended to a column's path to name its tie substream.
TIE_PART = 0

_KEY_PREFIX = b"entangle-lab/1:"

_U64 = (1 << 64) - 1

#: The weight of a threshold test's byte: K >> 56 is compared with the byte.
_BYTE_UNIT = 1 << 56


def stream_key(master_seed: int, *path: int) -> int:
    """256-bit key for the substream at ``path`` under ``master_seed``: the SHA-256 digest, little-endian."""
    payload = _KEY_PREFIX + (master_seed & _U64).to_bytes(8, "little")
    for part in path:
        payload += int(part).to_bytes(8, "little", signed=True)
    return int.from_bytes(hashlib.sha256(payload).digest(), "little")


def _keyed(bit_generator: np.random.SFC64, master_seed: int, *path: int) -> np.random.SFC64:
    """Set ``bit_generator`` to the substream at ``path``: its key's four little-endian words are the state."""
    words = np.frombuffer(stream_key(master_seed, *path).to_bytes(32, "little"), dtype="<u8")
    bit_generator.state = {
        "bit_generator": "SFC64", "state": {"state": words.astype(np.uint64)}, "has_uint32": 0, "uinteger": 0,
    }
    return bit_generator


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """A fresh, independent generator for the substream at ``path``."""
    return np.random.Generator(_keyed(np.random.SFC64(0), master_seed, *path))


def stream_words(master_seed: int, *path: int, n: int, bit_generator: np.random.SFC64 | None = None) -> np.ndarray:
    """The first ``n`` 64-bit words of the substream at ``path``, as little-endian uint64.

    ``bit_generator`` is re-keyed and used if given, so a caller drawing many
    columns sets up one generator; the words do not depend on it.
    """
    if bit_generator is None:
        bit_generator = np.random.SFC64(0)
    return _keyed(bit_generator, master_seed, *path).random_raw(n).astype("<u8", copy=False)


def threshold_key(p: float) -> int:
    """K = ceil(p * 2**64) for a float 0 <= p <= 1, in exact integers.

    The event U < K on a uniform 64-bit U has probability K / 2**64, which is
    p itself whenever p * 2**64 is an integer: every float p >= 2**-12.
    """
    numerator, denominator = float(p).as_integer_ratio()
    return -(-(numerator << 64) // denominator)


class Block:
    """The threshold events of one (setting, block) of trials, column by column.

    Trial ``block_index * TRIAL_BLOCK + r`` reads byte ``r`` of a column's
    substream, so drawing fewer rows gives the same leading events, tied
    trials included.  Each column is drawn once, on its first test;
    ``bit_generator`` is re-keyed for every column drawn.
    """

    def __init__(
        self, master_seed: int, domain: int, setting_index: int, block_index: int, rows: int,
        bit_generator: np.random.SFC64 | None = None,
    ):
        if not 0 < rows <= TRIAL_BLOCK:
            raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
        self.path = (master_seed, domain, setting_index, block_index)
        self.rows = rows
        self._bit_generator = np.random.SFC64(0) if bit_generator is None else bit_generator
        self._bytes: dict[int, np.ndarray] = {}

    def column_bytes(self, column: int) -> np.ndarray:
        """The ``rows`` leading bytes of the column's substream, uint8."""
        b = self._bytes.get(column)
        if b is None:
            words = stream_words(*self.path, column, n=-(-self.rows // 8), bit_generator=self._bit_generator)
            b = self._bytes[column] = words.view(np.uint8)[: self.rows]
        return b

    def below(self, column: int, p, pick: np.ndarray | None = None) -> np.ndarray:
        """The events U < K, K = :func:`threshold_key` (p), of every trial on ``column``.

        ``p`` is one threshold, or with the boolean mask ``pick`` a pair of
        them: trial t tests ``p[pick[t]]``.  A threshold at 0 or 1 is a
        constant event; if every threshold is one, nothing is drawn.
        """
        if pick is None:
            if not 0 < p < 1:
                return np.full(self.rows, p >= 1)
            hi, lo = divmod(threshold_key(p), _BYTE_UNIT)
            b = self.column_bytes(column)
            event = b < hi
            if lo:
                self._break_ties(column, event, np.flatnonzero(b == hi), lo)
            return event
        if not any(0 < q < 1 for q in p):
            return np.where(pick, p[1] >= 1, p[0] >= 1)
        (hi_0, lo_0), (hi_1, lo_1) = (divmod(threshold_key(q), _BYTE_UNIT) for q in p)
        b = self.column_bytes(column)
        hi = np.where(pick, np.uint16(hi_1), np.uint16(hi_0))
        event = b < hi
        if lo_0 or lo_1:
            tied = np.flatnonzero(b == hi)
            lo = np.where(pick[tied], np.uint64(lo_1), np.uint64(lo_0))
            self._break_ties(column, event, tied[lo != 0], lo[lo != 0])
        return event

    def _break_ties(self, column: int, event: np.ndarray, tied: np.ndarray, lo) -> None:
        """Decide the trials whose byte equals K >> 56: the k-th takes word k of the tie substream."""
        if tied.size:
            w = stream_words(*self.path, column, TIE_PART, n=tied.size, bit_generator=self._bit_generator)
            event[tied] = (w >> np.uint64(8)) < lo


def block_uniforms(master_seed: int, domain: int, setting_index: int, block_index: int, rows: int) -> np.ndarray:
    """The leading ``rows`` float draws of one block, a float64 vector.

    Entry ``r`` is the draw of trial ``block_index * TRIAL_BLOCK + r``, so
    fewer rows give the same leading values.  They are the block's column 0,
    the substream at its path plus ``0``: every string trace's break
    fractions depend on that trailing part, so ``STREAM_FORMAT`` fixes it.
    """
    if not 0 < rows <= TRIAL_BLOCK:
        raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
    return substream(master_seed, domain, setting_index, block_index, 0).random(rows)


def iter_block_slices(end: int, start: int = 0):
    """Yield (block_index, first_trial, rows) for the blocks that hold trials [start, end).

    ``first_trial`` is the block's first trial and ``rows`` counts from it
    to ``end`` or the end of the block, so the cost is one step per block
    in the range, whatever ``start`` is.
    """
    if start < end:
        for block_index in range(start // TRIAL_BLOCK, -(-end // TRIAL_BLOCK)):
            first = block_index * TRIAL_BLOCK
            yield block_index, first, min(end - first, TRIAL_BLOCK)


def sign_counts(a_plus: np.ndarray, b_plus: np.ndarray) -> tuple[int, int, int, int]:
    """The cell counts (++, +-, -+, --) of paired + masks, from three ``count_nonzero`` calls."""
    n_a, n_b, n_ab = np.count_nonzero(a_plus), np.count_nonzero(b_plus), np.count_nonzero(a_plus & b_plus)
    return n_ab, n_a - n_ab, n_b - n_ab, a_plus.size - n_a - n_b + n_ab


def count_outcomes(
    master_seed: int, domain: int, n_settings: int, n_trials: int, n_cells: int,
    outcome: Callable[[int, Block], Sequence[int]], *, workers: int = 1,
) -> np.ndarray:
    """Outcome counts of ``n_trials`` trials per setting, shape (n_settings, n_cells).

    ``outcome(setting_index, block)`` returns the ``n_cells`` counts of the
    ``block.rows`` trials of one :class:`Block`.  The (setting, block) tasks
    are dealt round-robin into one chunk per worker, and each chunk re-keys
    one SFC64 bit generator for every column it draws.  The counts are
    integer sums over blocks whose events depend only on the block layout, so
    they are bit-identical for any ``workers`` value.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(si, block, rows) for si in range(n_settings) for block, _start, rows in iter_block_slices(n_trials)]

    def run(chunk):
        bit_generator = np.random.SFC64(0)
        counts = np.zeros((n_settings, n_cells), dtype=np.int64)
        for si, block, rows in chunk:
            counts[si] += outcome(si, Block(master_seed, domain, si, block, rows, bit_generator))
        return counts

    n_chunks = min(workers, len(tasks))
    if n_chunks == 1:
        return run(tasks)
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        return sum(pool.map(run, [tasks[i::n_chunks] for i in range(n_chunks)]))

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
column), with ``TRIAL_BLOCK`` trials per block, and keeps every event packed:
trial r of a block is bit ``r % 64`` of word ``r // 64``.  Every sampled
outcome is a threshold test: for 0 < p < 1 let K = ceil(p * 2**64)
(:func:`threshold_key`, in exact integers).  Trial r's uniform U is read
most significant bit first, one bit plane at a time: bit j of U (from the
top) is bit r of plane j, and plane j is words
``[PLANE_WORDS * j, PLANE_WORDS * j + ceil(rows / 64))`` of the column's
substream, so fewer rows read the same leading bits.  A test reads
m = min(significant bits of K, ``PLANES``) planes and stops there: a
dyadic k / 2**m (the fair cut at 1/2, or 0.75 and 0.25) is decided by m bits
per trial.  A trial whose leading ``PLANES`` bits all equal K's while K
has nonzero low 56 bits is tied; the k-th tied trial, in trial order, takes
word ``PLANES * PLANE_WORDS + k`` of the same substream and its event is
``(w >> 8) < K & (2**56 - 1)``.  So P(U < K) = K / 2**64 exactly, which is p
for every float p >= 2**-12.  A threshold of 0 or 1 is a constant and draws
nothing, and a column that nothing tests is never drawn.  :class:`Block`
makes these tests for one (setting, block); :func:`count_outcomes` is the
one counting driver on this layout: it runs the (setting, block) tasks
through :func:`map_blocks`, which deals tasks into one chunk per worker
with one SFC64 bit generator each, re-keyed for every substream drawn, and
it sums the per-block counts of a caller's outcome function as integers.
The string table, the quantum table and the Bloch collapse all sample
through it, and the Bloch average draws its float blocks through
:func:`map_blocks` too, each at most ``MAX_BLOCKS`` blocks per setting.
:func:`iter_block_slices` maps a range of trials to the blocks that hold
them, for the driver and for the trial-by-trial replay alike.  The one float
draw is :func:`uniforms`, numpy's ``Generator.random`` on a substream;
:func:`block_uniforms` draws a block's column 0 through it, which places the
break of a traced string trial.

``STREAM_FORMAT`` names the mapping from (seed, path) to sampled numbers.
Any change to the numbers a sampler yields must bump it.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Sequence

import numpy as np

#: Version of the substream numbers; reports carry it as ``stream_format``.
STREAM_FORMAT = 6

#: Trials per substream block for trial-indexed sampling.
TRIAL_BLOCK = 1 << 16

#: Most blocks per setting that one count takes: 2**32 trials.
MAX_BLOCKS = 1 << 16

#: Most threads :func:`map_blocks` runs; a larger ``workers`` is refused.
MAX_WORKERS = 64

#: Words per bit plane: plane j of a column starts at word ``j * PLANE_WORDS``.
PLANE_WORDS = TRIAL_BLOCK // 64

#: Planes a threshold test reads at most; a trial tied after them takes a tie word.
PLANES = 8

#: Domain tags keeping unrelated commands on disjoint substreams.
DOMAIN_STRING_TRIALS = 1
DOMAIN_QUANTUM_SAMPLING = 2
DOMAIN_BLOCH_COLLAPSE = 3
DOMAIN_BLOCH_AVERAGE = 4
DOMAIN_STRING_TRACE = 5

_KEY_PREFIX = b"entangle-lab/1:"

_U64 = (1 << 64) - 1

#: K's bits below the planes, which a tie word decides.
_LOW_BITS = (1 << (64 - PLANES)) - 1

_ALL, _NONE = np.uint64(_U64), np.uint64(0)

#: The ``valid`` mask of a full block, shared read-only.
_FULL_BLOCK = np.full(PLANE_WORDS, _ALL)
_FULL_BLOCK.setflags(write=False)


def stream_key(master_seed: int, *path: int) -> int:
    """256-bit key for the substream at ``path`` under ``master_seed``: the SHA-256 digest, little-endian."""
    payload = _KEY_PREFIX + struct.pack(f"<Q{len(path)}q", master_seed & _U64, *path)
    return int.from_bytes(hashlib.sha256(payload).digest(), "little")


def bit_stream(master_seed: int, *path: int, bit_generator: np.random.SFC64 | None = None) -> np.random.SFC64:
    """The substream at ``path`` as an SFC64 bit generator standing at its first word.

    Its state is the four little-endian words of the path's key.
    ``bit_generator`` is re-keyed and returned if given, so a caller drawing
    many substreams sets up one generator; the words do not depend on it.
    """
    if bit_generator is None:
        bit_generator = np.random.SFC64(0)
    words = np.frombuffer(stream_key(master_seed, *path).to_bytes(32, "little"), dtype="<u8")
    bit_generator.state = {
        "bit_generator": "SFC64", "state": {"state": words}, "has_uint32": 0, "uinteger": 0,
    }
    return bit_generator


def uniforms(shape, master_seed: int, *path: int, bit_generator: np.random.SFC64 | None = None) -> np.ndarray:
    """``Generator.random(shape)`` on the substream at ``path``; ``bit_generator`` as in :func:`bit_stream`."""
    return np.random.Generator(bit_stream(master_seed, *path, bit_generator=bit_generator)).random(shape)


def threshold_key(p: float) -> int:
    """K = ceil(p * 2**64) for a float 0 <= p <= 1, in exact integers.

    The event U < K on a uniform 64-bit U has probability K / 2**64, which is
    p itself whenever p * 2**64 is an integer: every float p >= 2**-12.
    """
    numerator, denominator = float(p).as_integer_ratio()
    return -(-(numerator << 64) // denominator)


def _planes_read(k: int) -> int:
    """The planes deciding U < K for 0 < K < 2**64: K's significant bits, at most ``PLANES``."""
    return min(65 - (k & -k).bit_length(), PLANES)


def _by_pick(flag_0: int, flag_1: int, pick: np.ndarray | None) -> np.ndarray:
    """The word mask of the trials whose key has its flag set: ``pick`` chooses key 1's flag, else key 0's.

    Where the flags agree the mask is a scalar, all ones or none.
    """
    if bool(flag_0) == bool(flag_1):
        return _ALL if flag_0 else _NONE
    return pick if flag_1 else ~pick


class Block:
    """The threshold events of one (setting, block) of trials, packed into words.

    Trial ``block_index * TRIAL_BLOCK + r`` is bit ``r % 64`` of word
    ``r // 64`` of every event.  ``valid`` has the bits of the ``rows`` trials
    set, and the events :meth:`below` returns are zero beyond them.  Each
    test draws its column's leading planes; ``bit_generator`` is re-keyed for
    every column drawn.
    """

    def __init__(
        self, master_seed: int, domain: int, setting_index: int, block_index: int, rows: int,
        bit_generator: np.random.SFC64 | None = None,
    ):
        if not 0 < rows <= TRIAL_BLOCK:
            raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
        self.path = (master_seed, domain, setting_index, block_index)
        self.rows = rows
        self.words = -(-rows // 64)
        self.valid = _FULL_BLOCK
        if rows < TRIAL_BLOCK:
            self.valid = np.full(self.words, _ALL)
            self.valid[-1] >>= np.uint64(-rows % 64)
        self._bit_generator = np.random.SFC64(0) if bit_generator is None else bit_generator

    def below(self, column: int, p, pick: np.ndarray | None = None) -> np.ndarray:
        """The events U < K, K = :func:`threshold_key` (p), of every trial on ``column``, as words.

        ``p`` is one threshold, or with the word mask ``pick`` a pair of
        them: trial t tests ``p[1]`` where its pick bit is set, else
        ``p[0]``.  A threshold at 0 or 1 is a constant event; if every
        threshold is one, nothing is drawn.
        """
        keys = [threshold_key(p)] if pick is None else [threshold_key(q) for q in p]
        always = _by_pick(keys[0] >> 64, keys[-1] >> 64, pick)  # a key of 2**64 (p = 1) holds for every U
        inside = [k for k in keys if 0 < k < 1 << 64]
        if not inside:
            return always & self.valid
        m = max(map(_planes_read, inside))
        stream = bit_stream(*self.path, column, bit_generator=self._bit_generator)
        planes = stream.random_raw(m * PLANE_WORDS).reshape(m, PLANE_WORDS)[:, : self.words]
        k_bits = [_by_pick(keys[0] >> 63 - j & 1, keys[-1] >> 63 - j & 1, pick) for j in range(m)]
        # MSB first: ``agree`` holds the trials whose U has matched their key
        # on every plane so far, and the first plane where they differ
        # decides: U < K where the key has the bit there.  Both stay within
        # the valid bits.
        clear = ~planes  # U's zero bits
        below, agree = None, self.valid
        tie_path = m == PLANES and any(k & _LOW_BITS for k in inside)
        for j, k_bit in enumerate(k_bits):
            if k_bit is _NONE:
                decided, match = None, clear[j]
            elif k_bit is _ALL:
                decided, match = agree & clear[j], planes[j]
            else:
                decided, match = agree & clear[j] & k_bit, ~(planes[j] ^ k_bit)
            if decided is not None:
                below = decided if below is None else below | decided
            if tie_path or j < m - 1:
                agree = agree & match
        if below is None:
            below = np.zeros(self.words, dtype=np.uint64)
        if tie_path:
            # The stream stands at its first tie word.
            tied = agree & _by_pick(keys[0] & _LOW_BITS, keys[-1] & _LOW_BITS, pick)
            below |= self._break_ties(stream, tied, keys, pick)
        if always is not _NONE:
            below |= always & self.valid
        return below

    def _break_ties(self, stream, tied: np.ndarray, keys, pick) -> np.ndarray:
        """The events of the ``tied`` trials, by the stream's next words; zero elsewhere.

        The k-th tied trial, in trial order, takes word k: its event is the
        word's top 56 bits below its key's low bits.
        """
        events = np.zeros(self.words, dtype=np.uint64)
        words = tied.nonzero()[0]  # about a quarter of the words hold a tied trial: unpack only those
        bits = np.unpackbits(tied[words].astype("<u8", copy=False).view(np.uint8), bitorder="little").view(bool)
        positions = bits.nonzero()[0]
        if positions.size:
            low = np.array([k & _LOW_BITS for k in keys], dtype=np.uint64)
            if pick is not None:
                picked = np.unpackbits(pick[words].astype("<u8", copy=False).view(np.uint8), bitorder="little")
                low = low[picked[positions]]
            bits[positions] = (stream.random_raw(positions.size) >> np.uint64(PLANES)) < low
            events[words] = np.packbits(bits, bitorder="little").view("<u8")
        return events

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """The block's packed ``words`` as one bool per trial."""
        return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=self.rows, bitorder="little").view(bool)


def block_uniforms(master_seed: int, domain: int, setting_index: int, block_index: int, rows: int) -> np.ndarray:
    """The leading ``rows`` float draws of one block, a float64 vector.

    Entry ``r`` is the draw of trial ``block_index * TRIAL_BLOCK + r``, so
    fewer rows give the same leading values.  They are the block's column 0,
    the substream at its path plus ``0``: every string trace's break
    fractions depend on that trailing part, so ``STREAM_FORMAT`` fixes it.
    """
    if not 0 < rows <= TRIAL_BLOCK:
        raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
    return uniforms(rows, master_seed, domain, setting_index, block_index, 0)


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


def sign_counts(a_plus: np.ndarray, b_plus: np.ndarray, rows: int) -> tuple[int, int, int, int]:
    """The cell counts (++, +-, -+, --) of paired + masks packed into words, over their first ``rows`` bits.

    Trial r is bit ``r % 64`` of word ``r // 64``; the bits past ``rows`` in
    the last word are padding, whatever they hold.
    """
    n_a, n_b, n_ab = np.add.reduce(np.bitwise_count(np.concatenate((a_plus, b_plus, a_plus & b_plus)).reshape(3, -1)), axis=1).tolist()
    if rows % 64:
        padding = _U64 << rows % 64 & _U64
        a, b = int(a_plus[-1]) & padding, int(b_plus[-1]) & padding
        n_a, n_b, n_ab = n_a - a.bit_count(), n_b - b.bit_count(), n_ab - (a & b).bit_count()
    return n_ab, n_a - n_ab, n_b - n_ab, rows - n_a - n_b + n_ab


def map_blocks(tasks: Sequence, fn: Callable, *, workers: int = 1) -> list:
    """``[fn(task, bit_generator) for task in tasks]``, computed in one chunk per worker.

    The tasks are dealt round-robin into ``min(workers, len(tasks))`` chunks,
    each run on its own thread with its own SFC64 bit generator, which ``fn``
    re-keys for every substream it draws.  The results come back in task
    order, so a caller combining them in that order gets the same result
    for any ``workers`` value.  ``workers`` lies in [1, ``MAX_WORKERS``].
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")

    def run(chunk):
        bit_generator = np.random.SFC64(0)
        return [fn(task, bit_generator) for task in chunk]

    n_chunks = min(workers, len(tasks))
    if n_chunks <= 1:
        return run(tasks)
    # Imported here: a one-chunk run does not pay for the thread pool's imports.
    from concurrent.futures import ThreadPoolExecutor

    results = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        for i, part in enumerate(pool.map(run, [tasks[i::n_chunks] for i in range(n_chunks)])):
            results[i::n_chunks] = part
    return results


def count_outcomes(
    master_seed: int, domain: int, n_settings: int, n_trials: int, n_cells: int,
    outcome: Callable[[int, Block], Sequence[int]], *, workers: int = 1,
) -> np.ndarray:
    """Outcome counts of ``n_trials`` trials per setting, shape (n_settings, n_cells).

    ``outcome(setting_index, block)`` returns the ``n_cells`` counts of the
    ``block.rows`` trials of one :class:`Block`.  The (setting, block) tasks
    run through :func:`map_blocks`.  The counts are integer sums over blocks
    whose events depend only on the block layout, so they are bit-identical
    for any ``workers`` value.
    """
    if not 1 <= n_trials <= MAX_BLOCKS * TRIAL_BLOCK:
        raise ValueError(f"n_trials must lie in [1, {MAX_BLOCKS * TRIAL_BLOCK}], got {n_trials}")
    tasks = [(si, block, rows) for si in range(n_settings) for block, _start, rows in iter_block_slices(n_trials)]

    def run(task, bit_generator):
        si, block, rows = task
        return outcome(si, Block(master_seed, domain, si, block, rows, bit_generator))

    counts = np.zeros((n_settings, n_cells), dtype=np.int64)
    for (si, _block, _rows), cells in zip(tasks, map_blocks(tasks, run, workers=workers)):
        counts[si] += cells
    return counts

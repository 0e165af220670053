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
only with negligible probability.  :func:`bit_stream` writes the key into
the generator's state in place, through its public ``ctypes.state_address``,
in numpy's ``sfc64_state`` layout: the four words in native order, then
``has_uint32 = 0`` and ``uinteger = 0``.  Before a thread's generator is
made, one key is written that way and compared with what the ``state``
setter makes; a mismatch raises ``RuntimeError``, so a numpy with another
layout is refused, never silently mis-keyed.  The check waits for the first
keying, not the import, because it needs ``numpy.random``, which an exact
command never loads.

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
makes these tests for a run of consecutive blocks of one setting, whose
words are its blocks' words one after another, so that one pass of the
plane chain, and of a caller's outcome function, covers the whole run; a
tie path still runs block by block, as each block's tie words follow its
own planes.  :func:`count_outcomes` is the one counting driver on this
layout: it splits each setting's blocks into the fewest runs of at most
``_RUN_BLOCKS`` blocks, their lengths differing by at most one, runs one
task per (setting, run) through :func:`map_blocks`, which runs the tasks
on a pool of at most ``workers`` threads and returns the results in task
order, and it sums the per-run counts of a caller's outcome function as
integers.  The plane chain inverts a test's freshly drawn planes in place.
The string table, the quantum table and the Bloch collapse all sample
through it, and the Bloch average draws its float blocks through
:func:`map_blocks` too, each at most ``MAX_BLOCKS`` blocks per setting.
:func:`iter_block_slices` maps a range of trials to those runs, or to
single blocks for the trial-by-trial replay.  The one float draw is
:func:`uniforms`, numpy's ``Generator.random`` on a substream;
:func:`block_uniforms` draws a block's column 0 through it, which places the
break of a traced string trial.
Every sampler draw, a :class:`Block` test or a :func:`uniforms` call,
re-keys the drawing thread's own SFC64 right before it reads: that is the
one generator :func:`bit_stream` keys and returns, so the words drawn depend
on the substream path alone, never on the thread.  The view of its state
that keys it is kept beside it, and both go when the thread ends.

``STREAM_FORMAT`` names the mapping from (seed, path) to sampled numbers.
Any change to the numbers a sampler yields must bump it.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import struct
import threading
from typing import Callable, Sequence

import numpy as np

#: Version of the substream numbers; reports carry it as ``stream_format``.
STREAM_FORMAT = 6

#: Trials per substream block for trial-indexed sampling.
TRIAL_BLOCK = 1 << 16

#: Most blocks per setting that one count takes.
MAX_BLOCKS = 1 << 16

#: Most trials per setting that one count takes, ``MAX_BLOCKS`` full blocks: 2**32.
MAX_TRIALS = MAX_BLOCKS * TRIAL_BLOCK

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

#: numpy's ``sfc64_state``: the four state words in native order, ``has_uint32``, ``uinteger``.
_SFC64_STATE = struct.Struct("@4QiI")

# Each thread's SFC64, which every sampler draw re-keys, and the view of its
# state that keys it (_thread_generator); both go when the thread ends.
_threads = threading.local()

#: Most blocks in one :class:`Block` of :func:`count_outcomes`: 5 * 2**16
#: trials, whose events are 40 KiB arrays.  Each (setting, run) task has a
#: fixed cost, so fewer runs are faster, as long as a test holds one plane
#: stack at a time (8 planes of a 5-block run are 320 KiB): the plane chain
#: inverts the stack in place, and the drawn blocks go once they are joined.
#: A second stack per test made the allocator hand its pages back and
#: re-fault them on every task.
_RUN_BLOCKS = 5


def stream_key(master_seed: int, *path: int) -> int:
    """256-bit key for the substream at ``path`` under ``master_seed``: the SHA-256 digest, little-endian."""
    payload = _payload_packer(len(path))(_KEY_PREFIX, master_seed & _U64, *path)
    return int.from_bytes(hashlib.sha256(payload).digest(), "little")


@functools.cache
def _payload_packer(parts: int) -> Callable[..., bytes]:
    """Packs a key's payload for a path of ``parts`` parts: the prefix, the seed, the path, little-endian."""
    return struct.Struct(f"<{len(_KEY_PREFIX)}sQ{parts}q").pack


def bit_stream(master_seed: int, *path: int) -> np.random.SFC64:
    """The substream at ``path``: the calling thread's own SFC64, re-keyed to stand at its first word.

    Its state is the four little-endian words of the path's key.  Every call
    on a thread returns the same generator, so a stream is read before the
    thread keys the next one.
    """
    bit_generator = _thread_generator()
    _write_key(_threads.view, stream_key(master_seed, *path))
    return bit_generator


def _write_key(view: ctypes.Array, key: int) -> None:
    """Key the SFC64 whose state ``view`` is: the key's four words, low word first, and no half word left."""
    _SFC64_STATE.pack_into(view, 0, key & _U64, key >> 64 & _U64, key >> 128 & _U64, key >> 192, 0, 0)


def _thread_generator() -> np.random.SFC64:
    """The calling thread's own SFC64, made on its first use once :func:`_check_state_layout` passes."""
    bit_generator = getattr(_threads, "bit_generator", None)
    if bit_generator is None:
        _check_state_layout()
        bit_generator = np.random.SFC64(0)
        _threads.view = _state_view(bit_generator)
        _threads.bit_generator = bit_generator
    return bit_generator


def _state_view(bit_generator: np.random.SFC64) -> ctypes.Array:
    """A writable view of the generator's ``sfc64_state``.

    The view holds no reference to the generator: whoever keeps the view
    keeps the generator with it.
    """
    return (ctypes.c_char * _SFC64_STATE.size).from_address(bit_generator.ctypes.state_address)


@functools.cache
def _check_state_layout() -> None:
    """Raise ``RuntimeError`` unless :func:`bit_stream` keys an SFC64 exactly as its ``state`` setter does.

    It runs before the first thread's generator is made, and again before
    each new thread's generator until it passes.
    """
    key = stream_key(0)
    direct, by_setter = np.random.SFC64(0), np.random.SFC64(0)
    np.random.Generator(direct).integers(1 << 32, dtype=np.uint32)  # has_uint32 and uinteger for the write to clear
    _write_key(_state_view(direct), key)  # as bit_stream writes
    words = np.array([key >> 64 * i & _U64 for i in range(4)], dtype=np.uint64)
    by_setter.state = {"bit_generator": "SFC64", "state": {"state": words}, "has_uint32": 0, "uinteger": 0}
    written, expected = direct.state, by_setter.state
    if not (
        np.array_equal(written["state"]["state"], expected["state"]["state"])
        and (written["has_uint32"], written["uinteger"]) == (expected["has_uint32"], expected["uinteger"])
        and np.array_equal(direct.random_raw(4), by_setter.random_raw(4))
    ):
        raise RuntimeError(f"numpy {np.__version__}: SFC64's state is not laid out as {_SFC64_STATE.format!r}")


def uniforms(shape, master_seed: int, *path: int) -> np.ndarray:
    """``Generator.random(shape)`` on the substream at ``path``, drawn on the calling thread's own SFC64."""
    return np.random.Generator(bit_stream(master_seed, *path)).random(shape)


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
    """The threshold events of a run of consecutive blocks of one setting, packed into words.

    The run starts at block ``block_index`` and its ``rows`` trials, at most
    ``max_blocks * TRIAL_BLOCK``, fill ``ceil(rows / TRIAL_BLOCK)`` blocks,
    all but the last whole.  Its words
    are the row-major stack of its blocks' words, ``PLANE_WORDS`` to a block;
    a block fills whole words, so trial ``block_index * TRIAL_BLOCK + r`` is
    bit ``r % 64`` of word ``r // 64`` of every event, for a run as for one
    block.  ``valid`` has the bits of the ``rows`` trials set, and the events
    :meth:`below` returns are zero beyond them; it is read-only, shared by
    every Block of ``rows`` trials.  Each test draws its column's
    leading planes from every block's own substream on the drawing
    thread's own SFC64, re-keyed for every (block, column) drawn, so a
    Block may be made on one thread and drawn on another.  The drawn planes
    are the test's own, and the plane chain inverts them in place.
    """

    def __init__(self, master_seed: int, domain: int, setting_index: int, block_index: int, rows: int, *, max_blocks: int = 1):
        if not 0 < rows <= max_blocks * TRIAL_BLOCK:
            raise ValueError(f"rows must be in [1, {max_blocks * TRIAL_BLOCK}], got {rows}")
        self.path = (master_seed, domain, setting_index, block_index)
        self.rows = rows
        self.words = -(-rows // 64)
        self.valid = _valid_mask(rows)

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
        if m == PLANES and any(k & _LOW_BITS for k in inside):
            # A block's tie words follow its planes on its own stream, which
            # the next block re-keys: the chain runs one block at a time.
            below = np.empty(self.words, dtype=np.uint64)
            for start in range(0, self.words, PLANE_WORDS):
                words = slice(start, start + PLANE_WORDS)
                valid = self.valid[words]
                stream, planes = self._planes(column, start, m)
                picked = None if pick is None else pick[words]
                below[words] = _chain(planes[:, : valid.size], keys, picked, valid, stream)
        else:
            # The drawn blocks go once joined, before the chain (``_RUN_BLOCKS``).
            planes = np.concatenate([self._planes(column, start, m)[1] for start in range(0, self.words, PLANE_WORDS)], axis=1)
            below = _chain(planes[:, : self.words], keys, pick, self.valid)
        if always is not _NONE:
            below |= always & self.valid
        return below

    def _planes(self, column: int, start: int, m: int) -> tuple[np.random.SFC64, np.ndarray]:
        """The stream of the block whose words start at ``start`` and its first ``m`` planes, (m, ``PLANE_WORDS``).

        The stream is left standing at the block's first tie word.
        """
        seed, domain, si, first = self.path
        block = first + start // PLANE_WORDS
        stream = bit_stream(seed, domain, si, block, column)
        return stream, stream.random_raw(m * PLANE_WORDS).reshape(m, PLANE_WORDS)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """The block's packed ``words`` as one bool per trial."""
        return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=self.rows, bitorder="little").view(bool)


@functools.lru_cache(maxsize=32)
def _valid_mask(rows: int) -> np.ndarray:
    """The read-only words of ``rows`` trials: their bits set, the padding bits of the last word clear."""
    valid = np.full(-(-rows // 64), _ALL)
    valid[-1] >>= np.uint64(-rows % 64)
    valid.flags.writeable = False
    return valid


@functools.lru_cache(maxsize=256)
def _key_bits(k: int, m: int) -> tuple[np.uint64, ...]:
    """The leading ``m`` bits of one key K, MSB first, each as a word mask: all ones or none."""
    return tuple(_ALL if k >> 63 - j & 1 else _NONE for j in range(m))


def _chain(planes: np.ndarray, keys, pick, valid: np.ndarray, tie_stream=None) -> np.ndarray:
    """The events U < K decided by ``planes`` (MSB first) within ``valid``; ``pick`` as in :meth:`Block.below`.

    ``planes`` is overwritten: the chain inverts it in place, to U's zero
    bits, so it makes no temporary of the stack's size.  With
    ``tie_stream``, the stream standing at the first tie word of these
    planes, the trials still tied after them take their tie words.
    """
    if pick is None:
        k_bits = _key_bits(keys[0], len(planes))
    else:
        k_bits = [_by_pick(keys[0] >> 63 - j & 1, keys[-1] >> 63 - j & 1, pick) for j in range(len(planes))]
    # MSB first: ``agree`` holds the trials whose U has matched their key
    # on every plane so far, and the first plane where they differ
    # decides: U < K where the key has the bit there.  Both stay within
    # the valid bits.  Where the key bit is set, an agreeing trial either
    # decides there or keeps agreeing, so ``agree ^ decided`` is the next
    # ``agree``.
    clear = np.invert(planes, out=planes)
    below, agree = None, valid
    for j, k_bit in enumerate(k_bits):
        if k_bit is _NONE:
            decided, match = None, clear[j]
        elif k_bit is _ALL:
            decided, match = agree & clear[j], None
        else:
            decided, match = agree & clear[j] & k_bit, clear[j] ^ k_bit
        if decided is not None:
            below = decided if below is None else below | decided
        if tie_stream is not None or j < len(planes) - 1:
            agree = agree ^ decided if match is None else agree & match
    if below is None:
        below = np.zeros_like(valid)
    if tie_stream is not None:
        tied = agree & _by_pick(keys[0] & _LOW_BITS, keys[-1] & _LOW_BITS, pick)
        below |= _break_ties(tie_stream, tied, keys, pick)
    return below


def _break_ties(stream, tied: np.ndarray, keys, pick) -> np.ndarray:
    """The events of the ``tied`` trials, by the stream's next words; zero elsewhere.

    The k-th tied trial, in trial order, takes word k: its event is the
    word's top 56 bits below its key's low bits.
    """
    events = np.zeros_like(tied)
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


def iter_block_slices(end: int, start: int = 0, *, blocks: int = 1):
    """Yield (block_index, first_trial, rows) for the fewest runs of at most ``blocks`` blocks that hold trials [start, end).

    The runs' lengths in blocks differ by at most one, the longer first: 10
    blocks at ``blocks=5`` make 5 + 5, and 16 make 4 + 4 + 4 + 4.  A run
    starts at block ``block_index``, the first at the block holding
    ``start``; ``first_trial`` is its first trial, and ``rows`` counts from
    it to ``end`` or the end of the run, so the cost is one step per run in
    the range, whatever ``start`` is.
    """
    if start < end:
        block_index, end_block = start // TRIAL_BLOCK, -(-end // TRIAL_BLOCK)
        n_runs = -(-(end_block - block_index) // blocks)
        length, longer = divmod(end_block - block_index, n_runs)
        for run in range(n_runs):
            run_blocks = length + (run < longer)
            first = block_index * TRIAL_BLOCK
            yield block_index, first, min(end - first, run_blocks * TRIAL_BLOCK)
            block_index += run_blocks


#: Most words :func:`sign_counts` takes: a count of 64 bits a word then stays below 2**32.
_MAX_SIGN_WORDS = 1 << 26


def sign_counts(a_plus: np.ndarray, b_plus: np.ndarray, rows: int) -> tuple[int, int, int, int]:
    """The cell counts (++, +-, -+, --) of paired + masks packed into words, over their first ``rows`` bits.

    Trial r is bit ``r % 64`` of word ``r // 64``; the bits past ``rows`` in
    the last word are padding, whatever they hold.  The counts are summed in
    32 bits, so masks of ``_MAX_SIGN_WORDS`` words or more are refused with
    ``ValueError``.
    """
    if a_plus.size >= _MAX_SIGN_WORDS:
        raise ValueError(f"sign_counts takes fewer than {_MAX_SIGN_WORDS} words, got {a_plus.size}")
    popcounts = np.empty((3, a_plus.size), dtype=np.uint8)
    np.bitwise_count(a_plus, out=popcounts[0])
    np.bitwise_count(b_plus, out=popcounts[1])
    np.bitwise_count(a_plus & b_plus, out=popcounts[2])
    n_a, n_b, n_ab = np.add.reduce(popcounts, axis=1, dtype=np.uint32).tolist()
    if rows % 64:
        padding = _U64 << rows % 64 & _U64
        a, b = int(a_plus[-1]) & padding, int(b_plus[-1]) & padding
        n_a, n_b, n_ab = n_a - a.bit_count(), n_b - b.bit_count(), n_ab - (a & b).bit_count()
    return n_ab, n_a - n_ab, n_b - n_ab, rows - n_a - n_b + n_ab


def check_workers(workers: int) -> None:
    """Refuse a ``workers`` value outside [1, ``MAX_WORKERS``] with ``ValueError``."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")


def map_blocks(tasks: Sequence, fn: Callable, *, workers: int = 1) -> list:
    """``[fn(task) for task in tasks]``, computed on ``min(workers, len(tasks))`` threads.

    A draw in ``fn`` re-keys its thread's own SFC64, so a task's result does
    not depend on the thread that runs it.  The results come back in task
    order, so a caller combining them in that order gets the same result for
    any ``workers`` value.  ``workers`` lies in [1, ``MAX_WORKERS``].
    """
    check_workers(workers)
    threads = min(workers, len(tasks))
    if threads <= 1:
        return [fn(task) for task in tasks]
    # Imported here: a one-thread run does not pay for the thread pool's imports.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def count_outcomes(
    master_seed: int, domain: int, n_settings: int, n_trials: int, n_cells: int,
    outcome: Callable[[int, Block], Sequence[int]], *, workers: int = 1,
) -> np.ndarray:
    """Outcome counts of ``n_trials`` trials per setting, shape (n_settings, n_cells).

    ``outcome(setting_index, block)`` returns the ``n_cells`` counts of the
    ``block.rows`` trials of one :class:`Block`, a run of at most
    ``_RUN_BLOCKS`` blocks: each setting's blocks make the fewest such runs,
    their lengths differing by at most one (:func:`iter_block_slices`), so
    10 blocks make 2 runs of 5 and 16 make 4 of 4.  The (setting, run)
    tasks run through :func:`map_blocks`.  The counts are integer sums over
    runs whose events depend only on the block layout, so they are
    bit-identical for any ``workers`` value.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n_trials}")
    runs = list(iter_block_slices(n_trials, blocks=_RUN_BLOCKS))
    tasks = [(si, block, rows) for si in range(n_settings) for block, _start, rows in runs]

    def run(task):
        si, block, rows = task
        return outcome(si, Block(master_seed, domain, si, block, rows, max_blocks=_RUN_BLOCKS))

    counts = np.zeros((n_settings, n_cells), dtype=np.int64)
    for (si, _block, _rows), cells in zip(tasks, map_blocks(tasks, run, workers=workers)):
        counts[si] += cells
    return counts

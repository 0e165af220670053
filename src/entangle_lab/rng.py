"""Deterministic substream derivation for reproducible, parallel-safe sampling.

Every sampling routine in the package derives its randomness from a 64-bit
master seed through a stable hash: the key of a substream is the first 128
bits of SHA-256 over a domain tag and the little-endian encoding of
``(master_seed, *path)``, and the substream is an SFC64 generator seeded with
that key.  Reproducibility comes from the per-column keys, not from the bit
generator: a substream is a pure function of its path, adding new paths never
perturbs existing ones, and work fanned out across any number of workers
reproduces the single-worker numbers bit for bit as long as the path layout
is fixed.

Trial-indexed sampling uses one substream per (domain, setting, block,
column), with ``TRIAL_BLOCK`` trials per block and one draw per trial in each
column: trial ``t`` always reads row ``t % TRIAL_BLOCK`` of block
``t // TRIAL_BLOCK`` of every column it uses, regardless of chunking, and a
column that nothing reads is never drawn.  :func:`block_column` draws one
column as a contiguous vector; :func:`block_uniforms` lays ``k`` columns side
by side as the (rows, k) row layout of the scalar replay.
:func:`count_outcomes` is the one sampling driver on this layout: it splits
the (setting, block) tasks into one chunk per worker, gives each chunk one
reused (columns, rows) buffer, and calls a caller's outcome function with
``(setting_index, rows, draw)``, where ``draw(j)`` fills row ``j`` of the
buffer with column ``j`` on first use and returns it.  The per-block counts
are summed as integers, on one thread or several.
The string table, the quantum table and the Bloch collapse all sample
through it; each outcome is a threshold test on the draws.

``STREAM_FORMAT`` names the mapping from (seed, path) to sampled numbers.
Format 1 seeded Philox with one key per block; format 2 seeded SFC64 with
them; format 3 sampled the quantum table and the Bloch collapse on the
trial-block layout too; format 4, the current one, gives every column of a
block its own substream, so a string setting draws only the columns its
outcome reads.  Any change to the numbers
a sampler yields must bump it.
"""

from __future__ import annotations

import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

#: Version of the substream numbers; reports carry it as ``stream_format``.
STREAM_FORMAT = 4

#: Trials per substream block for trial-indexed sampling.
TRIAL_BLOCK = 1 << 16

#: Domain tags keeping unrelated commands on disjoint substreams.
DOMAIN_STRING_TRIALS = 1
DOMAIN_QUANTUM_SAMPLING = 2
DOMAIN_BLOCH_COLLAPSE = 3
DOMAIN_BLOCH_AVERAGE = 4

_KEY_PREFIX = b"entangle-lab/1:"

_U64 = (1 << 64) - 1


def stream_key(master_seed: int, *path: int) -> int:
    """128-bit key for the substream at ``path`` under ``master_seed``."""
    payload = _KEY_PREFIX + (master_seed & _U64).to_bytes(8, "little")
    for part in path:
        payload += int(part).to_bytes(8, "little", signed=True)
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:16], "little")


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """A fresh, independent generator for the substream at ``path``."""
    return np.random.Generator(np.random.SFC64(stream_key(master_seed, *path)))


def block_column(
    master_seed: int,
    domain: int,
    setting_index: int,
    block_index: int,
    column: int,
    rows: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The leading ``rows`` draws of one column of one block, a float64 vector.

    Entry ``r`` is that column's draw for trial ``block_index * TRIAL_BLOCK + r``;
    generating fewer rows than a full block yields the same leading values.
    With ``out``, a C-contiguous float64 vector of at least ``rows`` entries,
    the draws fill ``out[:rows]`` and that view is returned; the values are
    the same as without it.
    """
    if not 0 < rows <= TRIAL_BLOCK:
        raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
    if out is not None:
        if out.dtype != np.float64:
            raise ValueError(f"out must be float64, got {out.dtype}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if out.ndim != 1 or out.shape[0] < rows:
            raise ValueError(f"out must have shape (>= {rows},), got {out.shape}")
    gen = substream(master_seed, domain, setting_index, block_index, column)
    if out is None:
        return gen.random(rows)
    return gen.random(out=out[:rows])


def block_uniforms(
    master_seed: int, domain: int, setting_index: int, block_index: int, rows: int, draws_per_trial: int
) -> np.ndarray:
    """The leading ``rows`` trials' draws of one block in the row layout, shape (rows, draws).

    Column ``j`` is :func:`block_column` ``j`` of the block, so row ``r``
    holds every draw of trial ``block_index * TRIAL_BLOCK + r``.
    """
    return np.column_stack(
        [block_column(master_seed, domain, setting_index, block_index, j, rows) for j in range(draws_per_trial)]
    )


def iter_block_slices(n_trials: int):
    """Yield (block_index, start_trial, rows) covering trials [0, n_trials)."""
    block = 0
    start = 0
    while start < n_trials:
        rows = min(TRIAL_BLOCK, n_trials - start)
        yield block, start, rows
        block += 1
        start += rows


def count_outcomes(
    master_seed: int, domain: int, n_settings: int, n_trials: int, n_columns: int, n_cells: int,
    outcome: Callable[[int, int, Callable[[int], np.ndarray]], Sequence[int]], *, workers: int = 1,
) -> np.ndarray:
    """Outcome counts of ``n_trials`` trials per setting, shape (n_settings, n_cells).

    ``outcome(setting_index, rows, draw)`` returns one block's ``n_cells``
    counts of ``rows`` trials; ``draw(j)``, for ``j < n_columns``, returns the
    block's column ``j`` (:func:`block_column`), drawn on first use only.  The
    (setting, block) tasks are dealt round-robin into one chunk per worker,
    and each chunk draws its columns into one reused (n_columns, rows)
    buffer.  The counts are integer sums over blocks whose draws depend only
    on the block layout, so they are bit-identical for any ``workers`` value.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(si, block, rows) for si in range(n_settings) for block, _start, rows in iter_block_slices(n_trials)]

    def run(chunk):
        buffer = np.empty((n_columns, min(n_trials, TRIAL_BLOCK)))
        counts = np.zeros((n_settings, n_cells), dtype=np.int64)
        for si, block, rows in chunk:
            draw = functools.cache(lambda j: block_column(master_seed, domain, si, block, j, rows, out=buffer[j]))
            counts[si] += outcome(si, rows, draw)
        return counts

    n_chunks = min(workers, len(tasks))
    if n_chunks == 1:
        return run(tasks)
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        return sum(pool.map(run, [tasks[i::n_chunks] for i in range(n_chunks)]))

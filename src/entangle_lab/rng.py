"""Deterministic substream derivation for reproducible, parallel-safe sampling.

Every sampling routine in the package derives its randomness from a 64-bit
master seed through a stable hash: the key of a substream is the first 128
bits of SHA-256 over a domain tag and the little-endian encoding of
``(master_seed, *path)``, and the substream is an SFC64 generator seeded with
that key.  Reproducibility comes from the per-block keys, not from the bit
generator: a substream is a pure function of its path, adding new paths never
perturbs existing ones, and work fanned out across any number of workers
reproduces the single-worker numbers bit for bit as long as the path layout
is fixed.

Trial-indexed sampling uses one substream per (domain, setting, block) with
``TRIAL_BLOCK`` trials per block and a fixed number of draws per trial, so
trial ``t`` always reads rows ``t % TRIAL_BLOCK`` of block ``t // TRIAL_BLOCK``
regardless of chunking.  :func:`count_outcomes` is the one sampling driver on
this layout: it splits the (setting, block) tasks into one chunk per worker,
draws every block of a chunk into one reused buffer, counts each block's
cells with a caller's outcome function and sums the per-block counts, on one
thread or several.
The string table, the quantum table and the Bloch collapse all sample
through it; each outcome is a threshold test on the draws.

``STREAM_FORMAT`` names the mapping from (seed, path) to sampled numbers.
Format 1 seeded Philox with the same keys; format 2 seeds SFC64; format 3
samples the quantum table and the Bloch collapse on the trial-block layout
too.  Any change to the numbers a sampler yields must bump it.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

#: Version of the substream numbers; reports carry it as ``stream_format``.
STREAM_FORMAT = 3

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


def block_uniforms(
    master_seed: int,
    domain: int,
    setting_index: int,
    block_index: int,
    rows: int,
    draws_per_trial: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The leading ``rows`` trials' uniforms of one block, shape (rows, draws).

    Row ``r`` holds the draws of trial ``block_index * TRIAL_BLOCK + r``;
    generating fewer rows than a full block yields the same leading values.
    With ``out``, a C-contiguous float64 array of ``draws_per_trial`` columns
    and at least ``rows`` rows, the draws fill ``out[:rows]`` and that view is
    returned; the values are the same as without it.
    """
    if not 0 < rows <= TRIAL_BLOCK:
        raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
    if out is not None:
        if out.dtype != np.float64:
            raise ValueError(f"out must be float64, got {out.dtype}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if out.ndim != 2 or out.shape[0] < rows or out.shape[1] != draws_per_trial:
            raise ValueError(f"out must have shape (>= {rows}, {draws_per_trial}), got {out.shape}")
    gen = substream(master_seed, domain, setting_index, block_index)
    if out is None:
        return gen.random((rows, draws_per_trial))
    return gen.random(out=out[:rows])


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
    master_seed: int, domain: int, n_settings: int, n_trials: int, draws_per_trial: int, n_cells: int,
    outcome: Callable[[int, np.ndarray], Sequence[int]], *, workers: int = 1,
) -> np.ndarray:
    """Outcome counts of ``n_trials`` trials per setting, shape (n_settings, n_cells).

    ``outcome(setting_index, u)`` maps a (rows, draws_per_trial) block of
    draws to that block's ``n_cells`` counts.  The (setting, block) tasks are
    dealt round-robin into one chunk per worker, and each chunk draws its
    blocks into one reused buffer.  The counts are integer sums over blocks
    whose draws depend only on the block layout, so they are bit-identical
    for any ``workers`` value.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(si, block, rows) for si in range(n_settings) for block, _start, rows in iter_block_slices(n_trials)]

    def run(chunk):
        u = np.empty((min(n_trials, TRIAL_BLOCK), draws_per_trial))
        counts = np.zeros((n_settings, n_cells), dtype=np.int64)
        for si, block, rows in chunk:
            counts[si] += outcome(si, block_uniforms(master_seed, domain, si, block, rows, draws_per_trial, out=u))
        return counts

    n_chunks = min(workers, len(tasks))
    if n_chunks == 1:
        return run(tasks)
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        return sum(pool.map(run, [tasks[i::n_chunks] for i in range(n_chunks)]))

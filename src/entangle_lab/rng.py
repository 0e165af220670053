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
regardless of chunking.

``STREAM_FORMAT`` names the mapping from (seed, path) to numbers.  Format 1
seeded Philox with the same keys; format 2 seeds SFC64.  Any change to the
numbers a substream yields must bump it.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Version of the substream numbers; reports carry it as ``stream_format``.
STREAM_FORMAT = 2

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
) -> np.ndarray:
    """The leading ``rows`` trials' uniforms of one block, shape (rows, draws).

    Row ``r`` holds the draws of trial ``block_index * TRIAL_BLOCK + r``;
    generating fewer rows than a full block yields the same leading values.
    """
    if not 0 < rows <= TRIAL_BLOCK:
        raise ValueError(f"rows must be in [1, {TRIAL_BLOCK}], got {rows}")
    gen = substream(master_seed, domain, setting_index, block_index)
    return gen.random((rows, draws_per_trial))


def iter_block_slices(n_trials: int):
    """Yield (block_index, start_trial, rows) covering trials [0, n_trials)."""
    block = 0
    start = 0
    while start < n_trials:
        rows = min(TRIAL_BLOCK, n_trials - start)
        yield block, start, rows
        block += 1
        start += rows

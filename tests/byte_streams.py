"""Crafted substreams for the threshold samplers, fed by patching ``rng.stream_words``.

A test fixes a 64-bit U for every trial of a column.  :func:`feeding` then
serves the column's bytes as ``U >> 56`` and its tie words with U's low 56
bits, so every threshold test a sampler makes on the column is the integer
test U < K.  To hand out the tie words of exactly the tied trials, in trial
order, the helper is told the K each trial of a column is tested at, and it
checks that the sampler asks for that many words.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np

from entangle_lab import rng

LOW_BITS = (1 << 56) - 1


def key(p) -> int:
    """K = ceil(p * 2**64), written out with ``Fraction``."""
    return math.ceil(Fraction(p) * 2**64)


def from_float(u: float) -> int:
    """The U of a float draw u in [0, 1): floor(u * 2**64), which is u * 2**64 for u >= 2**-12."""
    return math.floor(Fraction(u) * 2**64)


def quantized(u: float) -> float:
    """u rounded down to a multiple of 2**-64; for such a draw, u < p iff U < K."""
    return from_float(u) / 2**64


def feeding(columns: dict, keys):
    """Patch the substreams so that trial t of column j has ``U = columns[j][t]``.

    ``keys(si, j)`` is the K column j of setting si is tested at: one int, or
    a list with one K per trial.  Every block of every setting reads the same
    rows, and a block must cover exactly ``len(columns[j])`` trials.
    """

    def stream_words(master_seed, domain, si, block, column, *tie, n, bit_generator=None):
        values = columns[column]
        if not tie:
            assert n == -(-len(values) // 8)
            return np.frombuffer(bytes(u >> 56 for u in values).ljust(8 * n, b"\0"), dtype="<u8")
        k = keys(si, column)
        per_trial = k if isinstance(k, list) else [k] * len(values)
        tied = [u for u, k in zip(values, per_trial) if u >> 56 == k >> 56 and k & LOW_BITS]
        assert n == len(tied), f"column {column}: {n} tie words asked for {len(tied)} tied trials"
        return np.array([(u & LOW_BITS) << 8 for u in tied], dtype=np.uint64)

    return mock.patch.object(rng, "stream_words", stream_words)

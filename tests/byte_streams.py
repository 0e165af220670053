"""Crafted substreams for the threshold samplers, fed by patching ``rng.bit_stream``.

A test fixes a 64-bit U for every trial of a column.  :func:`column_words`
lays the Us out as stream format 6 reads them, written out here apart from
the package: bit j (from the top) of trial r's U is bit ``r % 64`` of word
``1024 * j + r // 64``, and the k-th tied trial, in trial order, has U's low
56 bits in the top of word ``8192 + k``.  A trial is tied when its top byte
equals its key's and its key has nonzero low 56 bits.  So every threshold
test a sampler makes on the column is the integer test U < K.  The words a
block does not read as trials (past the rows of each plane, and the padding
bits of the last word) are all ones, which a sampler must never count.

:class:`feeding` serves these words through a patched ``rng.bit_stream``.
It fails a read past a column's words, and on leaving it checks that every
column whose trials tie had all its tie words read.  It records the words
each (setting, block, column) drew.  :func:`feeding_rows` feeds rows of
string-trial draws to every column a string variant tests, and their break
draws to the trace.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np

from entangle_lab import rng, strings
from entangle_lab.rng import DOMAIN_STRING_TRACE
from entangle_lab.strings import Variant

LOW_BITS = (1 << 56) - 1
PLANE_WORDS = 1024  # words per plane: a block of 65 536 trials over 64-bit words
PLANES = 8  # planes before a tied trial takes a tie word
TIE_START = PLANES * PLANE_WORDS


def key(p) -> int:
    """K = ceil(p * 2**64), written out with ``Fraction``."""
    return math.ceil(Fraction(p) * 2**64)


def from_float(u: float) -> int:
    """The U of a float draw u in [0, 1): floor(u * 2**64), which is u * 2**64 for u >= 2**-12."""
    return math.floor(Fraction(u) * 2**64)


def quantized(u: float) -> float:
    """u rounded down to a multiple of 2**-64; for such a draw, u < p iff U < K."""
    return from_float(u) / 2**64


def pack(bits) -> np.ndarray:
    """Booleans packed 64 to a word, trial r at bit ``r % 64`` of word ``r // 64``; padding bits are ones."""
    bits = np.fromiter(bits, dtype=bool)
    padded = np.concatenate([bits, np.ones(-bits.size % 64, dtype=bool)])
    return np.packbits(padded, bitorder="little").view("<u8").astype(np.uint64)


def tied_trials(values, keys) -> list[int]:
    """The Us of the trials that read a tie word, in trial order: top byte equal to a key with low bits."""
    return [u for u, k in zip(values, keys) if u >> 56 == k >> 56 and k & LOW_BITS]


def column_words(values, keys, tie_junk: int = 0xA5) -> np.ndarray:
    """The words of a column whose trial r has ``U = values[r]``, tested at ``keys[r]``.

    ``keys`` is one K for every trial or a list with one K per trial.  The
    tie words carry ``tie_junk`` in their low byte, which the rule ignores.
    """
    keys = keys if isinstance(keys, list) else [keys] * len(values)
    words = np.full(TIE_START, 2**64 - 1, dtype=np.uint64)
    for j in range(PLANES):
        plane = pack(u >> 63 - j & 1 == 1 for u in values)
        words[PLANE_WORDS * j: PLANE_WORDS * j + plane.size] = plane
    ties = [(u & LOW_BITS) << 8 | tie_junk for u in tied_trials(values, keys)]
    return np.concatenate([words, np.array(ties, dtype=np.uint64)])


class Served:
    """One column's words, read in order through ``random_raw`` as an SFC64 bit generator is."""

    def __init__(self, words: np.ndarray):
        self.words, self.read = words, 0

    def random_raw(self, n: int) -> np.ndarray:
        assert self.read + n <= self.words.size, f"read of words [{self.read}, {self.read + n}) past {self.words.size}"
        self.read += n
        return self.words[self.read - n: self.read].copy()


class feeding:
    """Patch the substreams so that trial t of column j has ``U = columns[j][t]``.

    ``keys(si, j)`` is the K column j of setting si is tested at: one int, or
    a list with one K per trial.  Every block of every setting reads the same
    rows, and a block must cover exactly ``len(columns[j])`` trials.
    ``drawn[si, block, column]`` is the number of words read.
    """

    def __init__(self, columns: dict, keys):
        self.columns, self.keys = columns, keys

    def __enter__(self):
        self.served, self.drawn, laid_out = [], {}, {}

        def bit_stream(master_seed, domain, si, block, column):
            keys = self.keys(si, column)
            memo = (column, tuple(keys) if isinstance(keys, list) else keys)
            if memo not in laid_out:
                laid_out[memo] = column_words(self.columns[column], keys)
            served = Served(laid_out[memo])
            self.served.append(((si, block, column), served))
            return served

        self._patch = mock.patch.object(rng, "bit_stream", bit_stream)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc_info):
        self._patch.__exit__(*exc_info)
        for path, served in self.served:
            self.drawn[path] = self.drawn.get(path, 0) + served.read
            if exc_info[0] is None and served.words.size > TIE_START:
                assert served.read == served.words.size, f"column {path}: tie words left unread"
        return False


def feeding_rows(config, rows):
    """Feed rows of string-trial draws to the bit planes, and their break draws to the trace.

    Row r holds trial r's draws in block-column order: the color(s), V4's
    two selections, then the cut, each a float in [0, 1) on a multiple of
    2**-64.  Column j of a block reads column j of the rows, at the key of
    the threshold that column is tested at.  The trace's continuous draw v
    is ``2 u - floor(2 u)`` of the break draw u, whose top bit b is the cut
    bit, so ``(b + v) / 2 = u``.  Returns the two patches, to enter together.
    """
    tested = [config.p_w, config.p_w, config.p_1, config.p_1] if config.variant is Variant.V4 else [config.p_w]
    keys = [key(float(p)) for p in tested] + [key(0.5)]
    columns = {j: [from_float(row[j]) for row in rows] for j in range(len(keys))}
    breaks = np.array([row[-1] for row in rows])

    def trace_draws(master_seed, domain, si, block, n_rows):
        assert domain == DOMAIN_STRING_TRACE
        scaled = breaks[:n_rows] * 2
        return scaled - np.floor(scaled)

    streams = feeding(columns, lambda si, column: keys[column])
    trace = mock.patch.object(strings, "block_uniforms", trace_draws)
    return streams, trace

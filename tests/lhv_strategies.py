"""Deterministic local-hidden-variable strategies for the LHV bound tests.

A strategy is ``(alice, bob, lam_values, weights)``, the arguments of
``strings.lhv_table``.  A random one is built from the caller's generator, so
it lives with the tests rather than in the package, whose samplers draw only
from keyed substreams; the pre-broken string's strategy is used by the tests
alone.
"""

from fractions import Fraction

import numpy as np


def random_lhv_strategy(n_lambda: int, rng: np.random.Generator):
    """A random deterministic strategy over ``n_lambda`` equally-typed points.

    Outcome tables are independent fair +/-1 draws per (lambda, setting);
    lambda weights are random positive integers normalized exactly.
    """
    if n_lambda < 1:
        raise ValueError(f"n_lambda must be >= 1, got {n_lambda}")
    a_table = rng.integers(0, 2, size=(n_lambda, 2)) * 2 - 1
    b_table = rng.integers(0, 2, size=(n_lambda, 2)) * 2 - 1
    raw = rng.integers(1, 1000, size=n_lambda)
    total = int(raw.sum())
    weights = tuple(Fraction(int(w), total) for w in raw)

    def alice(lam, setting: str) -> int:
        return int(a_table[lam, 0 if setting == "A" else 1])

    def bob(lam, setting: str) -> int:
        return int(b_table[lam, 0 if setting == "B" else 1])

    return alice, bob, tuple(range(n_lambda)), weights


def pre_broken_lhv_strategy():
    """The pre-broken string expressed as an LHV strategy.

    Lambda is which side of the cut is long; length measurements discover it,
    color measurements always see white.  Exact enumeration reproduces the
    pre-broken analytic table.
    """
    lam_values = ("alice_long", "bob_long")
    weights = (Fraction(1, 2), Fraction(1, 2))

    def alice(lam, setting: str) -> int:
        if setting == "A":
            return 1 if lam == "alice_long" else -1
        return 1

    def bob(lam, setting: str) -> int:
        if setting == "B":
            return 1 if lam == "bob_long" else -1
        return 1

    return alice, bob, lam_values, weights

"""The cell polynomials of every variant, checked as polynomial identities.

``Poly`` is a small dict polynomial in (p_w, p_1), keyed by integer exponent
pairs, so the identities hold for every parameter value, not only at grid
points.  The closed forms are the published rows of the acceptance suite,
restated here over ``Poly``.
"""

from fractions import Fraction

import pytest

from entangle_lab.strings import SETTINGS, Variant, cell_polynomials


class Poly:
    """A polynomial in (p_w, p_1): ``{(i, j): coefficient of p_w**i * p_1**j}``."""

    def __init__(self, terms):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in lift(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -lift(other)

    def __rsub__(self, other):
        return lift(other) - self

    def __mul__(self, other):
        terms = {}
        for (i, j), c in self.terms.items():
            for (k, l), d in lift(other).terms.items():
                terms[i + k, j + l] = terms.get((i + k, j + l), 0) + c * d
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = lift(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return self.terms == lift(other).terms

    def at_p_w(self, value):
        """Substitute p_w = value, leaving a polynomial in p_1."""
        terms = {}
        for (i, j), c in self.terms.items():
            terms[0, j] = terms.get((0, j), 0) + c * Fraction(value) ** i
        return Poly(terms)

    def __repr__(self):
        return f"Poly({self.terms})"


def lift(x):
    return x if isinstance(x, Poly) else Poly({(0, 0): x})


P_W = Poly({(1, 0): 1})
P_1 = Poly({(0, 1): 1})
HALF = Fraction(1, 2)


def reference_rows(variant):
    """The published closed-form rows (AB, AB', A'B, A'B'), cells ++ +- -+ --."""
    p_b = 1 - P_W
    if variant is Variant.V1:
        return [(0, HALF, HALF, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)]
    if variant is Variant.V1_PRE_BROKEN:
        return [(0, HALF, HALF, 0), (HALF, 0, HALF, 0), (HALF, HALF, 0, 0), (1, 0, 0, 0)]
    if variant is Variant.V2:
        return [(0, HALF, HALF, 0), (P_W, p_b, 0, 0), (P_W, 0, p_b, 0), (P_W, 0, 0, p_b)]
    if variant is Variant.V3:
        diag = (P_W, 0, 0, p_b)
        return [(0, HALF, HALF, 0), diag, diag, diag]
    q = P_1 * (1 - P_1)
    cross = HALF + q * (2 * P_W * p_b - 1)
    ab = (2 * q * P_W**2, cross, cross, 2 * q * p_b**2)
    other = (P_W * (1 - 2 * q * p_b), 2 * q * P_W * p_b, 2 * q * P_W * p_b, p_b * (1 - 2 * q * P_W))
    return [ab, other, other, other]


def as_poly(degrees, cell):
    """One cell's Bernstein coefficients expanded into a ``Poly``."""
    k_w, k_1 = degrees
    total = lift(0)
    for (a, c), n in cell:
        total = total + n * P_W**a * (1 - P_W) ** (k_w - a) * P_1**c * (1 - P_1) ** (k_1 - c)
    return total * HALF


def poly_rows(variant):
    degrees, cells = cell_polynomials(variant)
    return [[as_poly(degrees, cell) for cell in row] for row in cells]


def a_chsh(rows):
    e = [pp + mm - pm - mp for pp, pm, mp, mm in rows]
    return -e[0] + e[1] + e[2] + e[3]


@pytest.mark.parametrize("variant", list(Variant))
def test_every_cell_is_the_published_closed_form(variant):
    for label, got, expected in zip(("AB", "AB'", "A'B", "A'B'"), poly_rows(variant), reference_rows(variant)):
        for cell, (g, e) in enumerate(zip(got, expected)):
            assert g == e, f"{variant.value} {label} cell {cell}: {g} != {e}"


@pytest.mark.parametrize(
    "variant, expected",
    [(Variant.V1, lift(4)), (Variant.V1_PRE_BROKEN, lift(2)), (Variant.V2, 4 * P_W), (Variant.V3, lift(4))],
)
def test_a_chsh_of_the_single_string_variants(variant, expected):
    assert a_chsh(poly_rows(variant)) == expected


def test_a_chsh_of_the_two_string_model_is_the_quartic():
    quartic = -4 * (
        4 * P_1**2 * P_W**2 - 4 * P_1**2 * P_W - P_1**2 - 4 * P_1 * P_W**2 + 4 * P_1 * P_W + P_1 - 1
    )
    value = a_chsh(poly_rows(Variant.V4))
    assert value == quartic
    assert value.at_p_w(HALF) == 4 * (P_1**2 + (1 - P_1) ** 2)


@pytest.mark.parametrize("variant", list(Variant))
def test_coefficients_are_positive_integers_over_the_declared_monomials(variant):
    (k_w, k_1), cells = cell_polynomials(variant)
    # The white string of v1/v1pre has no color parameter; only v4 has selections.
    assert (k_w, k_1) == {Variant.V2: (1, 0), Variant.V3: (1, 0), Variant.V4: (2, 2)}.get(variant, (0, 0))
    assert len(cells) == len(SETTINGS) and all(len(row) == 4 for row in cells)
    for row in cells:
        for cell in row:
            for (a, c), n in cell:
                assert 0 <= a <= k_w and 0 <= c <= k_1
                assert type(n) is int and n > 0


def test_polynomials_are_cached_immutable_and_keyed_by_variant():
    first = cell_polynomials(Variant.V4)
    assert cell_polynomials(Variant.V4) is first
    assert cell_polynomials("v4") == first
    assert isinstance(first.cells, tuple)
    with pytest.raises(TypeError):
        first.cells[0][0] = ()
    with pytest.raises(ValueError):
        cell_polynomials("v5")

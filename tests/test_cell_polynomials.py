"""The cell polynomials of every variant, checked as polynomial identities.

``Poly`` is a small dict polynomial in (p_w, p_1), keyed by integer exponent
pairs, so the identities hold for every parameter value, not only at grid
points.  The closed forms are the published rows of the acceptance suite,
restated here over ``Poly``.  The compiled evaluation behind
``cell_numerators`` and ``analytic_table`` is checked against the
Bernstein sum written out term by term, at random exact points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_lab import strings
from entangle_lab.probability import ExperimentTable
from entangle_lab.strings import SETTINGS, StringModelConfig, Variant, analytic_table, cell_numerators, cell_polynomials


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


def written_out_numerators(variant, p_w, p_1):
    """``(rows, d)`` of :func:`cell_numerators`, as each cell's Bernstein sum written out term by term."""
    (k_w, k_1), cells = cell_polynomials(variant)

    def scaled_bernstein(n, q, k):
        return [n**a * (q - n) ** (k - a) for a in range(k + 1)]

    w, s = scaled_bernstein(*p_w, k_w), scaled_bernstein(*p_1, k_1)
    rows = [tuple([sum(n * w[a] * s[c] for (a, c), n in cell) for cell in row]) for row in cells]
    return rows, 2 * p_w[1] ** k_w * p_1[1] ** k_1


#: Exact points n/q in [0, 1], not necessarily reduced: 0, 1/2, 1, and k/q with q up to 2**54.
exact_pairs = st.one_of(
    st.sampled_from([(0, 1), (1, 2), (1, 1)]),
    st.integers(1, 2**54).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
)
pair_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pair_settings
@given(variant=st.sampled_from(list(Variant)), p_w=exact_pairs, p_1=exact_pairs)
def test_the_compiled_evaluation_equals_the_written_out_bernstein_sum(variant, p_w, p_1):
    rows, d = cell_numerators(variant, p_w, p_1)
    assert (rows, d) == written_out_numerators(variant, p_w, p_1)
    assert type(rows) is list and all(type(row) is tuple for row in rows)
    assert {type(n) for row in rows for n in (*row, d)} == {int}


@pair_settings
@given(variant=st.sampled_from(list(Variant)), p_w=exact_pairs, p_1=exact_pairs)
def test_analytic_table_is_the_numerator_table_of_cell_numerators(variant, p_w, p_1):
    white = variant in (Variant.V1, Variant.V1_PRE_BROKEN)
    config = StringModelConfig(variant=variant, p_w=None if white else Fraction(*p_w), p_1=Fraction(*p_1))
    ratios = (Fraction(config.p_w).as_integer_ratio(), Fraction(config.p_1).as_integer_ratio())
    table, expected = analytic_table(config), ExperimentTable.from_numerators(*cell_numerators(variant, *ratios))
    assert table == expected
    assert table._scaled_cells == expected._scaled_cells
    assert {type(n) for n in (*table._scaled_cells[0], table._scaled_cells[1])} == {int}


@pytest.mark.parametrize("variant, distinct", [("v1", 3), ("v1pre", 3), ("v2", 4), ("v3", 4), ("v4", 6)])
def test_each_distinct_cell_polynomial_is_compiled_once(variant, distinct):
    (k_w, k_1), cells = cell_polynomials(variant)
    compiled = strings._compiled_cells(variant)
    assert compiled.degrees == (k_w, k_1)
    assert len(compiled.distinct) == len({cell for row in cells for cell in row}) == distinct
    # Each cell's entry holds its coefficients at flat monomial a * (k_1 + 1) + c, zeros elsewhere.
    for cell, i in zip([cell for row in cells for cell in row], compiled.index, strict=True):
        dense = [0] * ((k_w + 1) * (k_1 + 1))
        for (a, c), n in cell:
            dense[a * (k_1 + 1) + c] = n
        assert compiled.distinct[i] == tuple(dense)


def test_the_compiled_form_follows_what_cell_polynomials_returns(monkeypatch):
    real = cell_polynomials(Variant.V2)
    rows, d = cell_numerators(Variant.V2, (1, 3), (1, 2))
    (pp, *rest), *other_rows = real.cells
    doubled = strings.CellPolynomials(real.degrees, ((pp + pp, *rest), *other_rows))
    with monkeypatch.context() as patch:
        patch.setattr(strings, "cell_polynomials", lambda variant: doubled)
        assert cell_numerators(Variant.V2, (1, 3), (1, 2)) == ([(2 * rows[0][0], *rows[0][1:]), *rows[1:]], d)
    assert cell_numerators(Variant.V2, (1, 3), (1, 2)) == (rows, d)


@pytest.mark.parametrize(
    "p_w, p_1, message",
    [
        ((3, 2), (1, 2), "p_w = 3/2 is not a probability"),
        ((-1, 2), (1, 2), "p_w = -1/2 is not a probability"),
        ((1, 2), (1, 0), "p_1 = 1/0 is not a probability"),
        ((0, 0), (1, 2), "p_w = 0/0 is not a probability"),
        ((-1, -2), (1, 2), "p_w = -1/-2 is not a probability"),
        ((1, 2), (0.5, 1), "p_1 must be a pair (n, q) of integers"),
        ((True, 2), (1, 2), "p_w must be a pair (n, q) of integers"),
        ((1, 2, 3), (1, 2), "p_w must be a pair (n, q) of integers"),
        (Fraction(1, 2), (1, 2), "p_w must be a pair (n, q) of integers"),
    ],
)
def test_cell_numerators_refuse_a_pair_that_is_not_a_probability(p_w, p_1, message):
    with pytest.raises(ValueError) as refused:
        cell_numerators(Variant.V2, p_w, p_1)
    assert str(refused.value).startswith(message)

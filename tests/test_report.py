"""Tests for JSON report envelopes and round-trippable CSV."""

import json
import math
from fractions import Fraction

import pytest

import entangle_lab
from csv_rows import parse_csv
from entangle_lab.probability import JointDistribution, chsh, check_bell_bounds, marginals
from entangle_lab.quantum import coplanar_axes, singlet_state, table_for_axes
from entangle_lab.report import (
    SCHEMA_VERSION,
    bell_bounds_to_json,
    chsh_to_json,
    counts_to_json,
    distribution_to_json,
    emit_csv,
    format_csv_value,
    make_report,
    marginals_to_json,
    report_to_json,
    table_to_json,
)
from entangle_lab.strings import StringModelConfig, Variant, analytic_table, estimate_table


class TestCsv:
    def test_seventeen_significant_digits(self):
        assert format_csv_value(2 * math.sqrt(2)) == "2.8284271247461903"
        assert format_csv_value(0.5) == "0.5"
        assert format_csv_value(3) == "3"

    def test_a_bool_is_refused(self):
        with pytest.raises(TypeError, match="booleans have no CSV representation"):
            format_csv_value(True)

    def test_negative_zero_is_normalized(self):
        assert format_csv_value(-0.0) == "0"

    def test_floats_round_trip_exactly(self):
        values = [1 / 3, 2 * math.sqrt(2), 1e-17, 12345.678901234567, 0.1, -0.25]
        for v in values:
            assert float(format_csv_value(v)) == v

    def test_emit_parse_emit_is_byte_identical(self):
        header = ["p_w", "a_chsh", "b_chsh", "c_chsh", "d_chsh", "max_abs_marginal_residual"]
        rows = [
            [0.0, 0.0, 0.0, 0.0, -4.0, 0.5],
            [math.sqrt(2) / 2, 2 * math.sqrt(2), 1e-16, -0.0, 0.123456789012345678, 0.5],
            [1.0, 4.0, 0.0, 0.0, 0.0, 0.0],
        ]
        text = emit_csv(header, rows)
        parsed_header, parsed_rows = parse_csv(text)
        assert parsed_header == header
        assert emit_csv(parsed_header, parsed_rows) == text

    def test_mixed_type_rows_round_trip(self):
        text = emit_csv(["name", "count", "value"], [["plus", 10, 0.75], ["minus", 0, 0.25]])
        header, rows = parse_csv(text)
        assert rows[0] == ["plus", 10, 0.75]
        assert emit_csv(header, rows) == text

    def test_header_is_mandatory(self):
        with pytest.raises(ValueError):
            parse_csv("")


class TestJson:
    def test_envelope_fields(self):
        report = make_report("table", {"variant": "v1"}, 7, {"x": 1})
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["tool"] == "entangle-lab"
        assert report["version"] == entangle_lab.__version__
        assert report["seed"] == 7
        assert "wall_time_s" not in report

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError):
            report_to_json(make_report("bloch-collapse", {}, 0, {"distribution_plus_probability": bad}))

    def test_report_json_parses_back(self):
        text = report_to_json(make_report("scan", {"steps": 3}, 0, {"rows": [[1, 2.5]]}))
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["results"]["rows"] == [[1, 2.5]]

    def test_analytic_table_carries_exact_rationals(self):
        table = analytic_table(StringModelConfig(variant=Variant.V4, p_w=Fraction(1, 2), p_1=Fraction(1, 2)))
        data = table_to_json(table, rationals=True)
        assert data["ab"]["exact"] == {"pp": "1/8", "pm": "3/8", "mp": "3/8", "mm": "1/8"}
        assert data["ab"]["pp"] == 0.125

    def test_irrational_parameters_omit_the_rational(self):
        table = analytic_table(StringModelConfig(variant=Variant.V2, p_w=math.sqrt(2) / 2))
        data = table_to_json(table, rationals=True)
        assert data["ab_prime"]["exact"]["pp"] is None
        assert data["ab"]["exact"]["pm"] == "1/2"

    def test_sampled_sections(self):
        table, counts = estimate_table(StringModelConfig(variant=Variant.V2, p_w=0.5), 100, 3)
        data = counts_to_json(counts)
        assert set(data) == {"ab", "ab_prime", "a_prime_b", "a_prime_b_prime"}
        assert all(sum(cells) == 100 for cells in data.values())
        plain = table_to_json(table)
        assert "exact" not in plain["ab"]

    def test_diagnostic_serializers(self):
        table = analytic_table(StringModelConfig(variant=Variant.V1))
        quantities = chsh(table)
        assert chsh_to_json(quantities) == {"a_chsh": 4.0, "b_chsh": 0.0, "c_chsh": 0.0, "d_chsh": 0.0}
        bounds = bell_bounds_to_json(check_bell_bounds(quantities))
        assert bounds["any_violated"] is True
        assert bounds["checks"][0] == {"quantity": "a_chsh", "value": 4.0, "margin": 2.0, "violated": True}
        marg = marginals_to_json(marginals(table, 1e-9))
        assert len(marg["comparisons"]) == 8
        assert marg["violated"] is True

    def test_distribution_values_are_plain_floats(self):
        dist = JointDistribution(Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))
        data = distribution_to_json(dist)
        assert all(isinstance(v, float) for v in data.values())


# --- the verdict serializers, frozen: an exact v4 table and the float singlet table at the Tsirelson angle ---

CHSH_NAMES = ("a_chsh", "b_chsh", "c_chsh", "d_chsh")
MARGINAL_LABELS = [
    (side, setting, outcome, partners)
    for side, own, partners in (("alice", ("A", "A'"), ["B", "B'"]), ("bob", ("B", "B'"), ["A", "A'"]))
    for setting in own
    for outcome in "+-"
]


def frozen_bell_bounds(checks):
    """The ``bell_bounds_to_json`` dict of bound 2 and one (value, margin, violated) per CHSH quantity."""
    return {
        "bound": 2.0,
        "any_violated": any(violated for _, _, violated in checks),
        "checks": [
            {"quantity": name, "value": value, "margin": margin, "violated": violated}
            for name, (value, margin, violated) in zip(CHSH_NAMES, checks)
        ],
    }


def frozen_marginals(max_abs_residual, comparisons):
    """The ``marginals_to_json`` dict of tolerance 0 and one (first, second, residual) per comparison."""
    return {
        "tolerance": 0.0,
        "max_abs_residual": max_abs_residual,
        "violated": max_abs_residual > 0,
        "comparisons": [
            {"side": side, "setting": setting, "outcome": outcome, "partner_settings": partners,
             "first": first, "second": second, "residual": residual}
            for (side, setting, outcome, partners), (first, second, residual) in zip(MARGINAL_LABELS, comparisons)
        ],
    }


V4_BROKEN = (0.116, [(0.416, 0.3, 0.116), (0.584, 0.7, -0.116), (0.3, 0.3, 0.0), (0.7, 0.7, 0.0)] * 2)
SINGLET_ROUND_OFF = 5.551115123125783e-17
SINGLET_HALVES = (0.49999999999999983, 0.4999999999999999, 0.4999999999999998)
SINGLET_MARGINALS = (
    SINGLET_ROUND_OFF,
    [(SINGLET_HALVES[0], SINGLET_HALVES[1], -SINGLET_ROUND_OFF)] * 2
    + [(SINGLET_HALVES[2], SINGLET_HALVES[0], -SINGLET_ROUND_OFF)] * 2
    + [(SINGLET_HALVES[0], SINGLET_HALVES[2], SINGLET_ROUND_OFF)] * 2
    + [(SINGLET_HALVES[1], SINGLET_HALVES[0], SINGLET_ROUND_OFF)] * 2,
)
FROZEN_VERDICTS = {
    "v4 exact": (
        lambda: analytic_table(StringModelConfig(variant="v4", p_w=Fraction(3, 10), p_1=Fraction(7, 10))),
        frozen_bell_bounds([(2.4544, 0.4544, True)] + [(0.1344, -1.8656, False)] * 3),
        frozen_marginals(*V4_BROKEN),
    ),
    "singlet float": (
        lambda: table_for_axes(singlet_state(), coplanar_axes(math.pi / 4)),
        frozen_bell_bounds([
            (-3.3306690738754696e-16, -1.9999999999999996, False),
            (-2.8284271247461894, 0.8284271247461894, True),
            (0.0, -2.0, False),
            (-2.220446049250313e-16, -1.9999999999999998, False),
        ]),
        frozen_marginals(*SINGLET_MARGINALS),
    ),
}


@pytest.mark.parametrize("kind", FROZEN_VERDICTS)
def test_the_verdict_serializers_write_the_frozen_dicts(kind):
    build, bell_bounds, marginal_report = FROZEN_VERDICTS[kind]
    table = build()
    for got, expected in (
        (bell_bounds_to_json(check_bell_bounds(chsh(table))), bell_bounds),
        (marginals_to_json(marginals(table, 0)), marginal_report),
    ):
        assert got == expected
        assert json.dumps(got) == json.dumps(expected)  # every float's digits and every bool's type too

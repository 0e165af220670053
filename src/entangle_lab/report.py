"""Versioned JSON report envelopes and round-trippable CSV emission.

Reports are fully self-describing: they embed the tool version, the stream
format of the sampled numbers, the echoed configuration and the master seed.
Identical (config, seed, version) produce byte-identical output regardless of
worker count; wall-clock timing is therefore opt-in, and ``cli.main`` adds it
as the single optional field ``wall_time_s``.

CSV uses '.' decimals, no thousands separators and 17 significant digits, so
every emitted file parses back to the exact same doubles and re-emits byte
for byte.
"""

from __future__ import annotations

import csv
import io
import json
from numbers import Real

from .probability import (
    BellBoundReport,
    ChshQuantities,
    ExperimentTable,
    JointDistribution,
    MarginalReport,
    exact_rational,
)
from .rng import STREAM_FORMAT

SCHEMA_VERSION = 1
TOOL_NAME = "entangle-lab"

_ROW_KEYS = {"AB": "ab", "AB'": "ab_prime", "A'B": "a_prime_b", "A'B'": "a_prime_b_prime"}
_CELL_KEYS = ("pp", "pm", "mp", "mm")


def format_csv_value(value) -> str:
    """Canonical CSV cell: ints plainly, floats at 17 significant digits."""
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation here")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Real):
        x = float(value)
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return format(x, ".17g")
    return str(value)


def emit_csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_csv_value(v) for v in row])
    return buffer.getvalue()


def distribution_to_json(dist: JointDistribution, *, rationals: bool = False) -> dict:
    values = dist.probabilities()
    out = {key: float(v) for key, v in zip(_CELL_KEYS, values)}
    if rationals:
        out["exact"] = {key: exact_rational(v) for key, v in zip(_CELL_KEYS, values)}
    return out


def table_to_json(table: ExperimentTable, *, rationals: bool = False) -> dict:
    return {
        _ROW_KEYS[label]: distribution_to_json(dist, rationals=rationals)
        for label, dist in table.rows()
    }


def counts_to_json(counts: dict[str, tuple[int, int, int, int]]) -> dict:
    return {_ROW_KEYS[label]: [int(c) for c in cells] for label, cells in counts.items()}


def chsh_to_json(quantities: ChshQuantities) -> dict:
    return {name: float(value) for name, value in quantities.as_dict().items()}


def bell_bounds_to_json(report: BellBoundReport) -> dict:
    return {
        "bound": float(report.bound),
        "any_violated": report.any_violated,
        "checks": [{**c._asdict(), "value": float(c.value), "margin": float(c.margin)} for c in report.checks],
    }


def marginals_to_json(report: MarginalReport) -> dict:
    return {
        "tolerance": float(report.tolerance),
        "max_abs_residual": float(report.max_abs_residual),
        "violated": report.violated,
        "comparisons": [
            # The keys keep the record's field order, which the report bytes depend on.
            {**c._asdict(), "partner_settings": list(c.partner_settings), "first": float(c.first),
             "second": float(c.second), "residual": float(c.residual)}
            for c in report.comparisons
        ],
    }


def make_report(command: str, config: dict, seed: int, results: dict) -> dict:
    from . import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": __version__,
        "stream_format": STREAM_FORMAT,
        "command": command,
        "config": config,
        "seed": seed,
        "results": results,
    }


def report_to_json(report: dict) -> str:
    # allow_nan=False: a NaN or infinity raises ValueError instead of writing invalid JSON.
    return json.dumps(report, indent=2, allow_nan=False) + "\n"

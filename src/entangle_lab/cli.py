"""``entangle-lab``: reproduce the model tables, scans and collapse statistics.

Subcommands
    table    analytic (and optionally sampled) joint-probability table of a
             string-model variant, with CHSH, Bell-bound and marginal-law
             diagnostics
    scan     sweep p_w or p_1 over a grid; plot-ready CSV of CHSH values and
             the worst marginal residual
    quantum  singlet-state reference values on the standard coplanar axis
             family at a chosen angle
    bloch    collapse sampling, universal averages and the 15-dimensional
             two-qubit decomposition

The parser refuses a numeric flag outside its range, declared once with
:func:`_ranged`.  A comma-list flag (``--cell-weights``, ``--a``, ``--b``) is
read once, by :func:`_comma_numbers`, and checked only by the library
constructor it builds, whose refusal is reported under the flag's name.
Each subcommand is one ``_cmd_*(args, seed)`` function.  It checks the rules
that tie flags together, computes its result and returns
``(config, results, (header, rows))``: the configuration echo, the JSON
``results`` block and the CSV rows.
:func:`main` renders every report.  It resolves the seed once, writes the CSV
rows under ``--format csv``, and otherwise builds the JSON envelope, appending
``seed_source`` to the echo and, under ``--timing``, adding ``wall_time_s``.
:func:`main` builds its argparse tree on its first call and reuses it for
every later call in the process.  ``scan`` evaluates the integer cell
polynomials at each grid point (:func:`strings.cell_numerators`) and divides
each CHSH and residual numerator once, building no ``Fraction`` per point.
``table --trace`` fills its file with :func:`strings.write_trace`, which
alone decides the line format, before it samples the table.

Every run is reproducible from ``--seed`` (or ``ENTANGLE_LAB_SEED``); reports
with the same configuration, seed and version are byte-identical regardless
of ``--workers``.  Exit codes: 0 success, 1 output failure (stdout closed
by its reader), 2 configuration error, 3 numerical invariant failure.  Errors
are emitted as JSON objects on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import (
    AVERAGE_BLOCK_FLOATS,
    BreakDistribution,
    MeasurementFrame,
    bloch_vector,
    collapse_counts,
    decompose,
    outcome_probabilities,
    rank_one_residual,
    universal_average,
)
from .probability import InvariantViolation, check_bell_bounds, chsh, exact_diagnostics, marginals
from .quantum import coplanar_axes, maximally_mixed_state, product_state, sample_table
from .quantum import singlet_state, table_for_axes
from .rng import MAX_BLOCKS, MAX_TRIALS, MAX_WORKERS
from .report import (
    _ROW_KEYS,
    bell_bounds_to_json,
    chsh_to_json,
    counts_to_json,
    emit_csv,
    make_report,
    marginals_to_json,
    report_to_json,
    table_to_json,
)
from .strings import StringModelConfig, Variant, analytic_table, cell_numerators, estimate_table, write_trace
from .strings import iter_trials  # noqa: F401  unused here, but perfbench/tracing.py patches cli.iter_trials

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "ENTANGLE_LAB_SEED"
ANALYTIC_MARGINAL_TOL = 1e-9  # the quantum analytic table's, whose cells are floats; an exact table's is 0
#: Traced trials per setting when ``--trace`` is given without ``--trace-limit``.
TRACE_LIMIT = 100
#: Most ``scan --steps``: a larger grid is refused before it is allocated.
SCAN_MAX_STEPS = 10**6

_VARIANT_CHOICES = [v.value for v in Variant]
_VARIANT_HELP = "string-model variant: v1 white, v1pre pre-broken, v2 unstable color, v3 parity, v4 two strings"


def _sampled_marginal_tol(trials: int) -> float:
    # A residual is the difference of two independent frequencies, each with
    # standard deviation at most 1/(2 sqrt(n)); 4/sqrt(n) is ~5.7 sigma of it.
    return 4.0 / math.sqrt(trials)


def _parse_seed(args) -> tuple[int, str]:
    if args.seed is not None:
        seed, source = args.seed, "flag"
    elif os.environ.get(SEED_ENV_VAR):
        raw = os.environ[SEED_ENV_VAR]
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
        source = "env"
    else:
        seed, source = 0, "default"
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed, source


def _comma_numbers(flag: str, text: str, build):
    """``build`` of the comma-separated numbers in ``text``; a refusal is a ValueError under ``flag``."""
    try:
        return build([float(part) for part in text.split(",")])
    except ValueError as exc:  # an InvariantViolation too: a refused flag is a configuration error
        raise ValueError(f"{flag}: {exc}") from None


def _detach_stdout() -> None:
    """Point stdout's file descriptor at the null device after its reader has gone.

    The interpreter flushes stdout once more at shutdown; on the closed pipe
    that flush would print an "Exception ignored" traceback.  A stdout with
    no file descriptor is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _diagnostics(table, tolerance) -> dict:
    """CHSH values, Bell-bound verdicts and marginal comparisons of one table."""
    quantities = chsh(table)
    return {
        "chsh": chsh_to_json(quantities),
        "bell_bounds": bell_bounds_to_json(check_bell_bounds(quantities)),
        "marginals": marginals_to_json(marginals(table, tolerance)),
    }


def _table_sections(analytic, analytic_tol, sampled, counts, trials):
    """JSON result sections shared by the table and quantum commands."""
    results = {
        "analytic": {
            "table": table_to_json(analytic, rationals=True),
            **_diagnostics(analytic, analytic_tol),
        },
        "sampled": None,
    }
    if sampled is not None:
        results["sampled"] = {
            "trials_per_setting": trials,
            "table": table_to_json(sampled),
            "counts": counts_to_json(counts),
            **_diagnostics(sampled, _sampled_marginal_tol(trials)),
        }
    return results


def _table_csv(analytic, sampled) -> tuple[list[str], list[list]]:
    header = ["section", "row", "p_pp", "p_pm", "p_mp", "p_mm"]
    rows = []
    sections = [("analytic", analytic)] + ([("sampled", sampled)] if sampled is not None else [])
    for section, table in sections:
        for label, dist in table.rows():
            rows.append([section, _ROW_KEYS[label]] + [float(p) for p in dist.probabilities()])
    return header, rows


def _cmd_table(args, seed: int) -> tuple[dict, dict, tuple[list, list]]:
    if args.p1 is not None and args.variant != Variant.V4.value:
        raise ValueError(f"--p1 applies to v4 only, not {args.variant}")
    if args.trace_limit is not None and not args.trace:
        raise ValueError("--trace-limit needs --trace")
    config = StringModelConfig(
        variant=Variant(args.variant),
        p_w=args.pw,
        p_1=args.p1,
        length_l=args.length,
    )
    if args.trace and args.trials == 0:
        raise ValueError("--trace needs --trials >= 1")

    if args.trace:
        # Written first, so a trace path that cannot be opened is refused before any sampling.
        with open(args.trace, "w", encoding="utf-8") as out:
            write_trace(out, config, seed, min(args.trace_limit or TRACE_LIMIT, args.trials))
    analytic = analytic_table(config)
    sampled = counts = None
    if args.trials:
        sampled, counts = estimate_table(config, args.trials, seed, workers=args.workers)

    config_echo = {
        "variant": config.variant.value,
        "p_w": float(config.p_w),
        "p_1": float(config.p_1),
        "length_l": float(config.length_l),
        "trials_per_setting": args.trials,
    }
    return config_echo, _table_sections(analytic, 0, sampled, counts, args.trials), _table_csv(analytic, sampled)


def _cmd_scan(args, seed: int) -> tuple[dict, dict, tuple[list, list]]:
    if args.parameter == "p_1" and args.variant != Variant.V4.value:
        raise ValueError(f"--parameter p_1 applies to v4 only, not {args.variant}")
    if args.p1 is not None and args.variant != Variant.V4.value:
        raise ValueError(f"--p1 applies to v4 only, not {args.variant}")
    if args.parameter == "p_w" and args.pw is not None:
        raise ValueError("--pw fixes p_w, which --parameter p_w scans")
    if args.parameter == "p_1" and args.p1 is not None:
        raise ValueError("--p1 fixes p_1, which --parameter p_1 scans")
    if not args.start < args.stop:
        raise ValueError("--start must be < --stop")
    variant = Variant(args.variant)
    grid = np.linspace(args.start, args.stop, args.steps)

    rows = []
    for value in grid.tolist():
        p_w = value if args.parameter == "p_w" else args.pw
        p_1 = value if args.parameter == "p_1" else args.p1
        config = StringModelConfig(variant=variant, p_w=p_w, p_1=p_1)  # every p_w and p_1 here is a float
        cells, d = cell_numerators(variant, config.p_w.as_integer_ratio(), config.p_1.as_integer_ratio())
        combinations, residual = exact_diagnostics([n for row in cells for n in row], d)
        # Int true division rounds correctly, so n / d is float(Fraction(n, d)).
        rows.append([value] + [q / d for q in combinations] + [residual / d])

    header = [args.parameter, "a_chsh", "b_chsh", "c_chsh", "d_chsh", "max_abs_marginal_residual"]
    config_echo = {
        "variant": variant.value,
        "parameter": args.parameter,
        "start": args.start,
        "stop": args.stop,
        "steps": args.steps,
        "fixed_p_w": None if args.parameter == "p_w" else float(config.p_w),
        "fixed_p_1": None if args.parameter == "p_1" else float(config.p_1),
    }
    return config_echo, {"header": header, "rows": rows}, (header, rows)


def _cmd_quantum(args, seed: int) -> tuple[dict, dict, tuple[list, list]]:
    state = maximally_mixed_state() if args.mixed else singlet_state()
    analytic = table_for_axes(state, coplanar_axes(args.alpha))

    sampled = counts = None
    if args.trials:
        sampled, counts = sample_table(analytic, args.trials, seed, workers=args.workers)

    config_echo = {
        "alpha": args.alpha,
        "mixed": bool(args.mixed),
        "trials_per_setting": args.trials,
    }
    return config_echo, _table_sections(analytic, ANALYTIC_MARGINAL_TOL, sampled, counts, args.trials), _table_csv(analytic, sampled)


def _collapse_geometry(costheta: float):
    """State and frame with r.n+ = costheta: n+ along +z, r tilted toward +x."""
    r = np.array([math.sqrt(max(0.0, 1.0 - costheta * costheta)), 0.0, costheta])
    return r, MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))


def _cmd_bloch_collapse(args, seed: int) -> tuple[dict, dict, tuple[list, list]]:
    r, frame = _collapse_geometry(args.costheta)
    weights = args.cell_weights
    dist = BreakDistribution() if weights is None else _comma_numbers("--cell-weights", weights, BreakDistribution)
    born_plus, born_minus = outcome_probabilities(r, frame)
    n_plus, n_minus = collapse_counts(r, frame, dist, args.trials, seed, workers=args.workers)

    config_echo = {
        "subcommand": "collapse",
        "costheta": args.costheta,
        "trials": args.trials,
        "cell_weights": args.cell_weights,
    }
    results = {
        "counts": {"plus": n_plus, "minus": n_minus},
        "frequencies": {"plus": n_plus / args.trials, "minus": n_minus / args.trials},
        "born": {"plus": born_plus, "minus": born_minus},
        "distribution_plus_probability": dist.plus_probability(born_plus),
    }
    rows = [
        ["+", n_plus, n_plus / args.trials, born_plus],
        ["-", n_minus, n_minus / args.trials, born_minus],
    ]
    return config_echo, results, (["outcome", "count", "frequency", "born"], rows)


def _cmd_bloch_average(args, seed: int) -> tuple[dict, dict, tuple[list, list]]:
    r, frame = _collapse_geometry(args.costheta)
    born_plus, born_minus = outcome_probabilities(r, frame)
    avg_plus, avg_minus = universal_average(r, frame, args.cells, args.dists, seed, workers=args.workers)
    config_echo = {
        "subcommand": "average",
        "costheta": args.costheta,
        "cells": args.cells,
        "dists": args.dists,
    }
    results = {
        "average": {"plus": avg_plus, "minus": avg_minus},
        "born": {"plus": born_plus, "minus": born_minus},
    }
    header = ["p_plus_avg", "p_minus_avg", "born_plus", "born_minus"]
    return config_echo, results, (header, [[avg_plus, avg_minus, born_plus, born_minus]])


def _is_finite_number(value) -> bool:
    # json.loads accepts NaN and Infinity literals, and ints past the float range.
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _load_state_file(path: str) -> np.ndarray:
    """Read a 4x4 complex matrix from JSON; errors name the offending position."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read state file {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    matrix = data.get("matrix") if isinstance(data, dict) else data
    if not isinstance(matrix, list) or len(matrix) != 4:
        raise ValueError(f"{path}: matrix: expected 4 rows")
    rho = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(f"{path}: matrix[{i}]: expected 4 entries")
        for j, cell in enumerate(row):
            if _is_finite_number(cell):
                rho[i, j] = complex(cell)
            elif isinstance(cell, list) and len(cell) == 2 and all(_is_finite_number(x) for x in cell):
                rho[i, j] = complex(cell[0], cell[1])
            else:
                raise ValueError(f"{path}: matrix[{i}][{j}]: expected a finite number or [re, im] pair")
    return rho


def _cmd_bloch_decompose(args, seed: int) -> tuple[dict, dict, tuple[list, list]]:
    flag_states = (("--a", args.a, "product"), ("--b", args.b, "product"), ("--state-file", args.state_file, "custom"))
    for flag, value, state in flag_states:
        if value is not None and args.state != state:
            raise ValueError(f"{flag} applies to --state {state} only, not {args.state}")
    if args.state == "singlet":
        rho = singlet_state()
    elif args.state == "mixed":
        rho = maximally_mixed_state()
    elif args.state == "product":
        if args.a is None or args.b is None:
            raise ValueError("--state product needs --a and --b Bloch vectors")
        rho = product_state(_comma_numbers("--a", args.a, bloch_vector), _comma_numbers("--b", args.b, bloch_vector))
    else:  # custom
        if args.state_file is None:
            raise ValueError("--state custom needs --state-file")
        rho = _load_state_file(args.state_file)

    vec = decompose(rho)
    config_echo = {
        "subcommand": "decompose",
        "state": args.state,
        "a": args.a,
        "b": args.b,
        "state_file": args.state_file,
    }
    results = vec.to_json_dict()
    results["norm"] = vec.norm
    results["rank_one_residual"] = rank_one_residual(vec.r_conn)
    blocks = ("r15", "r_alice", "r_bob", "r_conn")
    rows = [[block, index, value] for block in blocks for index, value in enumerate(results[block])]
    return config_echo, results, (["block", "index", "value"], rows)


def _ranged(parser, flag: str, kind: type, lo, hi, help: str, note: str = "", **kwargs) -> None:
    """Add a ``kind`` flag whose values lie in [lo, hi], or are >= lo when ``hi`` is None.

    The parser refuses a NaN or out-of-range value as a usage error, "must lie
    in [lo, hi], got v", and the help reads "help, in [lo, hi]note".
    """
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"

    def parse(text: str):
        value = kind(text)
        if not (lo <= value and (hi is None or value <= hi)):  # NaN compares false
            raise argparse.ArgumentTypeError(f"must {'be' if hi is None else 'lie'} {span}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value: 'abc'"
    parser.add_argument(flag, type=parse, help=f"{help}, {span}{note}", **kwargs)


_WORKERS_NO_EFFECT = ("accepted on every command for a uniform command line", "; has no effect on this command")
_WORKERS_SAMPLING = ("sampling threads", "; results are identical for any value")


def _add_common(parser: argparse.ArgumentParser, workers_help: tuple[str, str] = _WORKERS_NO_EFFECT) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed, in [0, 2**64 - 1] (default: $ENTANGLE_LAB_SEED or 0)")
    parser.add_argument("--format", choices=["json", "csv"], default="json", help="output format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    _ranged(parser, "--workers", int, 1, MAX_WORKERS, *workers_help, default=1)
    parser.add_argument("--timing", action="store_true", help="include wall time in the JSON report (json only)")


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports usage errors as the JSON error object on stderr, exit 2.

    Subparsers inherit the class, so this covers every subcommand; ``--help``
    and ``--version`` still print plain text and exit 0.
    """

    def error(self, message: str):
        _emit_error(EXIT_CONFIG, message)
        sys.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(prog="entangle-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"entangle-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="analytic and sampled tables of a string-model variant")
    table.add_argument("--variant", required=True, choices=_VARIANT_CHOICES, help=_VARIANT_HELP)
    table.add_argument("--pw", type=float, default=None, help="white-color probability, in [0, 1] (v2/v3/v4)")
    table.add_argument("--p1", type=float, default=None, help="string-1 selection probability, in [0, 1] (v4 only)")
    table.add_argument("--length", type=float, default=1.0, help="string length, positive and finite (cancels from probabilities)")
    _ranged(table, "--trials", int, 0, MAX_TRIALS, "Monte Carlo trials per setting", " (0: analytic only)", default=0)
    table.add_argument("--trace", default=None, help="write per-trial micro traces as JSON lines to this path")
    _ranged(table, "--trace-limit", int, 1, None, "traced trials per setting", f" (needs --trace; default {TRACE_LIMIT})")
    _add_common(table, workers_help=_WORKERS_SAMPLING)
    table.set_defaults(run=_cmd_table)

    scan = sub.add_parser("scan", help="sweep p_w or p_1 over a grid")
    scan.add_argument("--variant", required=True, choices=_VARIANT_CHOICES, help=_VARIANT_HELP)
    scan.add_argument("--parameter", required=True, choices=["p_w", "p_1"], help="the scanned parameter (p_1: v4 only)")
    _ranged(scan, "--start", float, 0, 1, "first grid value", required=True)
    _ranged(scan, "--stop", float, 0, 1, "last grid value", " and above --start", required=True)
    _ranged(scan, "--steps", int, 2, SCAN_MAX_STEPS, "grid points", required=True)
    scan.add_argument("--pw", type=float, default=None, help="fixed p_w when scanning p_1, in [0, 1]")
    scan.add_argument("--p1", type=float, default=None, help="fixed p_1 when scanning p_w, in [0, 1]")
    _add_common(scan)
    scan.set_defaults(run=_cmd_scan)

    quantum = sub.add_parser("quantum", help="singlet reference values on the coplanar axis family")
    _ranged(quantum, "--alpha", float, 0, math.pi, "angle between the A and B axes in radians", " (pi)", required=True)
    quantum.add_argument("--mixed", action="store_true", help="use the maximally mixed state instead of the singlet")
    _ranged(quantum, "--trials", int, 0, MAX_TRIALS, "sampled trials per setting", " (0: analytic only)", default=0)
    _add_common(quantum, workers_help=_WORKERS_SAMPLING)
    quantum.set_defaults(run=_cmd_quantum)

    bloch = sub.add_parser("bloch", help="collapse sampling, universal averages, 15-dim decomposition")
    bloch_sub = bloch.add_subparsers(dest="subcommand", required=True)

    collapse = bloch_sub.add_parser("collapse", help="sample the break-point collapse mechanism")
    costheta = ("--costheta", float, -1, 1, "r.n+ of the measured state")
    _ranged(collapse, *costheta, required=True)
    _ranged(collapse, "--trials", int, 1, MAX_TRIALS, "sampled collapses", " (default 10000)", default=10000)
    collapse.add_argument("--cell-weights", default=None, help="comma-separated piecewise cell weights (default: uniform)")
    _add_common(collapse, workers_help=_WORKERS_SAMPLING)
    collapse.set_defaults(run=_cmd_bloch_collapse)

    average = bloch_sub.add_parser("average", help="universal average over random break distributions")
    _ranged(average, *costheta, required=True)
    cells_help = f"equal cells per break distribution, in [1, {AVERAGE_BLOCK_FLOATS}] (default 64)"
    average.add_argument("--cells", type=int, default=64, help=cells_help)
    dists_help = f"distributions averaged, in [1, {MAX_BLOCKS} * ({AVERAGE_BLOCK_FLOATS} // cells)] (default 100000)"
    average.add_argument("--dists", type=int, default=100000, help=dists_help)
    _add_common(average, workers_help=_WORKERS_SAMPLING)
    average.set_defaults(run=_cmd_bloch_average)

    decompose_p = bloch_sub.add_parser("decompose", help="15-dimensional Bloch decomposition of a two-qubit state")
    states = ["singlet", "mixed", "product", "custom"]
    decompose_p.add_argument("--state", required=True, choices=states, help="the two-qubit state to decompose")
    decompose_p.add_argument("--a", default=None, help="Alice Bloch vector x,y,z (product state)")
    decompose_p.add_argument("--b", default=None, help="Bob Bloch vector x,y,z (product state)")
    decompose_p.add_argument("--state-file", default=None, help="JSON file with a 4x4 matrix (custom state)")
    _add_common(decompose_p)
    decompose_p.set_defaults(run=_cmd_bloch_decompose)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first :func:`main` call; parsing leaves it unchanged."""
    return build_parser()


def _emit_error(code: int, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handled it: 0 for --help/--version, 2 for usage errors
        return int(exc.code or 0)

    started = time.perf_counter()
    try:
        if args.timing and args.format == "csv":
            raise ValueError("--timing needs --format json: CSV output has no field for the wall time")
        seed, seed_source = _parse_seed(args)
        config, results, (header, rows) = args.run(args, seed)
        if args.format == "csv":
            text = emit_csv(header, rows)
        else:
            name = "bloch-" + args.subcommand if args.command == "bloch" else args.command
            report = make_report(name, {**config, "seed_source": seed_source}, seed, results)
            if args.timing:
                report["wall_time_s"] = time.perf_counter() - started
            text = report_to_json(report)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()  # a closed pipe fails here, not at interpreter shutdown
            except BrokenPipeError as exc:
                _detach_stdout()
                _emit_error(EXIT_OUTPUT, f"cannot write the report to stdout: {exc}")
                return EXIT_OUTPUT
    except InvariantViolation as exc:
        _emit_error(EXIT_NUMERIC, str(exc))
        return EXIT_NUMERIC
    except (ValueError, TypeError, OSError) as exc:
        _emit_error(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

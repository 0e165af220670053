"""Output checks made apart from entangle_lab.

Every expected value here is written out from the paper's closed forms or
computed with plain Python / numpy, never by calling the package.  A checker
raises :class:`CheckFailed` with a message naming the first wrong value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

HALF = Fraction(1, 2)
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)

#: |z| bound for a sampled cell against its closed-form probability.  At
#: 6 sigma a false alarm has probability ~2e-9 per cell, so none is expected
#: over the ~10^6 cells a full set of runs tests.
Z_BOUND = 6.0

ROW_LABELS = ("AB", "AB'", "A'B", "A'B'")
ROW_KEYS = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")
CHSH_NAMES = ("a_chsh", "b_chsh", "c_chsh", "d_chsh")


class CheckFailed(Exception):
    """An output of the program disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- string models -------------------------------------------------------


def reference_rows(variant: str, p_w, p_1=None) -> list[tuple[Fraction, ...]]:
    """The published closed-form rows (AB, AB', A'B, A'B'), cells ++ +- -+ --."""
    p_w = Fraction(p_w)
    p_b = 1 - p_w
    if variant == "v1":
        return [(0, HALF, HALF, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)]
    if variant == "v1pre":
        return [(0, HALF, HALF, 0), (HALF, 0, HALF, 0), (HALF, HALF, 0, 0), (1, 0, 0, 0)]
    if variant == "v2":
        return [(0, HALF, HALF, 0), (p_w, p_b, 0, 0), (p_w, 0, p_b, 0), (p_w, 0, 0, p_b)]
    if variant == "v3":
        diag = (p_w, 0, 0, p_b)
        return [(0, HALF, HALF, 0), diag, diag, diag]
    if variant != "v4":
        raise ValueError(f"unknown variant {variant!r}")
    p_1 = Fraction(p_1)
    q = p_1 * (1 - p_1)
    ab = (2 * q * p_w**2, HALF + q * (2 * p_w * p_b - 1), HALF + q * (2 * p_w * p_b - 1), 2 * q * p_b**2)
    other = (p_w * (1 - 2 * q * p_b), 2 * q * p_w * p_b, 2 * q * p_w * p_b, p_b * (1 - 2 * q * p_w))
    return [ab, other, other, other]


def correlations(rows) -> list:
    """E = P(++) + P(--) - P(+-) - P(-+) per row."""
    return [pp + mm - pm - mp for pp, pm, mp, mm in rows]


def chsh_values(rows) -> tuple:
    """(a, b, c, d): each flips the sign of one of E_AB, E_AB', E_A'B, E_A'B'."""
    e = correlations(rows)
    total = sum(e)
    return tuple(total - 2 * e_i for e_i in e)


def max_marginal_residual(rows):
    """Largest |difference| of one side's marginal across the partner's settings."""
    ab, ab_p, a_p_b, a_p_b_p = rows
    alice_plus = lambda r: r[0] + r[1]  # noqa: E731
    bob_plus = lambda r: r[0] + r[2]  # noqa: E731
    return max(
        abs(alice_plus(ab) - alice_plus(ab_p)),
        abs(alice_plus(a_p_b) - alice_plus(a_p_b_p)),
        abs(bob_plus(ab) - bob_plus(a_p_b)),
        abs(bob_plus(ab_p) - bob_plus(a_p_b_p)),
    )


def marginal_laws_hold(variant: str, p_w) -> bool:
    """Where the paper says no marginal depends on the remote setting."""
    return variant == "v1pre" or (variant in ("v3", "v4") and Fraction(p_w) == HALF)


def check_counts(where: str, expected_rows, counts_by_row, n: int) -> None:
    """Sampled counts against closed-form rows: sums, exact zeros/ones, z-scores."""
    for label, expected, counts in zip(ROW_LABELS, expected_rows, counts_by_row):
        require(len(counts) == 4, f"{where} {label}: {len(counts)} cells, not 4")
        require(sum(counts) == n, f"{where} {label}: counts sum to {sum(counts)}, not {n}")
        for cell, (p, c) in enumerate(zip(expected, counts)):
            if p == 0 or p == 1:
                require(c == p * n, f"{where} {label} cell {cell}: count {c}, closed form is exactly {p * n}")
                continue
            p = float(p)
            z = (c - n * p) / math.sqrt(n * p * (1.0 - p))
            require(abs(z) <= Z_BOUND, f"{where} {label} cell {cell}: z = {z:.2f} beyond {Z_BOUND}")


def check_sampled_table(variant, p_w, p_1, n, counts: dict, table) -> None:
    """One ``estimate_table`` result: raw counts and the frequency table."""
    where = f"estimate_table {variant}"
    require(tuple(counts) == ROW_LABELS, f"{where}: rows {tuple(counts)}")
    rows = [counts[label] for label in ROW_LABELS]
    check_counts(where, reference_rows(variant, p_w, p_1), rows, n)
    for (label, dist), cells in zip(table.rows(), rows):
        freqs = tuple(float(p) for p in dist.probabilities())
        require(freqs == tuple(c / n for c in cells), f"{where} {label}: frequencies {freqs} are not counts / {n}")


def check_exact_point(variant, p_w, p_1, table, quantities, marginal_report, bell_report) -> None:
    """One analytic grid point: table, CHSH, marginal residual and Bell verdicts, exactly."""
    where = f"{variant} p_w={p_w} p_1={p_1}"
    expected = reference_rows(variant, p_w, p_1)
    for (label, dist), row in zip(table.rows(), expected):
        got = dist.probabilities()
        require(all(isinstance(x, Fraction) for x in got), f"{where} {label}: {got} are not Fractions")
        require(tuple(got) == tuple(Fraction(x) for x in row), f"{where} {label}: {got} != {row}")
    values = chsh_values(expected)
    require(quantities.as_tuple() == values, f"{where}: CHSH {quantities.as_tuple()} != {values}")
    if variant == "v4" and Fraction(p_w) == HALF:
        p_1 = Fraction(p_1)
        closed = 4 * (p_1**2 + (1 - p_1) ** 2)
        require(quantities.a_chsh == closed, f"{where}: a_chsh {quantities.a_chsh} != 4(p1^2 + p2^2) = {closed}")
    residual = max_marginal_residual(expected)
    if marginal_laws_hold(variant, p_w):
        require(residual == 0, f"{where}: the closed form itself has marginal residual {residual}")
    require(
        marginal_report.max_abs_residual == residual,
        f"{where}: marginal residual {marginal_report.max_abs_residual} != {residual}",
    )
    for check, name, value in zip(bell_report.checks, CHSH_NAMES, values):
        require(check.quantity == name, f"{where}: Bell check order {check.quantity} != {name}")
        require(check.margin == abs(value) - 2, f"{where} {name}: margin {check.margin} != {abs(value) - 2}")
        require(check.violated == (abs(value) > 2), f"{where} {name}: violated flag {check.violated}")


# --- singlet reference ---------------------------------------------------


def coplanar_angles(alpha: float) -> tuple[float, float, float, float]:
    """Coplanar family: axis angles from +z toward +x of (A, A', B, B') at alpha."""
    return 0.0, math.pi / 2.0, alpha, alpha + math.pi / 2.0


def singlet_rows(alpha: float) -> list[tuple[float, float, float, float]]:
    """Singlet cells for the coplanar axes: P(same) = (1 - cos d)/2 with E = -cos d."""
    a, a_p, b, b_p = coplanar_angles(alpha)
    rows = []
    for x, y in ((a, b), (a, b_p), (a_p, b), (a_p, b_p)):
        c = math.cos(x - y)
        rows.append(((1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4))
    return rows


def singlet_max_chsh(alpha: float) -> float:
    a, a_p, b, b_p = coplanar_angles(alpha)
    e = [-math.cos(x - y) for x, y in ((a, b), (a, b_p), (a_p, b), (a_p, b_p))]
    total = sum(e)
    return max(abs(total - 2 * e_i) for e_i in e)


def check_scan(alphas, scan) -> None:
    """``scan_tsirelson`` output: per-angle max |CHSH| from E = -cos, the Tsirelson cap."""
    require(len(scan) == len(alphas), f"scan has {len(scan)} points for {len(alphas)} angles")
    hit = False
    for alpha, (got_alpha, value) in zip(alphas, scan):
        require(got_alpha == alpha, f"scan angle {got_alpha!r} != {alpha!r}")
        expected = singlet_max_chsh(alpha)
        require(abs(value - expected) <= 1e-12, f"scan at {alpha!r}: max|CHSH| {value!r} != {expected!r}")
        require(value <= TWO_SQRT_TWO + 1e-12, f"scan at {alpha!r}: {value!r} exceeds 2 sqrt 2")
        if alpha == math.pi / 4:
            require(abs(value - TWO_SQRT_TWO) <= 1e-12, f"scan at pi/4: {value!r} misses 2 sqrt 2")
            hit = True
    require(hit, "the angle grid has no pi/4 point")


# --- Bloch sphere --------------------------------------------------------


def piecewise_plus_probability(weights, born_plus: float) -> float:
    """P(break on the + side): the + segment covers [0, born_plus) of equal cells."""
    n = len(weights)
    total = 0.0
    for k, w in enumerate(weights):
        lo, hi = k / n, (k + 1) / n
        total += w * max(0.0, min(hi, born_plus) - lo) * n
    return total


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch_blocks(rho: np.ndarray):
    """(r_alice, r_bob, r_conn) as expectation values: <s_i x I>, <I x s_i>, <s_j x s_k>/sqrt 3."""
    eye = np.eye(2)
    expect = lambda op: float(np.trace(rho @ op).real)  # noqa: E731
    r_alice = [expect(np.kron(s, eye)) for s in PAULIS]
    r_bob = [expect(np.kron(eye, s)) for s in PAULIS]
    r_conn = [expect(np.kron(s, t)) / math.sqrt(3.0) for s in PAULIS for t in PAULIS]
    return r_alice, r_bob, r_conn


def check_decomposition(where: str, results: dict, rho: np.ndarray) -> None:
    r_alice, r_bob, r_conn = bloch_blocks(rho)
    for key, expected in (("r_alice", r_alice), ("r_bob", r_bob), ("r_conn", r_conn)):
        got = results[key]
        require(len(got) == len(expected), f"{where}: {key} has {len(got)} components")
        worst = max(abs(g - e) for g, e in zip(got, expected))
        require(worst <= 1e-12, f"{where}: {key} off by {worst:.3g}")
    norm = math.sqrt(sum(x * x for x in r_alice + r_bob) / 3.0 + sum(x * x for x in r_conn))
    require(abs(results["norm"] - norm) <= 1e-10, f"{where}: norm {results['norm']!r} != {norm!r}")


# --- reports -------------------------------------------------------------


def _reject_constant(name: str):
    raise CheckFailed(f"report contains {name}, which is not JSON")


def strict_json(text: str, where: str):
    """Parse as standard JSON: NaN and the infinities are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{where}: invalid JSON: {exc}") from None
    except CheckFailed as exc:
        raise CheckFailed(f"{where}: {exc}") from None


def read_csv(text: str, where: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0] == header, f"{where}: header {rows[:1]} != {header}")
    require(all(len(r) == len(header) for r in rows[1:]), f"{where}: ragged rows")
    return rows[1:]


def check_table_csv(text: str, variant: str, p_w) -> None:
    rows = read_csv(text, "table csv", ["section", "row", "p_pp", "p_pm", "p_mp", "p_mm"])
    require(len(rows) == 4, f"table csv: {len(rows)} rows, not 4")
    for row, key, expected in zip(rows, ROW_KEYS, reference_rows(variant, p_w)):
        require(row[:2] == ["analytic", key], f"table csv: row {row[:2]}")
        got = [float(x) for x in row[2:]]
        require(got == [float(x) for x in expected], f"table csv {key}: {got} != {expected}")


def check_scan_csv(text: str, steps: int, p_w) -> None:
    header = ["p_1", "a_chsh", "b_chsh", "c_chsh", "d_chsh", "max_abs_marginal_residual"]
    rows = read_csv(text, "scan csv", header)
    require(len(rows) == steps, f"scan csv: {len(rows)} rows, not {steps}")
    for i, row in enumerate(rows):
        p_1, a, b, c, d, residual = (float(x) for x in row)
        require(abs(p_1 - i / (steps - 1)) <= 1e-15, f"scan csv row {i}: p_1 {p_1!r}")
        expected = [float(v) for v in chsh_values(reference_rows("v4", p_w, Fraction(p_1)))]
        worst = max(abs(g - e) for g, e in zip((a, b, c, d), expected))
        require(worst <= 1e-12, f"scan csv p_1={p_1!r}: CHSH off by {worst:.3g}")
        if Fraction(p_w) == HALF:
            require(abs(a - 4 * (p_1**2 + (1 - p_1) ** 2)) <= 1e-12, f"scan csv p_1={p_1!r}: a_chsh {a!r}")
            require(residual == 0.0, f"scan csv p_1={p_1!r}: marginal residual {residual!r} is not 0")


def check_table_report(report: dict, variant: str, p_w, p_1, trials: int) -> None:
    require(report.get("command") == "table", f"table report command {report.get('command')!r}")
    expected = reference_rows(variant, p_w, p_1)
    analytic = report["results"]["analytic"]
    for key, row in zip(ROW_KEYS, expected):
        cells = analytic["table"][key]
        for name, p in zip(("pp", "pm", "mp", "mm"), row):
            require(cells[name] == float(p), f"table report {key}.{name}: {cells[name]!r} != {float(p)!r}")
            exact = cells["exact"][name]
            if Fraction(p).denominator <= 10**6:
                require(exact is not None and Fraction(exact) == p, f"table report {key}.{name}: exact {exact!r} != {p}")
    values = chsh_values(expected)
    for name, value in zip(CHSH_NAMES, values):
        got = analytic["chsh"][name]
        require(abs(got - float(value)) <= 1e-12, f"table report {name}: {got!r} != {float(value)!r}")
    sampled = report["results"]["sampled"]
    require(sampled["trials_per_setting"] == trials, f"table report trials {sampled['trials_per_setting']}")
    counts = [sampled["counts"][key] for key in ROW_KEYS]
    check_counts("table report", expected, counts, trials)


def check_trace_lines(text: str, per_setting: int) -> None:
    """Each traced v4 trial's outcome follows from its break, colors and selections."""
    length = 1.0  # the CLI's default --length
    lines = text.splitlines()
    require(len(lines) == 4 * per_setting, f"trace: {len(lines)} lines, not {4 * per_setting}")
    for n, line in enumerate(lines):
        rec = strict_json(line, f"trace line {n}")
        label = rec["setting"]
        require(label == ROW_LABELS[n // per_setting] and rec["trial"] == n % per_setting, f"trace line {n}: {label} #{rec['trial']}")
        alice_pulls = not label.startswith("A'")
        bob_pulls = not label.endswith("'")
        sel = [int(s.removeprefix("string")) - 1 for s in rec["selections"]]
        white = [rec["colors"][s] == "white" for s in sel]
        same = sel[0] == sel[1]
        bf = rec["break_fraction"]
        if same and (alice_pulls or bob_pulls):
            require(bf is not None, f"trace line {n}: shared pulled string but no break")
            if alice_pulls and bob_pulls:
                require(0.0 <= bf < 1.0, f"trace line {n}: break {bf!r}")
            else:
                require(bf == (1.0 if alice_pulls else 0.0), f"trace line {n}: lone puller break {bf!r}")
            require(abs(rec["length_alice"] - bf * length) <= 1e-12, f"trace line {n}: length_alice")
            require(abs(rec["length_alice"] + rec["length_bob"] - length) <= 1e-12, f"trace line {n}: lengths")
            # The fragment on Alice's side has length bf * L; long means at least half.
            long = (bf >= 0.5, bf < 0.5)
        else:
            require(bf is None, f"trace line {n}: break {bf!r} without a shared pulled string")
            long = (True, True)  # a puller alone on a string collects all of it
        plus = []
        for pulls, is_long, is_white in zip((alice_pulls, bob_pulls), long, white):
            plus.append(is_long == is_white if pulls else is_white)
        expected = ("+" if plus[0] else "-") + ("+" if plus[1] else "-")
        require(rec["outcome"] == expected, f"trace line {n}: outcome {rec['outcome']} != {expected}")


def check_quantum_report(report: dict, alpha: float, trials: int) -> None:
    require(report.get("command") == "quantum", f"quantum report command {report.get('command')!r}")
    expected = singlet_rows(alpha)
    table = report["results"]["analytic"]["table"]
    for key, row in zip(ROW_KEYS, expected):
        got = [table[key][name] for name in ("pp", "pm", "mp", "mm")]
        worst = max(abs(g - e) for g, e in zip(got, row))
        require(worst <= 1e-12, f"quantum {key}: off by {worst:.3g}")
    got_max = max(abs(v) for v in report["results"]["analytic"]["chsh"].values())
    require(abs(got_max - singlet_max_chsh(alpha)) <= 1e-12, f"quantum max|CHSH| {got_max!r}")
    counts = [report["results"]["sampled"]["counts"][key] for key in ROW_KEYS]
    check_counts("quantum sampled", [tuple(Fraction(p) for p in row) for row in expected], counts, trials)


def check_collapse_report(report: dict, weights, costheta: float, trials: int) -> None:
    results = report["results"]
    born_plus = (1.0 + costheta) / 2.0
    expected = piecewise_plus_probability(weights, born_plus)
    got = results["distribution_plus_probability"]
    require(abs(got - expected) <= 1e-12, f"collapse: plus probability {got!r} != {expected!r}")
    require(abs(results["born"]["plus"] - born_plus) <= 1e-15, f"collapse: born {results['born']['plus']!r}")
    n_plus, n_minus = results["counts"]["plus"], results["counts"]["minus"]
    require(n_plus + n_minus == trials, f"collapse: counts sum to {n_plus + n_minus}")
    z = (n_plus - trials * expected) / math.sqrt(trials * expected * (1 - expected))
    require(abs(z) <= Z_BOUND, f"collapse: z = {z:.2f} for plus frequency against {expected}")


def check_average_report(report: dict, costheta: float) -> None:
    avg = report["results"]["average"]
    born_plus = (1.0 + costheta) / 2.0
    require(abs(avg["plus"] - born_plus) < 0.01, f"average: plus {avg['plus']!r} is not near Born {born_plus}")
    require(abs(avg["plus"] + avg["minus"] - 1.0) <= 1e-12, "average: plus + minus != 1")

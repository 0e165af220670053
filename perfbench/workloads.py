"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, runs one timed op (a
fixed, uniform bundle of calls into ``entangle_lab``) and checks that op's
outputs with :mod:`checks`.  Ops call the package through module attributes
(``strings.estimate_table(...)``), so the tracer's patches see them.

The package modules are imported when a workload is built, not when this
file is imported: building the workload is what the set-up time covers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from checks import require


def _op_seeds(seed: int):
    """Per-op master seeds: distinct, unsigned 64-bit, a function of the run seed."""
    base = random.Random(seed).getrandbits(62)
    return lambda i: base + i


class McTables:
    """Sampled tables of all five variants; the work unit is one trial."""

    name = "mc_tables"
    TRIALS = 10 << 16  # per setting: ten full substream blocks
    PARAMS = (("v1", 1, None), ("v1pre", 1, None), ("v2", 0.75, None), ("v3", 0.5, None), ("v4", 0.5, 0.25))

    def __init__(self, seed: int, workdir: Path):
        from entangle_lab import strings

        self.strings = strings
        self.configs = [
            (params, strings.StringModelConfig(variant=params[0], p_w=params[1], p_1=params[2]))
            for params in self.PARAMS
        ]
        self.op_seed = _op_seeds(seed)
        self.work_per_op = len(self.configs) * 4 * self.TRIALS
        self.attempts_per_op = 1

    def op(self, i: int, tracer, workers: int = 1):
        seed = self.op_seed(i)
        return [
            (params, self.strings.estimate_table(config, self.TRIALS, seed, workers=workers))
            for params, config in self.configs
        ]

    def check(self, result) -> int:
        for (variant, p_w, p_1), (table, counts) in result:
            checks.check_sampled_table(variant, p_w, p_1, self.TRIALS, counts, table)
        return 0

    def check_workers(self, i: int) -> None:
        """Worker-count invariance: workers=2 must give the workers=1 counts."""
        one = self.op(i, None, workers=1)
        two = self.op(i, None, workers=2)
        for ((params, (_, c1)), (_, (_, c2))) in zip(one, two):
            require(c1 == c2, f"estimate_table {params[0]}: workers=2 counts {c2} != workers=1 counts {c1}")


def _odd_over_1024(rng: random.Random, count: int, exclude=()) -> list[Fraction]:
    """Distinct k/1024 with odd k: every point has the same denominator size."""
    picked: set[Fraction] = set()
    while len(picked) < count:
        p = Fraction(2 * rng.randrange(512) + 1, 1024)
        if p not in exclude:
            picked.add(p)
    return sorted(picked)


class ExactScans:
    """Exact string-model grids plus a singlet angle scan; the work unit is one table.

    Sized so the string part and the quantum part each take about half of an
    op: 320 rational tables (~280 ms) and 400 angles (~300 ms).
    """

    name = "exact_scans"
    GRID = 80
    ANGLES = 400

    def __init__(self, seed: int, workdir: Path):
        from entangle_lab import probability, quantum, strings

        self.strings, self.probability, self.quantum = strings, probability, quantum
        rng = random.Random(seed)
        anchors = [Fraction(0), checks.HALF, Fraction(1)]
        p_w_grid = sorted(anchors + _odd_over_1024(rng, self.GRID - 3))
        p_1_grid = sorted(anchors + _odd_over_1024(rng, self.GRID - 3))
        other_p_w = _odd_over_1024(rng, 1, exclude=(checks.HALF,))[0]
        points = [("v2", p_w, None) for p_w in p_w_grid]
        points += [("v3", p_w, None) for p_w in p_w_grid]
        points += [("v4", p_w, p_1) for p_w in (checks.HALF, other_p_w) for p_1 in p_1_grid]
        self.points = [(p, strings.StringModelConfig(variant=p[0], p_w=p[1], p_1=p[2])) for p in points]
        angles = [0.0, math.pi / 4, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(self.ANGLES - 3)]
        self.alphas = sorted(angles)
        self.rho = quantum.singlet_state()
        self.work_per_op = len(self.points) + len(self.alphas)
        self.attempts_per_op = 1

    def op(self, i: int, tracer):
        strings, probability = self.strings, self.probability
        out = []
        for point, config in self.points:
            table = strings.analytic_table(config)
            quantities = probability.chsh(table)
            out.append((point, table, quantities, probability.marginals(table, 0), probability.check_bell_bounds(quantities)))
        return out, self.quantum.scan_tsirelson(self.rho, self.alphas)

    def check(self, result) -> int:
        points, scan = result
        for (variant, p_w, p_1), table, quantities, marginal_report, bell_report in points:
            checks.check_exact_point(variant, p_w, p_1, table, quantities, marginal_report, bell_report)
        checks.check_scan(self.alphas, scan)
        return 0


def _unit_vector(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _qubit(r) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    return (eye + sum(x * s for x, s in zip(r, checks.PAULIS))) / 2.0


class CliReports:
    """One pass of in-process ``cli.main`` calls; the work unit is one command.

    The last command is expected to exit 2 and fails on every pass today:
    ``--cell-weights nan,1`` is accepted and the report carries a NaN.
    """

    name = "cli_reports"
    COMMANDS = ("table_json", "table_csv", "table_trace", "scan_csv", "quantum", "bloch_collapse", "bloch_average",
                "decompose_singlet", "decompose_product", "decompose_custom", "collapse_nan")
    TABLE_TRIALS = 100_000
    TRACE_TRIALS = 2_000
    TRACE_LIMIT = 500
    SCAN_STEPS = 101
    QUANTUM_TRIALS = 100_000
    COLLAPSE_TRIALS = 1_000_000
    COLLAPSE_WEIGHTS = (0.1, 0.2, 0.3, 0.4)
    COSTHETA = 0.5

    def __init__(self, seed: int, workdir: Path):
        from entangle_lab import cli

        self.cli = cli
        rng = random.Random(seed)
        self.alpha = math.pi / 4
        self.a, self.b = _unit_vector(rng), _unit_vector(rng)
        psi = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)])
        psi /= np.linalg.norm(psi)
        self.custom_rho = np.outer(psi, psi.conj())
        state_file = workdir / "state.json"
        matrix = [[[z.real, z.imag] for z in row] for row in self.custom_rho.tolist()]
        state_file.write_text(json.dumps({"matrix": matrix}), encoding="utf-8")
        self.trace_path = workdir / "trace.jsonl"
        v4 = ["--variant", "v4", "--pw", "0.5", "--p1", "0.25"]
        self.commands = {
            "table_json": ["table", *v4, "--trials", str(self.TABLE_TRIALS)],
            "table_csv": ["table", "--variant", "v2", "--format", "csv"],
            "table_trace": ["table", *v4, "--trials", str(self.TRACE_TRIALS), "--trace", str(self.trace_path),
                            "--trace-limit", str(self.TRACE_LIMIT)],
            "scan_csv": ["scan", "--variant", "v4", "--parameter", "p_1", "--pw", "0.5", "--start", "0", "--stop", "1",
                         "--steps", str(self.SCAN_STEPS), "--format", "csv"],
            "quantum": ["quantum", "--alpha", repr(self.alpha), "--trials", str(self.QUANTUM_TRIALS)],
            "bloch_collapse": ["bloch", "collapse", "--costheta", repr(self.COSTHETA), "--trials",
                               str(self.COLLAPSE_TRIALS), "--cell-weights", ",".join(map(repr, self.COLLAPSE_WEIGHTS))],
            "bloch_average": ["bloch", "average", "--costheta", repr(self.COSTHETA), "--cells", "64", "--dists", "20000"],
            "decompose_singlet": ["bloch", "decompose", "--state", "singlet"],
            "decompose_product": ["bloch", "decompose", "--state", "product", "--a=" + ",".join(map(repr, self.a)),
                                  "--b=" + ",".join(map(repr, self.b))],
            "decompose_custom": ["bloch", "decompose", "--state", "custom", "--state-file", str(state_file)],
            "collapse_nan": ["bloch", "collapse", "--costheta", repr(self.COSTHETA), "--cell-weights", "nan,1"],
        }
        assert tuple(self.commands) == self.COMMANDS
        self.outputs = {name: workdir / f"{name}.out" for name in self.commands}
        self.op_seed = _op_seeds(seed)
        self.work_per_op = len(self.commands)
        self.attempts_per_op = len(self.commands)

    def op(self, i: int, tracer):
        seed = str(self.op_seed(i))
        codes = {}
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            for name, argv in self.commands.items():
                with tracer.span("cli.main", name):
                    codes[name] = self.cli.main([*argv, "--seed", seed, "--out", str(self.outputs[name])])
        return codes, stderr.getvalue()

    def _read(self, name: str) -> str:
        return self.outputs[name].read_text(encoding="utf-8")

    def check(self, result) -> int:
        codes, stderr = result
        try:
            return self._check(codes, stderr)
        finally:
            for path in (*self.outputs.values(), self.trace_path):
                path.unlink(missing_ok=True)

    def _check(self, codes, stderr) -> int:
        for name, code in codes.items():
            if name != "collapse_nan":
                require(code == 0, f"{name}: exit code {code}")
        # Only the NaN command may write to stderr, and only its error object.
        nan_ok = codes["collapse_nan"] == 2 and not self.outputs["collapse_nan"].exists()
        expected_err = 1 if nan_ok else 0
        require(len(stderr.splitlines()) == expected_err, f"unexpected stderr: {stderr[:200]!r}")
        if nan_ok:
            checks.strict_json(stderr, "collapse_nan error")

        half = checks.HALF
        checks.check_table_report(checks.strict_json(self._read("table_json"), "table_json"), "v4", half,
                                  Fraction(1, 4), self.TABLE_TRIALS)
        checks.check_table_csv(self._read("table_csv"), "v2", half)
        checks.check_table_report(checks.strict_json(self._read("table_trace"), "table_trace"), "v4", half,
                                  Fraction(1, 4), self.TRACE_TRIALS)
        checks.check_trace_lines(self.trace_path.read_text(encoding="utf-8"), self.TRACE_LIMIT)
        checks.check_scan_csv(self._read("scan_csv"), self.SCAN_STEPS, half)
        checks.check_quantum_report(checks.strict_json(self._read("quantum"), "quantum"), self.alpha,
                                    self.QUANTUM_TRIALS)
        checks.check_collapse_report(checks.strict_json(self._read("bloch_collapse"), "bloch_collapse"),
                                     self.COLLAPSE_WEIGHTS, self.COSTHETA, self.COLLAPSE_TRIALS)
        checks.check_average_report(checks.strict_json(self._read("bloch_average"), "bloch_average"), self.COSTHETA)

        singlet = checks.strict_json(self._read("decompose_singlet"), "decompose_singlet")["results"]
        ket = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        checks.check_decomposition("decompose singlet", singlet, np.outer(ket, ket))
        require(abs(singlet["norm"] - 1.0) <= 1e-10, f"decompose singlet: norm {singlet['norm']!r}")
        expected = math.sqrt(2.0 / 3.0)  # r_conn = -I/sqrt 3: singular values 1/sqrt 3, 1/sqrt 3, 1/sqrt 3
        got = singlet["rank_one_residual"]
        require(abs(got - expected) <= 1e-12, f"decompose singlet: rank-one residual {got!r} != {expected!r}")

        product = checks.strict_json(self._read("decompose_product"), "decompose_product")["results"]
        checks.check_decomposition("decompose product", product, np.kron(_qubit(self.a), _qubit(self.b)))
        got = product["rank_one_residual"]
        require(0.0 <= got <= 1e-12, f"decompose product: rank-one residual {got!r}")

        custom = checks.strict_json(self._read("decompose_custom"), "decompose_custom")["results"]
        checks.check_decomposition("decompose custom", custom, self.custom_rho)
        require(abs(custom["norm"] - 1.0) <= 1e-10, f"decompose custom: pure state norm {custom['norm']!r}")
        return 0 if nan_ok else 1


WORKLOADS = {cls.name: cls for cls in (McTables, ExactScans, CliReports)}

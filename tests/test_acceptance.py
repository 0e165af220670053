"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each criterion prints a single pass/fail line (visible with ``pytest -s``)
and enforces its own runtime budget.
"""

import cmath
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from entangle_lab.bloch import (
    BreakDistribution,
    MeasurementFrame,
    collapse_counts,
    decompose,
    outcome_probabilities,
    rank_one_residual,
    reconstruct,
    universal_average,
)
from entangle_lab.cli import main
from entangle_lab.probability import chsh, marginals
from entangle_lab.quantum import AxisQuad, coplanar_axes, product_state, singlet_state, scan_tsirelson, table_for_axes
from entangle_lab.strings import (
    StringModelConfig,
    Variant,
    analytic_table,
    estimate_table,
    lhv_table,
)
from lhv_strategies import random_lhv_strategy

HALF = Fraction(1, 2)
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)

P_W_GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(math.sqrt(2) / 2), Fraction(1))
P_1_TABLE_GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1))
P_1_SAMPLING_GRID = (Fraction(0), Fraction(0.1782), HALF, Fraction(0.8218), Fraction(1))


@contextmanager
def criterion(number, name, runtime_limit_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    if elapsed > runtime_limit_s:
        print(f"[acceptance] {number:02d} {name}: FAIL (runtime {elapsed:.2f}s > {runtime_limit_s}s)", flush=True)
        raise AssertionError(f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s > {runtime_limit_s}s")
    print(f"[acceptance] {number:02d} {name}: PASS ({elapsed:.2f}s)", flush=True)


def grid_configs(p_1_grid):
    """Every variant with its parameter grid points."""
    configs = [
        StringModelConfig(variant=Variant.V1),
        StringModelConfig(variant=Variant.V1_PRE_BROKEN),
    ]
    for p_w in P_W_GRID:
        configs.append(StringModelConfig(variant=Variant.V2, p_w=p_w))
        configs.append(StringModelConfig(variant=Variant.V3, p_w=p_w))
        for p_1 in p_1_grid:
            configs.append(StringModelConfig(variant=Variant.V4, p_w=p_w, p_1=p_1))
    return configs


def reference_rows(config):
    """The published closed-form rows, written out independently."""
    p_w = Fraction(config.p_w)
    p_b = 1 - p_w
    if config.variant is Variant.V1:
        return [(0, HALF, HALF, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)]
    if config.variant is Variant.V1_PRE_BROKEN:
        return [(0, HALF, HALF, 0), (HALF, 0, HALF, 0), (HALF, HALF, 0, 0), (1, 0, 0, 0)]
    if config.variant is Variant.V2:
        return [(0, HALF, HALF, 0), (p_w, p_b, 0, 0), (p_w, 0, p_b, 0), (p_w, 0, 0, p_b)]
    if config.variant is Variant.V3:
        diag = (p_w, 0, 0, p_b)
        return [(0, HALF, HALF, 0), diag, diag, diag]
    p_1 = Fraction(config.p_1)
    p_2 = 1 - p_1
    ab = (
        2 * p_1 * p_2 * p_w**2,
        HALF + p_1 * p_2 * (2 * p_w * p_b - 1),
        HALF + p_1 * p_2 * (2 * p_w * p_b - 1),
        2 * p_1 * p_2 * p_b**2,
    )
    other = (
        p_w * (1 - 2 * p_1 * p_2 * p_b),
        2 * p_1 * p_2 * p_w * p_b,
        2 * p_1 * p_2 * p_w * p_b,
        p_b * (1 - 2 * p_1 * p_2 * p_w),
    )
    return [ab, other, other, other]


def test_criterion_01_table_reproduction():
    with criterion(1, "table-reproduction", 1.0):
        for config in grid_configs(P_1_TABLE_GRID):
            table = analytic_table(config)
            for (_, dist), expected in zip(table.rows(), reference_rows(config)):
                for produced, target in zip(dist.probabilities(), expected):
                    assert abs(produced - target) <= 1e-12, (config, produced, target)


def test_criterion_02_chsh_values():
    with criterion(2, "chsh-closed-forms", 1.0):
        assert chsh(analytic_table(StringModelConfig(variant=Variant.V1))).as_tuple() == (4, 0, 0, 0)
        pre = chsh(analytic_table(StringModelConfig(variant=Variant.V1_PRE_BROKEN)))
        assert pre.a_chsh == 2 and pre.d_chsh == -2
        for p_w in P_W_GRID:
            q2 = chsh(analytic_table(StringModelConfig(variant=Variant.V2, p_w=p_w)))
            assert abs(q2.a_chsh - 4 * p_w) <= 1e-12
            assert abs(q2.d_chsh + 4 * (1 - p_w)) <= 1e-12
            q3 = chsh(analytic_table(StringModelConfig(variant=Variant.V3, p_w=p_w)))
            assert abs(q3.a_chsh - 4) <= 1e-12
        for p_1 in P_1_TABLE_GRID:
            q4 = chsh(analytic_table(StringModelConfig(variant=Variant.V4, p_w=HALF, p_1=p_1)))
            p_2 = 1 - p_1
            assert abs(q4.a_chsh - 4 * (p_1**2 + p_2**2)) <= 1e-12
            for off in (q4.b_chsh, q4.c_chsh, q4.d_chsh):
                assert abs(off) <= 1e-12


def test_criterion_03_tsirelson_crossing():
    with criterion(3, "tsirelson-crossing", 1.0):
        for sign in (-1.0, 1.0):
            p_1 = 0.5 * (1.0 + sign * math.sqrt(math.sqrt(2.0) - 1.0))
            table = analytic_table(StringModelConfig(variant=Variant.V4, p_w=0.5, p_1=p_1))
            assert abs(float(chsh(table).a_chsh) - TWO_SQRT_TWO) < 1e-9


def test_criterion_04_marginal_laws():
    with criterion(4, "marginal-laws", 5.0):
        # the single-string color model signals: Alice's + marginal flips from 1/2 to 1
        for p_w in P_W_GRID:
            report = marginals(analytic_table(StringModelConfig(variant=Variant.V2, p_w=p_w)), 0)
            flagged = next(
                c for c in report.comparisons if c.side == "alice" and c.setting == "A" and c.outcome == "+"
            )
            assert abs(flagged.residual) == HALF
            assert report.violated
        # the parity models at p_w = 1/2 do not signal at all
        assert marginals(analytic_table(StringModelConfig(variant=Variant.V3, p_w=HALF)), 0).max_abs_residual == 0
        for p_1 in P_1_TABLE_GRID + (Fraction(0.1782), Fraction(0.8218)):
            report = marginals(analytic_table(StringModelConfig(variant=Variant.V4, p_w=HALF, p_1=p_1)), 0)
            assert report.max_abs_residual == 0
        # neither does the singlet, for any axes
        rng = np.random.default_rng(2024)
        rho = singlet_state()
        for _ in range(100):
            axes = rng.normal(size=(4, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            quad = AxisQuad(a=axes[0], a_prime=axes[1], b=axes[2], b_prime=axes[3])
            assert marginals(table_for_axes(rho, quad), 1e-12).max_abs_residual < 1e-12


def test_criterion_05_quantum_reference():
    with criterion(5, "quantum-reference", 10.0):
        q = chsh(table_for_axes(singlet_state(), coplanar_axes(math.pi / 4)))
        assert abs(abs(q.b_chsh) - TWO_SQRT_TWO) < 1e-12
        results = scan_tsirelson(singlet_state(), np.linspace(0.0, math.pi, 10_000))
        assert max(value for _, value in results) <= TWO_SQRT_TWO + 1e-9


def test_criterion_06_monte_carlo_convergence():
    with criterion(6, "monte-carlo-convergence", 120.0):
        n = 10**6
        bound = 4.0 / math.sqrt(n)
        for index, config in enumerate(grid_configs(P_1_SAMPLING_GRID)):
            sampled, _ = estimate_table(config, n, 20_240_000 + index, workers=4)
            exact = analytic_table(config)
            for (_, sampled_dist), (_, exact_dist) in zip(sampled.rows(), exact.rows()):
                for s, e in zip(sampled_dist.probabilities(), exact_dist.probabilities()):
                    assert abs(s - float(e)) < bound, config
            for s_q, e_q in zip(chsh(sampled).as_tuple(), chsh(exact).as_tuple()):
                assert abs(float(s_q) - float(e_q)) < 0.02, config


def test_criterion_07_lhv_bound():
    with criterion(7, "lhv-bell-bound", 10.0):
        rng = np.random.default_rng(1964)
        for _ in range(1000):
            alice, bob, lams, weights = random_lhv_strategy(16, rng)
            quantities = chsh(lhv_table(alice, bob, lams, weights))
            assert all(abs(value) <= 2 for value in quantities.as_tuple())


def spinor(v):
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    phi = math.atan2(v[1], v[0])
    return np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])


def test_criterion_08_born_oracle_equivalence():
    with criterion(8, "born-oracle", 30.0):
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(1000):
            r = rng.normal(size=3)
            r /= np.linalg.norm(r)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            p_plus, p_minus = outcome_probabilities(r, MeasurementFrame(n_plus=n))
            psi = spinor(r)
            oracle_plus = abs(np.vdot(spinor(n), psi)) ** 2
            oracle_minus = abs(np.vdot(spinor(-n), psi)) ** 2
            worst = max(worst, abs(p_plus - oracle_plus), abs(p_minus - oracle_minus))
        assert worst < 1e-12

        n_samples = 10**6
        for case, costheta in enumerate((-0.6, 0.1, 0.5)):
            r = np.array([math.sqrt(1 - costheta**2), 0.0, costheta])
            frame = MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))
            n_plus, _ = collapse_counts(
                r, frame, BreakDistribution(), n_samples, 880 + case
            )
            born_plus, _ = outcome_probabilities(r, frame)
            assert abs(n_plus / n_samples - born_plus) < 4.0 / math.sqrt(n_samples)


def test_criterion_09_bloch15_decomposition():
    with criterion(9, "bloch15-decomposition", 5.0):
        rng = np.random.default_rng(99)
        for index in range(100):
            if index % 2:
                g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
            else:
                psi = rng.normal(size=4) + 1j * rng.normal(size=4)
                psi /= np.linalg.norm(psi)
                rho = np.outer(psi, psi.conj())
            assert np.max(np.abs(reconstruct(decompose(rho)) - rho)) < 1e-10

        vec = decompose(singlet_state())
        assert np.allclose(vec.r_alice, 0.0, atol=1e-12)
        assert np.allclose(vec.r_bob, 0.0, atol=1e-12)
        assert abs(vec.norm - 1.0) < 1e-10
        assert rank_one_residual(vec.r_conn) > 0.1

        for _ in range(50):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            product_vec = decompose(product_state(a, b))
            assert rank_one_residual(product_vec.r_conn) < 1e-10


def test_criterion_10_universal_average():
    with criterion(10, "universal-average", 60.0):
        frame = MeasurementFrame(n_plus=np.array([0.0, 0.0, 1.0]))
        for case, costheta in enumerate((-0.8, -0.3, 0.0, 0.5, 0.9)):
            r = np.array([math.sqrt(1 - costheta**2), 0.0, costheta])
            born_plus, born_minus = outcome_probabilities(r, frame)
            avg_plus, avg_minus = universal_average(r, frame, 64, 100_000, 1000 + case)
            assert abs(avg_plus - born_plus) < 0.01
            assert abs(avg_minus - born_minus) < 0.01


def test_criterion_11_determinism(tmp_path, capsys):
    with criterion(11, "byte-identical-reports", 60.0):
        commands = {
            "table": ["table", "--variant", "v4", "--pw", "0.5", "--p1", "0.3", "--trials", "200000", "--seed", "13"],
            "scan": ["scan", "--variant", "v4", "--parameter", "p_1", "--pw", "0.5", "--start", "0", "--stop", "1", "--steps", "101", "--seed", "13", "--format", "csv"],
            "quantum": ["quantum", "--alpha", "0.785", "--trials", "50000", "--seed", "13"],
            "collapse": ["bloch", "collapse", "--costheta", "0.5", "--trials", "200000", "--seed", "13"],
            "average": ["bloch", "average", "--costheta", "0.5", "--cells", "64", "--dists", "20000", "--seed", "13"],
            "decompose": ["bloch", "decompose", "--state", "singlet", "--seed", "13"],
        }
        for name, args in commands.items():
            first = tmp_path / f"{name}_w1.out"
            second = tmp_path / f"{name}_w4.out"
            assert main(args + ["--workers", "1", "--out", str(first)]) == 0
            assert main(args + ["--workers", "4", "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
        capsys.readouterr()


def test_acceptance_reports_are_valid_json(tmp_path, capsys):
    # not a numbered criterion: guards the report schema the suite relies on
    out = tmp_path / "r.json"
    assert main(["table", "--variant", "v1", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1

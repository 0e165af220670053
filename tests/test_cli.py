"""End-to-end tests of the entangle-lab command-line interface."""

import argparse
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import entangle_lab
from entangle_lab import bloch, cli, quantum, rng, strings
from entangle_lab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OUTPUT, MAX_TRIALS, SCAN_MAX_STEPS, build_parser, main
from entangle_lab.report import emit_csv, parse_csv

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


class TestTable:
    def test_white_string_report(self, capsys):
        report = run_json(capsys, "table", "--variant", "v1")
        assert report["command"] == "table"
        assert report["results"]["analytic"]["chsh"]["a_chsh"] == 4.0
        assert report["results"]["analytic"]["bell_bounds"]["any_violated"] is True
        assert report["results"]["sampled"] is None
        assert report["seed"] == 0

    def test_two_string_fair_point(self, capsys):
        report = run_json(capsys, "table", "--variant", "v4", "--pw", "0.5", "--p1", "0.5")
        analytic = report["results"]["analytic"]
        assert analytic["chsh"]["a_chsh"] == 2.0
        assert analytic["marginals"]["max_abs_residual"] == 0.0
        assert analytic["marginals"]["violated"] is False

    def test_unstable_color_fair_point(self, capsys):
        report = run_json(capsys, "table", "--variant", "v2", "--pw", "0.5")
        assert report["results"]["analytic"]["chsh"]["a_chsh"] == 2.0
        assert report["results"]["analytic"]["chsh"]["d_chsh"] == -2.0
        assert report["results"]["analytic"]["marginals"]["violated"] is True

    def test_sampled_section(self, capsys):
        report = run_json(
            capsys, "table", "--variant", "v3", "--pw", "0.25", "--trials", "20000", "--seed", "11"
        )
        sampled = report["results"]["sampled"]
        assert sampled["trials_per_setting"] == 20000
        assert all(sum(cells) == 20000 for cells in sampled["counts"].values())
        assert sampled["marginals"]["tolerance"] == pytest.approx(4 / math.sqrt(20000))
        assert abs(sampled["chsh"]["a_chsh"] - 4.0) < 0.1

    def test_rational_echo(self, capsys):
        report = run_json(capsys, "table", "--variant", "v1")
        assert report["results"]["analytic"]["table"]["ab"]["exact"]["pm"] == "1/2"

    def test_csv_format_round_trips(self, capsys):
        code, out, err = run_cli(capsys, "table", "--variant", "v2", "--pw", "0.3", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["section", "row", "p_pp", "p_pm", "p_mp", "p_mm"]
        assert len(rows) == 4
        from entangle_lab.report import emit_csv

        assert emit_csv(header, rows) == out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "table", "--variant", "v1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["command"] == "table"

    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["table", "--variant", "v4", "--pw", "0.5", "--p1", "0.3", "--trials", "50000", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "w1.json", tmp_path / "w4.json"
        args = ["table", "--variant", "v4", "--pw", "0.5", "--p1", "0.3", "--trials", "150000", "--seed", "5"]
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "4", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_timing_field_is_opt_in(self, capsys):
        without = run_json(capsys, "table", "--variant", "v1")
        assert "wall_time_s" not in without
        with_timing = run_json(capsys, "table", "--variant", "v1", "--timing")
        assert with_timing["wall_time_s"] > 0

    def test_timing_with_csv_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, err = run_cli(capsys, "table", "--variant", "v1", "--format", "csv", "--timing", "--out", str(path))
        assert code == 2
        assert "--timing" in json.loads(err)["error"]["message"]
        assert not path.exists()

    def test_nan_probability_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--variant", "v2", "--pw", "nan", "--trials", "100")
        assert code == 2
        assert "p_w" in json.loads(err)["error"]["message"]

    def test_trace_dump(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            capsys,
            *("table", "--variant", "v4", "--trials", "50", "--trace", str(path), "--trace-limit", "10"),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 40  # 10 per setting
        record = json.loads(lines[0])
        assert record["setting"] == "AB"
        assert record["outcome"] in ("++", "+-", "-+", "--")
        assert set(record) >= {"break_fraction", "colors", "selections", "trial"}

    @pytest.mark.parametrize("variant", [v.value for v in strings.Variant])
    def test_a_trace_line_is_the_labels_then_the_micro_trace_fields(self, capsys, tmp_path, variant):
        path, seed, limit = tmp_path / "trace.jsonl", 9, 30
        args = ("table", "--variant", variant, "--trials", "40", "--seed", str(seed))
        assert run_cli(capsys, *args, "--trace", str(path), "--trace-limit", str(limit))[0] == 0
        config = strings.StringModelConfig(variant=strings.Variant(variant))
        expected = [
            json.dumps({"setting": setting.label, "trial": t, "outcome": pair.label, **trace._asdict()})
            for setting in strings.SETTINGS
            for t, (pair, trace) in enumerate(strings.iter_trials(config, setting, seed, limit))
        ]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == expected
        records = [json.loads(line) for line in lines]
        assert all(list(record) == ["setting", "trial", "outcome", *strings.MicroTrace._fields] for record in records)
        breaks = {record["break_fraction"] for record in records}
        if variant != "v1pre":
            assert {0.0, 1.0} <= breaks  # one-sided pulls: Bob, then Alice, collects the whole string
        if variant == "v4":
            apart = [record for record in records if record["selections"][0] != record["selections"][1]]
            assert apart and all(record["break_fraction"] is None for record in apart)

    @pytest.mark.parametrize(
        "variant, extra",
        [
            ("v1", []),
            ("v1pre", ["--length", "2.5"]),
            ("v2", ["--pw", "0.3"]),
            ("v3", ["--pw", "0.3", "--length", "0.1"]),
            ("v4", ["--pw", "0.3", "--p1", "0.7", "--length", "3"]),
        ],
    )
    def test_a_trace_across_blocks_is_the_json_of_the_replayed_trials(self, capsys, tmp_path, variant, extra):
        # 65 600 traced trials per setting run past the first block.
        path, seed, n = tmp_path / "trace.jsonl", 4, rng.TRIAL_BLOCK + 64
        args = ("table", "--variant", variant, *extra, "--trials", str(n), "--seed", str(seed))
        assert run_cli(capsys, *args, "--trace", str(path), "--trace-limit", str(n))[0] == 0
        options = dict(zip(extra[::2], map(float, extra[1::2])))
        config = strings.StringModelConfig(
            strings.Variant(variant), options.get("--pw"), options.get("--p1"), options.get("--length", 1.0)
        )
        expected = [
            json.dumps({"setting": setting.label, "trial": t, "outcome": pair.label, **trace._asdict()})
            for setting in strings.SETTINGS
            for t, (pair, trace) in enumerate(strings.iter_trials(config, setting, seed, n))
        ]
        assert path.read_text(encoding="utf-8").splitlines() == expected

    def test_a_long_trace_is_written_one_block_at_a_time(self, capsys, monkeypatch, tmp_path):
        path, n = tmp_path / "trace.jsonl", rng.TRIAL_BLOCK + 64
        writes = []

        class Recorder:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                writes.append(text.count("\n"))
                return self.handle.write(text)

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Recorder(open(*args, **kwargs)), raising=False)
        args = ("table", "--variant", "v2", "--trials", str(n), "--trace", str(path), "--trace-limit", str(n))
        assert run_cli(capsys, *args)[0] == 0
        assert sum(writes) == len(path.read_text(encoding="utf-8").splitlines()) == 4 * n
        assert max(writes) <= rng.TRIAL_BLOCK

    def test_an_unwritable_trace_path_is_refused_before_sampling(self, capsys, monkeypatch, tmp_path):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the trace file was opened")

        monkeypatch.setattr(cli, "estimate_table", no_sampling)
        path = tmp_path / "missing" / "t.jsonl"
        code, out, err = run_cli(capsys, "table", "--variant", "v1", "--trials", "10", "--trace", str(path))
        assert (code, out) == (2, "")
        assert "No such file or directory" in json.loads(err)["error"]["message"]

    def test_trace_needs_trials(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "table", "--variant", "v1", "--trace", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2

    def test_trace_limit_without_trace_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "table", "--variant", "v1", "--trials", "10", "--trace-limit", "5")
        assert (code, out) == (2, "")
        assert "--trace-limit" in json.loads(err)["error"]["message"]

    def test_a_trace_limit_below_one_is_refused_before_the_trace_is_opened(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        args = ("table", "--variant", "v1", "--trials", "10", "--trace", str(path), "--trace-limit", "0")
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "--trace-limit must be >= 1, got 0"
        assert not path.exists()

    @pytest.mark.parametrize("variant", ["v1", "v1pre", "v2", "v3"])
    def test_p1_outside_v4_is_refused(self, capsys, variant):
        code, out, err = run_cli(capsys, "table", "--variant", variant, "--p1", "0.3")
        assert (code, out) == (2, "")
        assert "--p1" in json.loads(err)["error"]["message"]

    def test_invalid_probability_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--variant", "v2", "--pw", "1.5")
        assert code == 2
        assert "p_w" in json.loads(err)["error"]["message"]

    def test_white_variant_rejects_pw(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--variant", "v1", "--pw", "0.5")
        assert code == 2

    def test_unknown_variant_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--variant", "v9")
        assert code == 2


class TestScan:
    def test_parity_variant_is_flat(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *("scan", "--variant", "v3", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "5"),
            "--format",
            "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "p_w"
        assert [row[1] for row in rows] == [4, 4, 4, 4, 4]

    def test_unstable_color_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            *("scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "2"),
            "--format",
            "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == 0 and rows[1][1] == 4

    def test_two_string_tsirelson_crossing(self, capsys):
        low = 0.5 * (1 - math.sqrt(math.sqrt(2) - 1))
        high = 0.5 * (1 + math.sqrt(math.sqrt(2) - 1))
        code, out, _ = run_cli(
            capsys,
            *("scan", "--variant", "v4", "--parameter", "p_1", "--pw", "0.5"),
            *("--start", repr(low), "--stop", repr(high), "--steps", "2", "--format", "csv"),
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[0][1] - TWO_SQRT_TWO) < 1e-9
        assert abs(rows[1][1] - TWO_SQRT_TWO) < 1e-9

    def test_json_format_echoes_grid(self, capsys):
        report = run_json(
            capsys,
            *("scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "3"),
        )
        assert report["config"]["parameter"] == "p_w"
        assert len(report["results"]["rows"]) == 3

    def test_rejects_bad_grids(self, capsys):
        base = ("scan", "--variant", "v2", "--parameter", "p_w")
        assert run_cli(capsys, *base, "--start", "0", "--stop", "1", "--steps", "1")[0] == 2
        assert run_cli(capsys, *base, "--start", "0.9", "--stop", "0.1", "--steps", "3")[0] == 2
        assert run_cli(capsys, *base, "--start", "-0.2", "--stop", "1", "--steps", "3")[0] == 2

    def test_rejects_unknown_parameter(self, capsys):
        code, _, _ = run_cli(
            capsys,
            *("scan", "--variant", "v2", "--parameter", "length", "--start", "0", "--stop", "1", "--steps", "2"),
        )
        assert code == 2

    def test_scanning_pw_on_white_variant_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys,
            *("scan", "--variant", "v1", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "3"),
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2


class TestQuantum:
    def test_reference_angle(self, capsys):
        report = run_json(capsys, "quantum", "--alpha", repr(math.pi / 4))
        chsh_values = report["results"]["analytic"]["chsh"]
        assert abs(chsh_values["b_chsh"] + TWO_SQRT_TWO) < 1e-12
        assert report["results"]["analytic"]["marginals"]["max_abs_residual"] < 1e-12

    def test_mixed_state_flag(self, capsys):
        report = run_json(capsys, "quantum", "--alpha", "0.5", "--mixed")
        assert all(abs(v) < 1e-12 for v in report["results"]["analytic"]["chsh"].values())

    def test_aligned_axes_reach_the_classical_bound_only(self, capsys):
        report = run_json(capsys, "quantum", "--alpha", "0")
        assert abs(abs(report["results"]["analytic"]["chsh"]["b_chsh"]) - 2.0) < 1e-12
        assert report["results"]["analytic"]["bell_bounds"]["any_violated"] is False

    def test_sampled_counts(self, capsys):
        report = run_json(capsys, "quantum", "--alpha", repr(math.pi / 4), "--trials", "5000", "--seed", "3")
        sampled = report["results"]["sampled"]
        assert all(sum(cells) == 5000 for cells in sampled["counts"].values())
        assert abs(sampled["chsh"]["b_chsh"] + TWO_SQRT_TWO) < 0.2

    def test_sampling_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["quantum", "--alpha", "0.7", "--trials", "2000", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_out_of_range_angle(self, capsys):
        code, _, err = run_cli(capsys, "quantum", "--alpha", "4.0")
        assert code == 2
        assert "alpha" in json.loads(err)["error"]["message"]


class TestBloch:
    def test_decompose_singlet(self, capsys):
        report = run_json(capsys, "bloch", "decompose", "--state", "singlet")
        results = report["results"]
        assert results["r_alice"] == [0.0, 0.0, 0.0]
        assert results["r_bob"] == [0.0, 0.0, 0.0]
        assert abs(results["norm"] - 1.0) < 1e-10
        assert results["rank_one_residual"] > 0.1

    def test_decompose_product(self, capsys):
        report = run_json(capsys, "bloch", "decompose", "--state", "product", "--a", "0,0,1", "--b", "1,0,0")
        assert report["results"]["rank_one_residual"] < 1e-10

    def test_decompose_product_needs_vectors(self, capsys):
        assert run_cli(capsys, "bloch", "decompose", "--state", "product")[0] == 2

    def test_decompose_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "decompose", "--state", "mixed", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["block", "index", "value"]
        assert len(rows) == 15 + 3 + 3 + 9

    def test_collapse_eigenstate(self, capsys):
        report = run_json(capsys, "bloch", "collapse", "--costheta", "1.0", "--trials", "1000")
        assert report["results"]["counts"]["plus"] == 1000
        assert report["results"]["frequencies"]["plus"] == 1.0

    def test_collapse_tracks_born(self, capsys):
        report = run_json(capsys, "bloch", "collapse", "--costheta", "0.5", "--trials", "100000", "--seed", "2")
        freq = report["results"]["frequencies"]["plus"]
        assert abs(freq - 0.75) < 4 / math.sqrt(100000)

    def test_collapse_with_cell_weights(self, capsys):
        report = run_json(
            capsys,
            *("bloch", "collapse", "--costheta", "0.5", "--trials", "500", "--cell-weights", "0,1,0,0"),
        )
        assert report["results"]["counts"]["plus"] == 500
        assert report["results"]["distribution_plus_probability"] == 1.0

    def test_average_single_cell_is_exact(self, capsys):
        report = run_json(capsys, "bloch", "average", "--costheta", "0.5", "--cells", "1", "--dists", "100")
        assert report["results"]["average"]["plus"] == report["results"]["born"]["plus"] == 0.75

    def test_average_converges(self, capsys):
        report = run_json(
            capsys, "bloch", "average", "--costheta", "0.5", "--cells", "16", "--dists", "20000", "--seed", "4"
        )
        assert abs(report["results"]["average"]["plus"] - 0.75) < 0.01

    def test_average_cells_are_bounded_by_one_block(self, capsys):
        # One distribution of 2**20 cells fills one block; one cell more is refused.
        report = run_json(capsys, "bloch", "average", "--costheta", "0.5", "--cells", str(2**20), "--dists", "1")
        assert report["config"]["cells"] == 2**20
        refused = ("bloch", "average", "--costheta", "0.5", "--cells", str(2**20 + 1), "--dists", "1")
        code, out, err = run_cli(capsys, *refused)
        assert (code, out) == (2, "")
        assert "cells must lie in [1, 1048576], got 1048577" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("weights", ["nan,1", "inf,1"])
    def test_collapse_rejects_non_finite_weights(self, capsys, tmp_path, weights):
        path = tmp_path / "collapse.json"
        code, _, err = run_cli(
            capsys, "bloch", "collapse", "--costheta", "0.5", "--cell-weights", weights, "--out", str(path)
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2
        assert not path.exists()

    def test_product_state_rejects_non_finite_vectors(self, capsys):
        code, _, err = run_cli(capsys, "bloch", "decompose", "--state", "product", "--a", "nan,0,0", "--b", "0,0,1")
        assert code == 2
        assert "--a" in json.loads(err)["error"]["message"]

    def test_rejects_bad_costheta(self, capsys):
        assert run_cli(capsys, "bloch", "collapse", "--costheta", "1.5", "--trials", "10")[0] == 2


class TestCustomStateFile:
    def write_state(self, tmp_path, payload):
        path = tmp_path / "state.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def singlet_matrix(self):
        h = 0.5
        return [
            [0, 0, 0, 0],
            [0, h, -h, 0],
            [0, -h, h, 0],
            [0, 0, 0, 0],
        ]

    def test_valid_matrix(self, capsys, tmp_path):
        path = self.write_state(tmp_path, {"matrix": self.singlet_matrix()})
        report = run_json(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert abs(report["results"]["norm"] - 1.0) < 1e-10

    def test_complex_entries(self, capsys, tmp_path):
        matrix = [[[0.25, 0.0] for _ in range(4)] for _ in range(4)]
        for k in range(4):
            matrix[k][k] = [0.25, 0.0]
        path = self.write_state(tmp_path, matrix)
        report = run_json(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert "r15" in report["results"]

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = self.write_state(tmp_path, '{"matrix": [[1, 2,\n  broken]]}')
        code, _, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert ":2:" in message  # line of the defect

    def test_wrong_shape_names_the_entry(self, capsys, tmp_path):
        bad = self.singlet_matrix()
        bad[2] = [0, 0, 0]
        path = self.write_state(tmp_path, {"matrix": bad})
        code, _, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert code == 2
        assert "matrix[2]" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("rows", [3, 5])
    def test_a_matrix_without_four_rows_is_refused(self, capsys, tmp_path, rows):
        path = self.write_state(tmp_path, {"matrix": [[0.25, 0, 0, 0]] * rows})
        code, out, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == f"{path}: matrix: expected 4 rows"

    def test_custom_needs_a_state_file(self, capsys):
        code, out, err = run_cli(capsys, "bloch", "decompose", "--state", "custom")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "--state custom needs --state-file"

    def test_bad_cell_names_the_position(self, capsys, tmp_path):
        bad = self.singlet_matrix()
        bad[1][3] = "oops"
        path = self.write_state(tmp_path, {"matrix": bad})
        code, _, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert code == 2
        assert "matrix[1][3]" in json.loads(err)["error"]["message"]

    def test_numerical_invariant_failure_exits_three(self, capsys, tmp_path):
        path = self.write_state(tmp_path, {"matrix": [[1, 0, 0, 0]] * 1 + [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]})
        code, _, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert code == 3
        assert json.loads(err)["error"]["code"] == 3

    def test_non_finite_entry_names_the_position(self, capsys, tmp_path):
        path = self.write_state(tmp_path, '[[0, 0, 0, 0], [0, 0.5, NaN, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]]')
        code, _, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert code == 2
        assert "matrix[1][2]" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("entry", [10**400, [0.0, -(10**400)]], ids=["bare", "pair"])
    def test_an_integer_past_the_float_range_names_the_position(self, capsys, tmp_path, entry):
        bad = self.singlet_matrix()
        bad[2][1] = entry
        path = self.write_state(tmp_path, {"matrix": bad})
        code, out, err = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", path)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["error"]["message"] == f"{path}: matrix[2][1]: expected a finite number or [re, im] pair"

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "bloch", "decompose", "--state", "custom", "--state-file", "/nope.json")
        assert code == 2


class TestSeedHandling:
    def test_env_seed_is_used_and_echoed(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTANGLE_LAB_SEED", "99")
        report = run_json(capsys, "table", "--variant", "v1")
        assert report["seed"] == 99
        assert report["config"]["seed_source"] == "env"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTANGLE_LAB_SEED", "99")
        report = run_json(capsys, "table", "--variant", "v1", "--seed", "7")
        assert report["seed"] == 7
        assert report["config"]["seed_source"] == "flag"

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTANGLE_LAB_SEED", "banana")
        code, _, _ = run_cli(capsys, "table", "--variant", "v1")
        assert code == 2

    def test_seed_range(self, capsys):
        assert run_cli(capsys, "table", "--variant", "v1", "--seed", "-1")[0] == 2
        assert run_cli(capsys, "table", "--variant", "v1", "--seed", str(2**64))[0] == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines():
    """Every ``entangle-lab`` command line in README's ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines() if line.startswith("entangle-lab ")]


def test_every_readme_cli_example_runs(capsys, monkeypatch, tmp_path):
    lines = readme_cli_lines()
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps(quantum.singlet_state().real.tolist()), encoding="utf-8")
    for i, line in enumerate(lines):
        out = tmp_path / f"{i}.out"
        code, stdout, err = run_cli(capsys, *shlex.split(line)[1:], "--out", str(out))
        assert (code, stdout, err) == (0, "", ""), line
        assert out.stat().st_size > 0, line


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


WORKER_COMMANDS = {
    "table": ["table", "--variant", "v1"],
    "scan": ["scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "3"],
    "quantum": ["quantum", "--alpha", "0.5"],
    "collapse": ["bloch", "collapse", "--costheta", "0.5", "--trials", "10"],
    "average": ["bloch", "average", "--costheta", "0.5", "--cells", "2", "--dists", "10"],
    "decompose": ["bloch", "decompose", "--state", "singlet"],
}


@pytest.mark.parametrize("workers", ["0", "-5"])
@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_workers_below_one_is_a_usage_error(capsys, command, workers):
    code, out, _ = run_cli(capsys, *WORKER_COMMANDS[command], "--workers", workers)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_workers_past_the_bound_is_a_usage_error_that_starts_no_thread(capsys, monkeypatch, command):
    def no_thread(self):
        raise AssertionError("a thread was started")

    argv = WORKER_COMMANDS[command]
    subcommand = argv[:2] if argv[0] == "bloch" else argv[:1]
    help_text = " ".join(run_cli(capsys, *subcommand, "--help")[1].split())
    assert "[1, 64]" in help_text.split("--workers WORKERS ", 1)[1].split("--timing", 1)[0]
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    code, out, err = run_cli(capsys, *argv, "--workers", "65")
    assert (code, out) == (EXIT_CONFIG, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == "argument --workers: must lie in [1, 64], got 65"


def test_the_most_workers_give_the_one_worker_table(capsys):
    assert rng.MAX_WORKERS == 64
    args = ("table", "--variant", "v2", "--trials", "10", "--seed", "4")
    assert run_json(capsys, *args, "--workers", "64") == run_json(capsys, *args, "--workers", "1")


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--variant", "v2", "--trials", "100", "--seed", "5"],
        ["quantum", "--alpha", "0.5", "--trials", "100", "--seed", "5"],
        ["bloch", "collapse", "--costheta", "0.5", "--trials", "100", "--seed", "5"],
    ],
)
def test_sampled_reports_carry_the_stream_format(capsys, args):
    assert run_json(capsys, *args)["stream_format"] == rng.STREAM_FORMAT


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools marks [tool.setuptools] as beta
def test_package_version_matches_pyproject():
    # The version is stated once, in __version__; the build reads it from there.
    from setuptools.config.pyprojecttoml import read_configuration

    config = read_configuration(str(Path(__file__).resolve().parents[1] / "pyproject.toml"), expand=True)
    assert "version" in config["project"]["dynamic"]
    assert entangle_lab.__version__ == config["project"]["version"]


@pytest.mark.parametrize(
    "args",
    [
        ["quantum", "--alpha", "0.5", "--workers", "0"],
        ["table", "--variant", "v9"],
        ["table", "--variant", "v1", "--trials", "abc"],
    ],
)
def test_usage_errors_are_one_json_line_on_stderr(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == 2
    assert error["message"]


def test_help_and_version_stay_plain_text(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert (code, out.strip(), err) == (0, f"entangle-lab {entangle_lab.__version__}", "")
    code, out, err = run_cli(capsys, "table", "--help")
    assert code == 0 and out.startswith("usage:") and err == ""


def leaf_parsers(parser, name="entangle-lab"):
    """(command line, parser) of every subcommand that takes no further subcommand."""
    subparsers = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        return [(name, parser)]
    return [leaf for sub, child in subparsers[0].choices.items() for leaf in leaf_parsers(child, f"{name} {sub}")]


def test_every_flag_of_every_subcommand_has_help():
    leaves = leaf_parsers(build_parser())
    commands = ("table", "scan", "quantum", "bloch collapse", "bloch average", "bloch decompose")
    assert sorted(name for name, _ in leaves) == sorted(f"entangle-lab {command}" for command in commands)
    for name, parser in leaves:
        for action in parser._actions:
            if action.option_strings:
                assert action.help and action.help != argparse.SUPPRESS, f"{name} {action.option_strings[0]}"


@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_workers_help_says_what_the_flag_does(capsys, command):
    argv = WORKER_COMMANDS[command]
    subcommand = argv[:2] if argv[0] == "bloch" else argv[:1]
    code, out, _ = run_cli(capsys, *subcommand, "--help")
    assert code == 0
    workers_help = " ".join(out.split()).split("--workers WORKERS ", 1)[1]
    if command in ("table", "quantum", "collapse", "average"):
        assert workers_help.startswith("sampling threads")
    else:
        assert "has no effect on this command" in workers_help.split("--timing", 1)[0]


@pytest.mark.parametrize(
    "weights, fragment",
    [
        ("0,0", "must sum to 1, got 0.0"),
        ("0.25,0.25", "must sum to 1, got 0.5"),
        ("-0.5,1.5", "weight 1 must be finite and non-negative"),
        ("0.5,-0.0001,0.5001", "weight 2 must be finite and non-negative"),
        (",", "weight 1 is not a number: ''"),
        ("abc,1", "weight 1 is not a number: 'abc'"),
        ("1,abc", "weight 2 is not a number: 'abc'"),
        ("nan,1", "weight 1 must be finite"),
    ],
)
def test_collapse_cell_weight_errors_are_configuration_errors(capsys, tmp_path, weights, fragment):
    path = tmp_path / "collapse.json"
    code, out, err = run_cli(
        capsys, "bloch", "collapse", "--costheta", "0.5", f"--cell-weights={weights}", "--out", str(path)
    )
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["code"] == 2
    assert error["message"].startswith("--cell-weights")
    assert fragment in error["message"]
    assert not path.exists()


def test_empty_cell_weights_are_refused(capsys, tmp_path):
    # An empty value is not the absent flag: it must not fall back to the uniform distribution.
    path = tmp_path / "collapse.json"
    code, out, err = run_cli(
        capsys, "bloch", "collapse", "--costheta", "0.5", "--trials", "10", "--cell-weights", "", "--out", str(path)
    )
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert message.startswith("--cell-weights")
    assert "weight 1 is not a number: ''" in message
    assert not path.exists()


@pytest.mark.parametrize(
    "a, message",
    [("1,0", "--a expects three comma-separated numbers, got '1,0'"), ("x,0,0", "--a expects numbers, got 'x,0,0'")],
    ids=["two-numbers", "not-a-number"],
)
def test_product_state_rejects_malformed_bloch_vectors(capsys, a, message):
    code, out, err = run_cli(capsys, "bloch", "decompose", "--state", "product", "--a", a, "--b", "0,0,1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize("flag, a, b", [("--b", "1,0,0", "2,0,0"), ("--a", "0.8,0.8,0", "0,0,1")])
def test_product_state_rejects_overlong_bloch_vectors(capsys, flag, a, b):
    code, out, err = run_cli(capsys, "bloch", "decompose", "--state", "product", "--a", a, "--b", b)
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"{flag} must have norm at most 1, got ")
    assert "np.float64" not in message
    float(message.rsplit(" ", 1)[1])  # a plain float


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--variant", "v2", "--parameter", "p_1"], "--parameter"),
        (["--variant", "v3", "--parameter", "p_w", "--p1", "0.3"], "--p1"),
        (["--variant", "v4", "--parameter", "p_w", "--pw", "0.3"], "--pw"),
        (["--variant", "v4", "--parameter", "p_1", "--p1", "0.3"], "--p1"),
    ],
    ids=["p_1-outside-v4", "p1-outside-v4", "pw-while-scanning-p_w", "p1-while-scanning-p_1"],
)
def test_scan_refuses_flags_that_do_nothing(capsys, args, flag):
    code, out, err = run_cli(capsys, "scan", *args, "--start", "0", "--stop", "1", "--steps", "3")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"].startswith(flag)


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--state", "singlet", "--a", "0,0,1"], "--a"),
        (["--state", "mixed", "--b", "0,0,1"], "--b"),
        (["--state", "product", "--a", "0,0,1", "--b", "1,0,0", "--state-file", "state.json"], "--state-file"),
    ],
    ids=["a-without-product", "b-without-product", "state-file-without-custom"],
)
def test_decompose_refuses_flags_that_do_nothing(capsys, args, flag):
    code, out, err = run_cli(capsys, "bloch", "decompose", *args)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"].startswith(flag)


REPORT_NAMES = {
    "table": "table",
    "scan": "scan",
    "quantum": "quantum",
    "collapse": "bloch-collapse",
    "average": "bloch-average",
    "decompose": "bloch-decompose",
}


@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_every_report_names_its_command(capsys, command):
    assert run_json(capsys, *WORKER_COMMANDS[command])["command"] == REPORT_NAMES[command]


@pytest.mark.parametrize("source, seed", [("flag", 7), ("env", 99), ("default", 0)])
@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_every_report_echoes_the_seed_source_last(capsys, monkeypatch, command, source, seed):
    monkeypatch.delenv("ENTANGLE_LAB_SEED", raising=False)
    if source == "env":
        monkeypatch.setenv("ENTANGLE_LAB_SEED", str(seed))
    extra = ["--seed", str(seed)] if source == "flag" else []
    report = run_json(capsys, *WORKER_COMMANDS[command], *extra)
    assert list(report["config"])[-1] == "seed_source"
    assert report["config"]["seed_source"] == source
    assert report["seed"] == seed


@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_every_command_adds_wall_time_only_with_timing(capsys, command):
    assert "wall_time_s" not in run_json(capsys, *WORKER_COMMANDS[command])
    assert run_json(capsys, *WORKER_COMMANDS[command], "--timing")["wall_time_s"] > 0


@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_every_command_refuses_timing_with_csv(capsys, command):
    code, out, err = run_cli(capsys, *WORKER_COMMANDS[command], "--format", "csv", "--timing")
    assert (code, out) == (2, "")
    assert "--timing" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command", sorted(WORKER_COMMANDS))
def test_every_command_csv_round_trips(capsys, command):
    code, out, err = run_cli(capsys, *WORKER_COMMANDS[command], "--format", "csv")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert rows
    assert emit_csv(header, rows) == out


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_stdout_is_an_output_error(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["table", "--variant", "v1", "--format", fmt]) == EXIT_OUTPUT == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == EXIT_OUTPUT
    assert "Broken pipe" in error["message"]


def test_an_unwritable_out_path_stays_a_configuration_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "table", "--variant", "v1", "--out", str(tmp_path / "missing" / "report.json"))
    assert (code, out) == (EXIT_CONFIG, "")
    assert json.loads(err)["error"]["code"] == EXIT_CONFIG


def test_a_reader_closing_the_pipe_ends_the_run_quietly():
    # The pipe's read end is closed before the child writes its report; the
    # child must exit 1 with the one JSON error line, and no traceback from
    # the interpreter's last flush of stdout.
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-m", "entangle_lab.cli", "table", "--variant", "v1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    child.stdout.close()
    try:
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == EXIT_OUTPUT
    finally:
        child.kill()
        child.stderr.close()
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"]["code"] == EXIT_OUTPUT


#: A finite state whose Hermiticity residual overflows (1.7e308 - -1.7e308).
OVERFLOWING_ASYMMETRY = [[0.25, 1.7e308, 0, 0], [-1.7e308, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]


@pytest.mark.parametrize(
    "args, state, code, message",
    [
        (
            ["collapse", "--costheta", "0.5", "--cell-weights", "1e308,1e308"],
            None, 2, "--cell-weights must sum to 1, got inf",
        ),
        (["decompose", "--state", "custom"], OVERFLOWING_ASYMMETRY, 3, "state is not Hermitian"),
        (["decompose", "--state", "custom"], [[0] * 4] * 4, 3, "state trace 0j deviates from 1"),
    ],
    ids=["overflowing-weight-sum", "overflowing-asymmetry", "zero-trace"],
)
def test_numeric_refusals_are_one_json_line_even_with_warnings_as_errors(tmp_path, args, state, code, message):
    # numpy's overflow warnings must not reach stderr, and under -W error they
    # must not turn the refusal into a traceback.
    if state is not None:
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        args = [*args, "--state-file", str(path)]
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entangle_lab.cli", "bloch", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout) == (code, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0]) == {"error": {"code": code, "message": message}}


#: Finite, Hermitian and of unit trace, but no state: one eigenvalue is -1.7e308.
HUGE_NON_PSD = [[1.7e308, 0, 0, 0], [0, -1.7e308, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.5]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_custom_matrix_that_is_no_state_is_refused_with_exit_three(tmp_path, fmt):
    # Run under -W error: the refusal comes before any arithmetic on the huge
    # entries, so no overflow warning can turn it into a traceback.
    state, out = tmp_path / "state.json", tmp_path / f"report.{fmt}"
    state.write_text(json.dumps(HUGE_NON_PSD))
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["bloch", "decompose", "--state", "custom", "--state-file", str(state), "--format", fmt, "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entangle_lab.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout) == (3, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    error = json.loads(lines[0])["error"]
    assert error["code"] == 3
    assert error["message"].startswith("state is not positive semidefinite (min eigenvalue -1.7e+308")
    assert not out.exists()


@pytest.mark.parametrize("steps", [SCAN_MAX_STEPS + 1, 10**12])
def test_scan_refuses_steps_past_the_maximum_before_allocating(capsys, monkeypatch, steps):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    args = ("scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", str(steps))
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (EXIT_CONFIG, "")
    assert json.loads(err)["error"]["message"] == f"--steps must lie in [2, {SCAN_MAX_STEPS}], got {steps}"


@pytest.mark.parametrize(
    "command, flag, message",
    [
        (("table", "--variant", "v1"), "--trials", "--trials must lie in [0, 4294967296]"),
        (("quantum", "--alpha", "0.5"), "--trials", "--trials must lie in [0, 4294967296]"),
        (("bloch", "collapse", "--costheta", "0.5"), "--trials", "--trials must lie in [1, 4294967296]"),
        (("bloch", "average", "--costheta", "0.5"), "--dists", "n_distributions must lie in [1, 1073741824] for 64 cells"),
    ],
)
def test_a_sample_count_past_the_cap_exits_2_before_any_block(capsys, monkeypatch, command, flag, message):
    def no_blocks(*args, **kwargs):
        raise AssertionError("blocks were mapped")

    monkeypatch.setattr(rng, "map_blocks", no_blocks)
    monkeypatch.setattr(bloch, "map_blocks", no_blocks)
    code, out, err = run_cli(capsys, *command, flag, "1000000000000")
    assert (code, out) == (EXIT_CONFIG, "")
    assert json.loads(err)["error"]["message"].startswith(message)


def test_sampling_help_states_the_count_ranges(capsys):
    assert MAX_TRIALS == 2**32
    for command, text in (
        (("table",), f"Monte Carlo trials per setting, in [0, {MAX_TRIALS}]"),
        (("quantum",), f"sampled trials per setting, in [0, {MAX_TRIALS}]"),
        (("bloch", "collapse"), f"sampled collapses, in [1, {MAX_TRIALS}]"),
        (("bloch", "average"), "distributions averaged, in [1, 65536 * (1048576 // cells)]"),
    ):
        code, out, _ = run_cli(capsys, *command, "--help")
        assert code == 0
        assert text in " ".join(out.split())


def test_scan_help_states_the_steps_range(capsys):
    code, out, _ = run_cli(capsys, "scan", "--help")
    assert code == 0
    assert f"grid points, in [2, {SCAN_MAX_STEPS}]" in " ".join(out.split())


@pytest.mark.parametrize(
    "pp_extra, pm_extra, fragment",
    [((((1, 0), -1),), (((1, 0), 1),), "AB: cell numerators (-1, "), ((((0, 0), 3),), (), "AB: cell numerators (3, ")],
    ids=["negative-cell", "row-sum-off"],
)
def test_scan_refuses_a_corrupted_numerator_row_with_exit_three(capsys, monkeypatch, pp_extra, pm_extra, fragment):
    # Terms added to v2's AB ++ and AB +- cells: a cell below 0 with the row
    # still summing to d, or a row that misses d.
    real = strings.cell_polynomials(strings.Variant.V2)
    (pp, pm, *rest), *rows = real.cells
    corrupted = strings.CellPolynomials(real.degrees, ((pp + pp_extra, pm + pm_extra, *rest), *rows))
    monkeypatch.setattr(strings, "cell_polynomials", lambda variant: corrupted)
    args = ("scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "3")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (EXIT_NUMERIC, "")
    error = json.loads(err)["error"]
    assert error["code"] == EXIT_NUMERIC
    assert error["message"].startswith(fragment) and error["message"].endswith("are not a distribution")


def fresh_process_output(*args) -> str:
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "entangle_lab.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, "table", "--variant", "v1")[0] == 0
        assert run_cli(capsys, "quantum", "--alpha", "0.5")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_a_trace_flag_does_not_carry_into_the_next_call(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "table", "--variant", "v2", "--trials", "10", "--trace", "trace.jsonl")[0] == 0
    (tmp_path / "trace.jsonl").unlink()
    code, out, _ = run_cli(capsys, "table", "--variant", "v2", "--trials", "10")
    assert code == 0
    assert json.loads(out)["command"] == "table"
    assert list(tmp_path.iterdir()) == []


SAMPLED_ARGS = ("table", "--variant", "v4", "--pw", "0.4", "--p1", "0.3", "--trials", "100", "--seed", "3")


@pytest.mark.parametrize("first, first_code", [(("table", "--variant", "v9"), 2), (("table", "--help"), 0)])
def test_a_call_after_a_usage_error_or_help_gives_a_fresh_process_bytes(capsys, first, first_code):
    assert run_cli(capsys, *first)[0] == first_code
    code, out, _ = run_cli(capsys, *SAMPLED_ARGS)
    assert code == 0
    assert out == fresh_process_output(*SAMPLED_ARGS)

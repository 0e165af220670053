"""Self-test of the benchmark's checks: every corruption must be caught.

    python3 perfbench/selftest.py

Runs one real op of each workload, confirms its checks pass, then feeds the
checks corrupted copies of that op's outputs (two cells swapped, one angle's
CHSH off by 1e-9, a report containing NaN, ...) and expects each to fail.
It also confirms that ``BENCHMARK.json`` names exactly the metrics that
``run.py`` prints.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import run  # also holds BLAS to one thread, as in a run
from checks import CheckFailed
from tracing import NullTracer

sys.path.insert(0, str(run.SRC))

from workloads import CliReports, ExactScans, McTables  # noqa: E402

failures: list[str] = []


def caught(label: str, check) -> None:
    try:
        check()
    except CheckFailed as exc:
        print(f"caught   {label}: {exc}")
        return
    print(f"MISSED   {label}")
    failures.append(label)


def passes(label: str, check) -> None:
    try:
        check()
    except CheckFailed as exc:
        print(f"REJECTED {label}: {exc}")
        failures.append(label)
        return
    print(f"accepted {label}")


def test_mc_tables(workdir: Path) -> None:
    from entangle_lab.probability import JointDistribution

    workload = McTables(7, workdir)
    result = workload.op(1, NullTracer())
    passes("mc_tables op", lambda: workload.check(result))

    def with_counts(variant: str, row: str, edit):
        out = []
        for params, (table, counts) in result:
            if params[0] == variant:
                counts = dict(counts)
                counts[row] = edit(list(counts[row]))
            out.append((params, (table, counts)))
        return out

    def swap01(cells):
        cells[0], cells[1] = cells[1], cells[0]
        return tuple(cells)

    def move_one(cells):
        cells[0] -= 1
        cells[1] += 1
        return tuple(cells)

    def add_one(cells):
        cells[2] += 1
        return tuple(cells)

    caught("mc_tables: two cells swapped in v4 AB", lambda: workload.check(with_counts("v4", "AB", swap01)))
    caught("mc_tables: one count in a zero cell of v1 AB'", lambda: workload.check(with_counts("v1", "AB'", move_one)))
    caught("mc_tables: counts of v3 A'B sum to n + 1", lambda: workload.check(with_counts("v3", "A'B", add_one)))

    def stale_table():
        out = list(result)
        params, (table, counts) = out[2]
        pp, pm, mp, mm = table.ab.probabilities()
        wrong = replace(table, ab=JointDistribution(pm, pp, mp, mm))
        out[2] = (params, (wrong, counts))
        return out

    caught("mc_tables: frequency table disagrees with counts", lambda: workload.check(stale_table()))


def test_exact_scans(workdir: Path) -> None:
    from entangle_lab.probability import JointDistribution

    workload = ExactScans(7, workdir)
    points, scan = workload.op(1, NullTracer())
    passes("exact_scans op", lambda: workload.check((points, scan)))

    def with_point(k: int, **changes):
        edited = list(points)
        point, table, quantities, marginal_report, bell_report = edited[k]
        fields = {"table": table, "quantities": quantities, "marginal_report": marginal_report,
                  "bell_report": bell_report}
        fields.update(changes)
        edited[k] = (point, fields["table"], fields["quantities"], fields["marginal_report"], fields["bell_report"])
        return edited, scan

    v4_half = next(k for k, p in enumerate(points) if p[0][0] == "v4" and p[0][1] == Fraction(1, 2) and 0 < p[0][2] < 1)
    _, table, quantities, marginal_report, bell_report = points[v4_half]
    pp, pm, mp, mm = table.ab.probabilities()
    caught("exact_scans: two cells swapped in a v4 table",
           lambda: workload.check(with_point(v4_half, table=replace(table, ab=JointDistribution(pm, pp, mp, mm)))))
    caught("exact_scans: a table of floats, not Fractions",
           lambda: workload.check(with_point(v4_half, table=replace(
               table, ab=JointDistribution(*(float(x) for x in table.ab.probabilities()))))))
    caught("exact_scans: v4 a_chsh off by 2^-40",
           lambda: workload.check(with_point(v4_half, quantities=replace(
               quantities, a_chsh=quantities.a_chsh + Fraction(1, 2**40)))))
    caught("exact_scans: nonzero marginal residual where the laws hold",
           lambda: workload.check(with_point(v4_half, marginal_report=replace(
               marginal_report, max_abs_residual=Fraction(1, 10**9)))))
    flipped = replace(bell_report.checks[0], violated=not bell_report.checks[0].violated)
    caught("exact_scans: one Bell verdict flipped",
           lambda: workload.check(with_point(v4_half, bell_report=replace(
               bell_report, checks=(flipped, *bell_report.checks[1:])))))

    def scan_with(k: int, delta: float):
        edited = list(scan)
        alpha, value = edited[k]
        edited[k] = (alpha, value + delta)
        return points, edited

    caught("exact_scans: one angle's CHSH off by 1e-9", lambda: workload.check(scan_with(len(scan) // 3, 1e-9)))
    quarter = workload.alphas.index(3.141592653589793 / 4)
    caught("exact_scans: pi/4 misses 2 sqrt 2 by 1e-9", lambda: workload.check(scan_with(quarter, -1e-9)))


def test_cli_reports(workdir: Path) -> None:
    workload = CliReports(7, workdir)
    codes, stderr = workload.op(1, NullTracer())
    saved = {path: path.read_text() for path in (*workload.outputs.values(), workload.trace_path) if path.exists()}

    def check(edit=None, codes=codes, stderr=stderr):
        for path, text in saved.items():
            path.write_text(text)
        if edit is not None:
            name, change = edit
            path = workload.trace_path if name == "trace" else workload.outputs[name]
            path.write_text(change(saved[path]))
        return workload.check((codes, stderr))

    counted = []
    passes("cli_reports pass", lambda: counted.append(check()))
    if counted != [1]:
        print(f"MISSED   cli_reports: the NaN command counted as {counted} failed, not [1]")
        failures.append("cli_reports failure count")

    def json_edit(edit):
        def change(text):
            report = json.loads(text)
            edit(report)
            return json.dumps(report, indent=2)
        return change

    def swap_cells(report):
        cells = report["results"]["analytic"]["table"]["ab"]
        cells["pp"], cells["pm"] = cells["pm"], cells["pp"]

    def swap_counts(report):
        cells = report["results"]["sampled"]["counts"]["ab"]
        cells[0], cells[1] = cells[1], cells[0]

    def shift_collapse(report):
        report["results"]["counts"]["plus"] += 10_000
        report["results"]["counts"]["minus"] -= 10_000

    def flip_first_outcome(text):
        lines = text.splitlines()
        record = json.loads(lines[0])
        record["outcome"] = {"+": "-", "-": "+"}[record["outcome"][0]] + record["outcome"][1]
        lines[0] = json.dumps(record)
        return "\n".join(lines) + "\n"

    def nudge_scan(text):
        lines = text.splitlines()
        cells = lines[7].split(",")
        cells[1] = repr(float(cells[1]) + 1e-9)
        lines[7] = ",".join(cells)
        return "\n".join(lines) + "\n"

    def set_result(key, value):
        return json_edit(lambda report: report["results"].__setitem__(key, value))

    caught("cli_reports: a report containing NaN",
           lambda: check(("quantum", lambda t: t.replace('"pp": ', '"pp": NaN, "was": ', 1))))
    caught("cli_reports: two analytic cells swapped", lambda: check(("table_json", json_edit(swap_cells))))
    caught("cli_reports: two sampled counts swapped", lambda: check(("table_trace", json_edit(swap_counts))))
    caught("cli_reports: CSV cell one ulp off",
           lambda: check(("table_csv", lambda t: t.replace(",0.5,", ",0.50000000000000011,", 1))))
    caught("cli_reports: scan CHSH off by 1e-9", lambda: check(("scan_csv", nudge_scan)))
    caught("cli_reports: traced outcome breaks the rule", lambda: check(("trace", flip_first_outcome)))
    caught("cli_reports: collapse frequency 20 sigma off", lambda: check(("bloch_collapse", json_edit(shift_collapse))))
    caught("cli_reports: average far from Born",
           lambda: check(("bloch_average", set_result("average", {"plus": 0.8, "minus": 0.2}))))
    caught("cli_reports: product residual 1e-9", lambda: check(("decompose_product", set_result("rank_one_residual", 1e-9))))
    caught("cli_reports: custom r_conn off by 1e-9",
           lambda: check(("decompose_custom", json_edit(lambda r: r["results"]["r_conn"].__setitem__(
               0, r["results"]["r_conn"][0] + 1e-9)))))
    caught("cli_reports: a command exits 3", lambda: check(codes={**codes, "quantum": 3}))
    caught("cli_reports: unexpected stderr", lambda: check(stderr=stderr + "warning\n"))


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        failures.append("end_to_end metrics differ from BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.PER_LAYER_UNITS:
        failures.append("per_layer metrics differ from BENCHMARK.json")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("workloads differ from BENCHMARK.json")
    print("checked  BENCHMARK.json against run.py")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        for test in (test_mc_tables, test_exact_scans, test_cli_reports):
            sub = workdir / test.__name__
            sub.mkdir()
            test(sub)
        test_benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.OUT_DIR.rmdir()
        except OSError:
            pass
    if failures:
        print(f"{len(failures)} self-test failure(s): {failures}")
        return 1
    print("every corruption was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())

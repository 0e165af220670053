"""Benchmark of entangle_lab: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {mc_tables,exact_scans,cli_reports} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One run is one fresh process driving the package from a single
thread.  It times set-up in fresh interpreters, runs one untimed warm-up op,
then runs whole ops for ``--seconds`` (and at least 40), checking every op's
outputs against references computed apart from the package.  A fixed
reference job of the benchmark's own runs after every op; the end-to-end
times are scaled by its nominal over its measured time, so they read as on
a host of the reference speed (see ``normalised``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops, and prints the per-layer metrics derived from the
spans plus the tracing overhead.  The last line of standard output is the
result object; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"  # scratch files of a run; removed when it ends

# One thread drives the package; BLAS is held to that thread too, so idle BLAS
# workers spinning after a matrix product do not add noise to the CPU time.
# This has to precede the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

SETUP_PROBES = 5
MIN_OPS = 40
TAIL_BEYOND = 10
W2_PAIRS = 3
# Wall (and CPU) seconds of one reference job on the host of the README's
# reference figures; the unit in which every end-to-end time is expressed.
REF_NOMINAL_S = 0.050

import checks  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CliReports  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "cpu_us_per_work": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.stream_key.calls": "count",
    "rng.stream_key.us_per_call": "us",
    "rng.block_uniforms.draws": "count",
    "rng.block_uniforms.ns_per_draw": "ns",
    "rng.block_uniforms.self_ms": "ms",
    "strings.estimate_table.self_ns_per_trial": "ns",
    "strings.estimate_table.speedup_w2": "ratio",
    "strings.iter_trials.us_per_trial": "us",
    "strings.analytic_table.calls": "count",
    "strings.analytic_table.us_per_call": "us",
    "probability.chsh.us_per_call": "us",
    "probability.marginals.us_per_call": "us",
    "probability.check_bell_bounds.us_per_call": "us",
    "quantum.scan_tsirelson.us_per_angle": "us",
    "quantum.table_for_axes.us_per_call": "us",
    "bloch.collapse_counts.ns_per_sample": "ns",
    "bloch.universal_average.ns_per_cell": "ns",
    "bloch.decompose.us_per_call": "us",
    "report.report_to_json.bytes": "count",
    "report.report_to_json.us_per_kb": "us",
    "report.emit_csv.rows": "count",
    "report.emit_csv.us_per_row": "us",
    **{f"cli.main.ms.{name}": "ms" for name in CliReports.COMMANDS},
    "cli.main.self_ms": "ms",
    "cli.import_ms": "ms",
    "host.ref_ms": "ms",
    "trace.overhead_pct": "%",
}


def setup_probe(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(seconds from spawn until the first op could start, package import ms)."""
    workdir.mkdir()
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited with code {code}")
    return elapsed, json.loads(line)["import_ms"]


_REF_GEN = np.random.Generator(np.random.Philox(0))
_REF_ARRAY = np.linspace(0.0, 1.0, 50_000)


def reference_job() -> tuple[float, float]:
    """(wall s, CPU s) of fixed work of the benchmark's own, none of it in the package.

    It holds the three kinds of work the workloads do: numpy Philox draws and
    a bincount over 16 384-row blocks, exact ``Fraction`` arithmetic, and
    small-array numpy with a Python integer loop.  Its arrays stay small, so
    it adds little to the run's peak memory.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(16):
        u = _REF_GEN.random((16_384, 8))
        np.bincount((u[:, 0] < 0.5) * 2 + (u[:, 1] < 0.25), minlength=4)
    for _ in range(10):
        x = Fraction(0)
        for k in range(1, 400):
            x += Fraction(k, 1024) * Fraction(3, k + 1)
    for _ in range(6):
        float(np.sort(np.sin(_REF_ARRAY * 7.0)).sum())
        total = 0
        for i in range(25_000):
            total += i * i % 7
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Run:
    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.times: list[float] = []
        self.cpus: list[float] = []
        # (wall s, CPU s) of the reference job before the first timed op and
        # after each one: op k lies between refs[k] and refs[k + 1].
        self.refs: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed_op(self, i: int, tracer) -> float:
        self.attempted += self.workload.attempts_per_op
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.workload.op(i, tracer)
        except Exception as exc:  # the package failed: report it as a failed op
            self.errors.append(f"op {i} raised {type(exc).__name__}: {exc}")
            self.failed += 1
            return 0.0
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self.times.append(elapsed)
        self.cpus.append(cpu)
        self.refs.append(reference_job())
        try:
            self.failed += self.workload.check(result)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))
            self.failed += 1
        return elapsed

    def done(self, started: float) -> bool:
        if self.errors:
            return True
        return len(self.times) >= MIN_OPS and time.perf_counter() - started >= self.seconds


def tail(times: list[float]) -> float:
    """The highest order statistic with at least TAIL_BEYOND ops above it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference jobs of the given times, scaled to REF_NOMINAL_S.

    The host is shared, and its speed shifts by tens of per cent from one
    second to the next, in wall and CPU time alike; the jobs on either side
    of a measurement see the speed it ran at.
    """
    return seconds * REF_NOMINAL_S * 2 / (before + after)


def end_to_end(run: Run, setup_times: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics; ``setup_times`` are already at the reference speed."""
    around = list(zip(run.refs, run.refs[1:]))  # op k lies between refs[k] and refs[k + 1]
    times = [at_reference_speed(t, before, after) for t, ((before, _), (after, _)) in zip(run.times, around)]
    cpus = [at_reference_speed(c, before, after) for c, ((_, before), (_, after)) in zip(run.cpus, around)]
    setup = statistics.median(setup_times)
    work = run.workload.work_per_op * len(times)
    values = {
        "setup_s": setup,
        "work_per_s": work / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": tail(times) * 1e3,
        "cpu_us_per_work": sum(cpus) / work * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def raw_summary(run: Run, setup_times: list[float]) -> str:
    """The same figures as measured, before scaling, for the standard-error summary."""
    work = run.workload.work_per_op * len(run.times)
    ref_ms = statistics.median(wall for wall, _ in run.refs) * 1e3
    return (f"as measured: setup_s={statistics.median(setup_times):.4g} work_per_s={work / sum(run.times):.4g} "
            f"op_ms_p50={statistics.median(run.times) * 1e3:.4g} op_ms_tail={tail(run.times) * 1e3:.4g} "
            f"cpu_us_per_work={sum(run.cpus) / work * 1e6:.4g} reference_job_ms={ref_ms:.4g} "
            f"(nominal {REF_NOMINAL_S * 1e3:g})")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, n_ops: int, extra: dict) -> dict:
    spans = tracer.spans
    out = {}

    def per_call(name: str, scale: float) -> float:
        calls, duration, _, work = tracing.totals(spans, name)
        return _ratio(duration * scale, work)

    calls, duration, _, _ = tracing.totals(spans, "rng.stream_key")
    out["rng.stream_key.calls"] = calls / n_ops
    out["rng.stream_key.us_per_call"] = _ratio(duration * 1e6, calls)
    _, duration, self_time, draws = tracing.totals(spans, "rng.block_uniforms")
    out["rng.block_uniforms.draws"] = draws / n_ops
    out["rng.block_uniforms.ns_per_draw"] = _ratio(duration * 1e9, draws)
    out["rng.block_uniforms.self_ms"] = self_time * 1e3 / n_ops
    _, _, self_time, trials = tracing.totals(spans, "strings.estimate_table")
    out["strings.estimate_table.self_ns_per_trial"] = _ratio(self_time * 1e9, trials)
    out["strings.estimate_table.speedup_w2"] = extra.get("speedup_w2", 0.0)
    out["strings.iter_trials.us_per_trial"] = per_call("strings.iter_trials", 1e6)
    calls, duration, _, _ = tracing.totals(spans, "strings.analytic_table")
    out["strings.analytic_table.calls"] = calls / n_ops
    out["strings.analytic_table.us_per_call"] = _ratio(duration * 1e6, calls)
    for name in ("probability.chsh", "probability.marginals", "probability.check_bell_bounds",
                 "quantum.table_for_axes", "bloch.decompose"):
        out[f"{name}.us_per_call"] = per_call(name, 1e6)
    out["quantum.scan_tsirelson.us_per_angle"] = per_call("quantum.scan_tsirelson", 1e6)
    out["bloch.collapse_counts.ns_per_sample"] = per_call("bloch.collapse_counts", 1e9)
    out["bloch.universal_average.ns_per_cell"] = per_call("bloch.universal_average", 1e9)
    _, duration, _, size = tracing.totals(spans, "report.report_to_json")
    out["report.report_to_json.bytes"] = size / n_ops
    out["report.report_to_json.us_per_kb"] = _ratio(duration * 1e6, size / 1024.0)
    _, duration, _, rows = tracing.totals(spans, "report.emit_csv")
    out["report.emit_csv.rows"] = rows / n_ops
    out["report.emit_csv.us_per_row"] = _ratio(duration * 1e6, rows)
    mains = [s for s in spans if s.name == "cli.main"]
    for name in CliReports.COMMANDS:
        durations = [s.duration for s in mains if s.label == name]
        out[f"cli.main.ms.{name}"] = statistics.median(durations) * 1e3 if durations else 0.0
    out["cli.main.self_ms"] = sum(s.self_time for s in mains) * 1e3 / n_ops
    out["cli.import_ms"] = extra.get("cli_import_ms", 0.0)
    out["host.ref_ms"] = extra["ref_ms"]
    out["trace.overhead_pct"] = extra["overhead_pct"]
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in out.items()}


def measure(args, workdir: Path) -> dict:
    # Set-up samples (as measured s, import ms, at reference speed s), spread
    # over the run so they see the same host as the ops.
    probes = []
    summary = []  # extra lines for the standard-error summary

    def probe():
        before = reference_job()[0]
        elapsed, import_ms = setup_probe(args.workload, args.seed, workdir / f"probe{len(probes)}")
        after = reference_job()[0]
        probes.append((elapsed, import_ms, at_reference_speed(elapsed, before, after)))

    reference_job()  # warm-up
    probe()
    (workdir / "main").mkdir()
    workload = WORKLOADS[args.workload](args.seed, workdir / "main")
    import entangle_lab

    if Path(entangle_lab.__file__).resolve().parent != SRC / "entangle_lab":
        raise RuntimeError(f"entangle_lab was imported from {entangle_lab.__file__}, not from {SRC}")

    run = Run(workload, args.seconds)
    null = tracing.NullTracer()
    try:  # warm-up op: untimed and not counted, but checked
        workload.check(workload.op(0, null))
    except checks.CheckFailed as exc:
        run.errors.append(str(exc))
    except Exception as exc:  # the package failed
        run.errors.append(f"warm-up op raised {type(exc).__name__}: {exc}")

    # Traced runs alternate traced and untraced ops, so the overhead is measured
    # on the same host state.
    tracer = tracing.Tracer() if args.trace else None
    traced, plain = [], []
    run.refs.append(reference_job())
    started = time.perf_counter()
    i = 0
    while not run.done(started):
        if len(probes) < SETUP_PROBES and time.perf_counter() - started >= len(probes) * args.seconds / SETUP_PROBES:
            probe()
        i += 1
        if tracer and i % 2:
            tracer.op = i
            tracer.install()
            try:
                traced.append(run.timed_op(i, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run.timed_op(i, null))
    while len(probes) < SETUP_PROBES:
        probe()

    # The peak memory of the single-threaded ops is read before the check at
    # workers=2, whose peak depends on how far its two threads overlap.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hasattr(workload, "check_workers"):
        try:
            workload.check_workers(0)
        except checks.CheckFailed as exc:
            run.errors.append(str(exc))
        except Exception as exc:  # the package failed
            run.errors.append(f"worker check raised {type(exc).__name__}: {exc}")

    if run.errors:  # the result is refused; its figures would mean nothing
        units = PER_LAYER_UNITS if tracer else END_TO_END_UNITS
        metrics = {name: (0.0, unit) for name, unit in units.items()}
    elif not tracer:
        metrics = end_to_end(run, [p[2] for p in probes], peak_rss_mb)
        summary.append(raw_summary(run, [p[0] for p in probes]))
    else:
        extra = {
            "ref_ms": statistics.median(wall for wall, _ in run.refs) * 1e3,
            "overhead_pct": (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0,
        }
        if args.workload == "cli_reports":
            extra["cli_import_ms"] = statistics.median(p[1] for p in probes)
        if hasattr(workload, "check_workers"):
            extra["speedup_w2"] = speedup_w2(workload, i + 1)
        metrics = per_layer(tracer, len(traced), extra)

    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "errors": run.errors,
        "summary": summary,
    }


def speedup_w2(workload, first_op: int) -> float:
    """Median workers=1 op time over median workers=2 op time, interleaved."""
    one, two = [], []
    for k in range(W2_PAIRS):
        for workers, sink in ((1, one), (2, two)):
            t0 = time.perf_counter()
            workload.op(first_op + k, None, workers=workers)
            sink.append(time.perf_counter() - t0)
    return statistics.median(one) / statistics.median(two)


def host_record() -> str:
    import numpy

    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entangle_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'entangle_lab'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    errors = result.pop("errors")
    print(host_record(), file=sys.stderr)
    for line in result.pop("summary"):
        print(line, file=sys.stderr)
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

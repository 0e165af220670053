"""Golden outputs: SHA-256 digests of trace files and reports, fixed per stream format.

The digests pin whole output bytes, not only keys or sampled counts, so any
change to the mechanism, the substreams or the serialization shows up here.
A deliberate change of sampled numbers must bump ``rng.STREAM_FORMAT`` and
re-record the digests that depend on it.
"""

import hashlib
import json

import pytest

from entangle_lab.cli import main

TRACE_ARGS = {
    "v1": ["--variant", "v1"],
    "v1pre": ["--variant", "v1pre"],
    "v2": ["--variant", "v2", "--pw", "0.3"],
    "v3": ["--variant", "v3", "--pw", "0.7"],
    "v4": ["--variant", "v4", "--pw", "0.4", "--p1", "0.3"],
}

# The commands of acceptance criterion 11.
REPORT_ARGS = {
    "table": ["table", "--variant", "v4", "--pw", "0.5", "--p1", "0.3", "--trials", "200000", "--seed", "13"],
    "scan": ["scan", "--variant", "v4", "--parameter", "p_1", "--pw", "0.5", "--start", "0", "--stop", "1", "--steps", "101", "--seed", "13", "--format", "csv"],
    "quantum": ["quantum", "--alpha", "0.785", "--trials", "50000", "--seed", "13"],
    "collapse": ["bloch", "collapse", "--costheta", "0.5", "--trials", "200000", "--seed", "13"],
    "average": ["bloch", "average", "--costheta", "0.5", "--cells", "64", "--dists", "20000", "--seed", "13"],
    "decompose": ["bloch", "decompose", "--state", "singlet", "--seed", "13"],
}

TRACE_DIGESTS = {
    "v1": "004454f149228305204dd5d99a66ee9e5787ab8dfcd7dd0ef8df13bd322416af",
    "v1pre": "26f46e1492c760202de0ccdf356635232ced4ca40f963a8d91081d2f39c9fb9c",
    "v2": "09308e99083af3d3d5db1c7f3cc193461d518eca7b8820848ee5b80700e3368b",
    "v3": "14140b185cab82369a05f709beda896c710559c031d5e913cb9f4674189398e0",
    "v4": "6bf686bd138929754a1e56d533891affe5c44d642610661e53b24dda88e3bbfd",
}

REPORT_DIGESTS = {
    "table": "32df74a1bec9d135acdb08029abd6273af81bce469c141d0bbdbb3b00d659ce4",
    "scan": "f758bfb63e17583f9a4416014970a349b8aa32c6f8599099c285fcd586cec5f3",
    "quantum": "9f364ef0e7f4e291e64a9896b37f2b3143d0eb15691b2a007fe117611775583a",
    "collapse": "6530b7c0fac2971b8b75d2bc8cd02bd0a9e4eddff3cdf61f3b3f7ec187ce5c95",
    "average": "4eacb3d73f169a17360f2d3f64db7eb4d6f7be9dd74a7b5b36deade55a236366",
    "decompose": "42fb643a9a914aba3fd2e4a2ee0ec9cd1366755b5241003d4a8c4391bed3d2f5",
}


def trace_digest(tmp_path, variant: str) -> str:
    path = tmp_path / f"{variant}.jsonl"
    args = ["table", *TRACE_ARGS[variant], "--trials", "500", "--seed", "21", "--trace", str(path), "--trace-limit", "120"]
    assert main(args + ["--out", str(tmp_path / f"{variant}.json")]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_digest(tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.out"
    assert main(REPORT_ARGS[name] + ["--workers", "1", "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(TRACE_ARGS))
def test_trace_bytes_are_golden(tmp_path, variant):
    assert trace_digest(tmp_path, variant) == TRACE_DIGESTS[variant]


@pytest.mark.parametrize("name", sorted(REPORT_ARGS))
def test_report_bytes_are_golden(tmp_path, name):
    assert report_digest(tmp_path, name) == REPORT_DIGESTS[name]


# Analytic-only reports: the exact CHSH values, Bell margins and marginal
# comparisons (v3 at p_w = 0.7 has nonzero first/second/residual values).
EXACT_ARGS = {
    "table_v3": ["table", "--variant", "v3", "--pw", "0.7"],
    "scan_v2": ["scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "101"],
}

EXACT_DIGESTS = {
    "table_v3": "577b8c2787d61ed48c972c2d4b43a1267185d0cc193da3825892dfd351cc84fc",
    "scan_v2": "59f0695c9d0458eb2ac631c27cde93fd421c92a9a4d61ae6ea484e03cf2e74a5",
}


@pytest.mark.parametrize("name", sorted(EXACT_ARGS))
def test_exact_report_bytes_are_golden(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(EXACT_ARGS[name] + ["--workers", "1", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXACT_DIGESTS[name]


# Decompositions that go through qubit_state and the generator stack with
# non-axis vectors, and through the state-file loader with complex entries.
# The custom state is 0.7 |psi><psi| + 0.3 I/4 with psi = (0.6, 0.48i, 0, 0.64).
CUSTOM_STATE = [
    [0.327, [0, -0.2016], 0, 0.2688],
    [[0, 0.2016], 0.23628, 0, [0, 0.21504]],
    [0, 0, 0.075, 0],
    [0.2688, [0, -0.21504], 0, 0.36172],
]

DECOMPOSE_ARGS = {
    "product": ["bloch", "decompose", "--state", "product", "--a", "0.3,-0.4,0.5", "--b=-0.6,0.2,0.7"],
    "custom": ["bloch", "decompose", "--state", "custom", "--state-file", "state.json"],
}

DECOMPOSE_DIGESTS = {
    "product": "886989d8434343ad5a4714603319f9ee4e49185c785cb32341e9a579242c491f",
    "custom": "9fb493893b9f211bb1f0c98b3951d2e8b5d50c2e2d6506d8a4d58e78f1d9af4e",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_ARGS))
def test_decompose_report_bytes_are_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps({"matrix": CUSTOM_STATE}), encoding="utf-8")
    assert main(DECOMPOSE_ARGS[name] + ["--seed", "13", "--out", "out.json"]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DECOMPOSE_DIGESTS[name]

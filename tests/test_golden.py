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
    "v1": "324f5f35b8160e3b18dbcc483963135ab0f13b8ac1c2063e2a41c62cb6a0f544",
    "v1pre": "a11b974c36aee8c6d7bc0a1ad484182d4f3c1a8114844845b48fb280742cc02c",
    "v2": "8a67f0c0febc3cd0817cb5cb043a43d7a72df95afd764d3d62cfe1b3f8b66b67",
    "v3": "5e9fd7266b4fc5def1503e0993b48b2cc273352ab410d55d94e4d3aa2929f9c1",
    "v4": "248e1cc827426cc1aba1b323cd14baec6b14fc5cfc5822e3f2c096676908481b",
}

REPORT_DIGESTS = {
    "table": "87c79f8ff86606dc8128bd69dd83025a9e3c3122f9ecc9d32c9402d4f26f3ba4",
    "scan": "f758bfb63e17583f9a4416014970a349b8aa32c6f8599099c285fcd586cec5f3",
    "quantum": "fed3391f8cc4c084604bf02dfa829cfd41068825ef1de08d1e5f94cdd52928e9",
    "collapse": "3dcc3418325b30dd88d5e767d6ca5971ee4fb800004294be0a299ca77f7c5d8f",
    "average": "4cfe736a3dc97e3e8375efe4006f9770b4f8a3e930c82814b9150da3c65ab24c",
    "decompose": "a3e70befe9115ccd5148462d18df40b0248a91cdf637f9ef10bd3e6c39989f93",
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
    "table_v3": "4c48935bf49e8228f02a16d9ebd68362b9ab6526c110006cd942454f628ecfd0",
    "scan_v2": "325f609ca27e2e7fe679936c5ca7e9e1b1e85bf22e60ae4487998018a239cc97",
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
    "product": "d7a287235d6f7cfa2163ef4439c7e439f0bf8bc50b3540d1a7e34d65584ccae3",
    "custom": "01d169af6cd0682fbf66bf89108f4da06b838cdf2e612f7e101548ea687077ff",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_ARGS))
def test_decompose_report_bytes_are_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps({"matrix": CUSTOM_STATE}), encoding="utf-8")
    assert main(DECOMPOSE_ARGS[name] + ["--seed", "13", "--out", "out.json"]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DECOMPOSE_DIGESTS[name]

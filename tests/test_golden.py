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
    "v1": "5d8931b0d6420a0b527d5199341a56227abad537671d2449cdc7637a7416f1e0",
    "v1pre": "1cada09674398537acd39e4d59a3ce816453954e8d4c317930b77d842a738a91",
    "v2": "3c24b9b774618fbe7fa4810293bd99731a74662a53c9de8c5cce85eb3c0fce1c",
    "v3": "618028545f63a6586a1bc0c138d82f0a603829b0be578215815178d17395bff7",
    "v4": "c8ed2dfb22bc3fbf2eae8b153ad3688cdc34e7be5a5f43ccf6c252cf3a10a3a8",
}

REPORT_DIGESTS = {
    "table": "9142ad436726c045043dd2d2686bb53feebc4790d27649dccce7efc6c72b2707",
    "scan": "f758bfb63e17583f9a4416014970a349b8aa32c6f8599099c285fcd586cec5f3",
    "quantum": "f1e42c7b0815e027ef4f7b207e8939b04667992a981654027b53cac22e2f296b",
    "collapse": "053f71cb1d0db568c24ce1c90122ab2324960a629b0f84e3749504cefbc2924a",
    "average": "e16d9fd4f9b88cf2ff4c9c46e8bbd771a92d02eab52b869fd4882e5a12ff6e24",
    "decompose": "0572fd6cb1bafd240e446a3d7470395d69e247ea0aeaba84e8084b027bc27287",
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
    "table_v3": "b85063f4a3f065345831418e4c330fa4299fc4be88cb66c21ea506910944dff0",
    "scan_v2": "2e8bc0bc122fc6a50af74aefbdb804ac6d6f1ccaa3b85bff0f00c047b67998b1",
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
    "product": "b8097c276d03b071dca90e86b295db922256d46114505837c836857430bf63f2",
    "custom": "8be1f47d8c6cbdb5d0a3e1b7c76abc1e74ec699068b3701ac5ae21bed7002df6",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_ARGS))
def test_decompose_report_bytes_are_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps({"matrix": CUSTOM_STATE}), encoding="utf-8")
    assert main(DECOMPOSE_ARGS[name] + ["--seed", "13", "--out", "out.json"]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DECOMPOSE_DIGESTS[name]

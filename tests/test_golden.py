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
    "v1": "b8cfb7f905419563b3b14acb53e25bd9c19b0a16da3b35221911606df4be428a",
    "v1pre": "7fd3d46867a0f424845a44f629e8f94ba412da5ea2dcbf7ccc6b9185ba9921be",
    "v2": "95ac223cb277b806dd979696a2739ce8c6062cc838262d649f554c4927809cd3",
    "v3": "09817c0dcd668a51fb4b90d9760504202db8b9661c036ae93d50540f5b42f6f3",
    "v4": "47cdee7b0e8f8861a9a1abe789dedc3f99bc6e1ab5fdf5c7221f82530a24239b",
}

REPORT_DIGESTS = {
    "table": "04df0dc938b96b6df291247586487da94f3481d8fcfd9e9362e2cb63a6640cbe",
    "scan": "f758bfb63e17583f9a4416014970a349b8aa32c6f8599099c285fcd586cec5f3",
    "quantum": "36658f5e327f0a3692f66b012b696bfa096544a1fde780352f3da8e0f36b2b5f",
    "collapse": "162e2ff68c305854abb89648de0c226804bed5218035daf963d81895ede24f51",
    "average": "0a11612687c9c39cf1714083c528281d2d4354520afa099bb33ca86b04ee04bd",
    "decompose": "8f21796aa55690dc1e3c4d7c001c19a37f0e3ddf808d7c3d64cad1d4ded77262",
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


# 65 600 traced trials per setting reach the second block, at a length other
# than 1 and at thresholds that take the tie path.  The digest was recorded
# from the writer that encoded each line with its own ``json.dumps``.
LONG_TRACE_ARGS = ["--variant", "v4", "--pw", "0.4", "--p1", "0.3", "--length", "2.5", "--trials", "65600"]
LONG_TRACE_DIGEST = "4df2b8e31314ffbd40b67b1ab6d6637d2abd4be933e748f9edf4af659942183e"


def test_a_trace_across_blocks_is_golden(tmp_path):
    path = tmp_path / "long.jsonl"
    args = ["table", *LONG_TRACE_ARGS, "--seed", "21", "--trace", str(path), "--trace-limit", "65600"]
    assert main(args + ["--out", str(tmp_path / "long.json")]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LONG_TRACE_DIGEST


@pytest.mark.parametrize("name", sorted(REPORT_ARGS))
def test_report_bytes_are_golden(tmp_path, name):
    assert report_digest(tmp_path, name) == REPORT_DIGESTS[name]


# Analytic-only reports: the exact CHSH values, Bell margins and marginal
# comparisons (v3 at p_w = 0.7 has nonzero first/second/residual values).
EXACT_ARGS = {
    "table_v3": ["table", "--variant", "v3", "--pw", "0.7"],
    "scan_v2": ["scan", "--variant", "v2", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "101"],
    "scan_v4_pw": ["scan", "--variant", "v4", "--parameter", "p_w", "--p1", "0.25", "--start", "0", "--stop", "1", "--steps", "101"],
    "scan_v3_csv": ["scan", "--variant", "v3", "--parameter", "p_w", "--start", "0", "--stop", "1", "--steps", "101", "--format", "csv"],
    # An odd fixed p_w and grid: long denominators in every cell.
    "scan_v4_p1_csv": [
        "scan", "--variant", "v4", "--parameter", "p_1", "--pw", "0.123456789",
        "--start", "0", "--stop", "1", "--steps", "333", "--format", "csv",
    ],
}

EXACT_DIGESTS = {
    "table_v3": "d8dcfdfe40f92976bac83ad58e12a59a4005461e173feeeab519c025d222b9c4",
    "scan_v2": "a058fcde3dfa57c2a3716d5d9cb0a4ea78e5cc73eb4206e193fbd127a332386d",
    "scan_v4_pw": "4881059fd35889b96ede7632b4f17fc0d0637981ec822061ab8d0a298948ced4",
    "scan_v3_csv": "3fa86fc551c6e59f9d1c22b453b80fb22989196bc6f55b8f543a1a9b02b1eef9",
    "scan_v4_p1_csv": "8b491dc418dc7d661025014fc656719bbdd6dd568aa534c602d95fb5cbf90eb9",
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
    "product": "c474c95af45010d803a71fe2dc206bb0dedcfa0c4134b23b663ee17c152278a8",
    "custom": "da68ef19e91337bc2a3011a44f67653e2c94d107e33f71bc4da75d8d75ac1d54",
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_ARGS))
def test_decompose_report_bytes_are_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps({"matrix": CUSTOM_STATE}), encoding="utf-8")
    assert main(DECOMPOSE_ARGS[name] + ["--seed", "13", "--out", "out.json"]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DECOMPOSE_DIGESTS[name]

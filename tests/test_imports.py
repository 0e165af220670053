"""The package imports without sympy, which it does not declare as a dependency, and the CLI imports lean.

Every sampled number comes from the package's keyed substreams, so no
public callable samples from a caller's generator, and only ``rng`` turns a
substream key into numbers.  Each operation has one public name.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import entangle_lab

IMPORT_ALL_WITHOUT_SYMPY = """
import importlib, pkgutil, sys
sys.modules["sympy"] = None  # any "import sympy" now raises ImportError
import entangle_lab
names = [m.name for m in pkgutil.iter_modules(entangle_lab.__path__, "entangle_lab.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_with_sympy_blocked():
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL_WITHOUT_SYMPY], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    modules = len(list(Path(entangle_lab.__file__).parent.glob("*.py"))) - 1  # all but __init__
    assert int(done.stdout) == modules


CLI_IMPORTS = """
import sys
import entangle_lab.cli
print(" ".join(name for name in ("concurrent.futures", "logging") if name in sys.modules))
"""


def test_the_cli_imports_no_thread_pool():
    # The thread pool (and the logging it imports) loads only when a run
    # samples on more than one worker.
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CLI_IMPORTS], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_the_cli_builds_no_parser_at_import():
    # main builds the parser on its first call, so the import stays as cheap as before.
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import entangle_lab.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def public_callables():
    """(qualified name, callable) of every public function, class and method defined in the package."""
    for info in pkgutil.iter_modules(entangle_lab.__path__, "entangle_lab."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if name.startswith("_") or not callable(value) or getattr(value, "__module__", None) != info.name:
                continue
            yield f"{info.name}.{name}", value
            if inspect.isclass(value):
                for attribute, method in vars(value).items():
                    if not attribute.startswith("_") and callable(method):
                        yield f"{info.name}.{name}.{attribute}", method


def parameters(fn) -> list[str]:
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # a callable without a signature
        return []


def test_no_public_callable_samples_from_a_callers_generator():
    # random_lhv_strategy builds a strategy from the caller's generator; it samples no trials.
    takers = {name for name, fn in public_callables() if "rng" in parameters(fn)}
    assert takers == {"entangle_lab.strings.random_lhv_strategy"}
    assert len(dict(public_callables())) > 50


KEYING_CALLS = {"bit_stream", "np.random.Generator", "np.random.SFC64", "np.random.default_rng"}


def dotted(node) -> str:
    """``a.b.c`` of a Name or Attribute chain, else the empty string."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_only_rng_turns_a_key_into_numbers():
    package = Path(entangle_lab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and dotted(node.func).removeprefix("rng.") in KEYING_CALLS:
                found.append(f"{path.name}:{node.lineno} {dotted(node.func)}")
    assert found == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("bloch", "BreakDistribution.uniform"),
        ("bloch", "BreakDistribution.piecewise"),
        ("quantum", "chsh_for_axes"),
        ("strings", "setting_index"),
        ("rng", "substream"),
        ("strings", "MicroTrace.to_json_dict"),
        ("probability", "JointDistribution.marginal_alice_plus"),
        ("probability", "JointDistribution.marginal_alice_minus"),
        ("probability", "JointDistribution.marginal_bob_plus"),
        ("probability", "JointDistribution.marginal_bob_minus"),
    ],
)
def test_a_removed_alias_is_gone(module, name):
    # Each re-spelled another public call: BreakDistribution(), BreakDistribution(w),
    # chsh(table_for_axes(rho, axes)), SETTINGS.index(s), rng.uniforms,
    # MicroTrace._asdict() and, for a row's marginal, the cell sums that
    # probability.marginals compares.
    owner = importlib.import_module(f"entangle_lab.{module}")
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)
    assert not hasattr(entangle_lab, last)


def test_the_cli_imports_no_private_name_and_no_trace_record_from_strings():
    # The trace's line format is decided in strings alone; the CLI calls strings.write_trace.
    # (iter_trials stays imported because perfbench/tracing.py patches cli.iter_trials.)
    tree = ast.parse((Path(entangle_lab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "strings" and node.level == 1
        for alias in node.names
    ]
    assert "write_trace" in names
    assert [name for name in names if name.startswith("_") or name == "MicroTrace"] == []

"""The package imports without sympy, which it does not declare as a dependency, and the CLI imports lean.

Every sampled number comes from the package's keyed substreams, so no
public callable samples from a caller's generator, and only ``rng`` turns a
substream key into numbers.  Each operation has one public name, and each
public name has a caller outside the tests or reproduces a claim a test
checks.
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


def test_the_package_imports_without_numpy_random():
    # rng checks numpy's SFC64 state layout at the first keying, not at import,
    # so an exact command never loads numpy.random.
    src = str(Path(entangle_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys, entangle_lab.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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
    takers = {name for name, fn in public_callables() if "rng" in parameters(fn)}
    assert takers == set()
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


def test_a_draw_keys_only_the_threads_own_generator():
    # rng seeds an SFC64 only as a thread's own and for its layout check,
    # and no call hands a draw a generator.
    package = Path(entangle_lab.__file__).parent
    seeders, handed = set(), []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)  # the top-level function or class around each call
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if dotted(node.func) == "np.random.SFC64":
                    seeders.add(f"{path.name} {owner}")
                handed += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for k in node.keywords if k.arg == "bit_generator"]
    assert seeders == {"rng.py _thread_generator", "rng.py _check_state_layout"}
    assert handed == []


def test_probability_has_one_exact_path():
    # Every table and every ChshQuantities carries its numerators and unscaler from
    # construction, so none is built late and no function asks whether they are there.
    tree = ast.parse((Path(entangle_lab.__file__).parent / "probability.py").read_text(encoding="utf-8"))
    names = [dotted(node) for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    names += [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [name for name in names if name.endswith("cached_property")] == []
    asked = [
        f"probability.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Constant) and side.value is None for side in [node.left, *node.comparators])
        and any(isinstance(part, ast.Attribute) and part.attr in {"_fraction", "_scaled_cells", "_scaled_values"} for part in ast.walk(node))
    ]
    assert asked == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("bloch", "BreakDistribution.uniform"),
        ("bloch", "BreakDistribution.piecewise"),
        ("quantum", "chsh_for_axes"),
        ("quantum", "axis_in_xz_plane"),
        ("quantum", "joint_distribution"),
        ("quantum", "projector"),
        ("strings", "setting_index"),
        ("strings", "pre_broken_lhv_strategy"),
        ("bloch", "decohere"),
        ("bloch", "lambda_basis"),
        ("report", "parse_csv"),
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
    # probability.marginals compares.  quantum.joint_distribution was a batch
    # of one of joint_probabilities, and quantum.projector re-ran the axis
    # check of the projector stack it called; quantum.axis_in_xz_plane was
    # coplanar_axes' placement of one axis, which no other code used.
    # pre_broken_lhv_strategy and parse_csv had only tests for callers and moved
    # to test helpers; bloch.decohere traced a path no statistic reads, and
    # bloch.lambda_basis() returned the constant LAMBDA_BASIS.
    owner = importlib.import_module(f"entangle_lab.{module}")
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)
    assert not hasattr(entangle_lab, last)


#: Public names that no other package code calls, each kept because README names the
#: claim of the paper it reproduces and a test checks that claim.
TEST_ONLY_NAMES = {
    "strings.lhv_table",  # every local strategy keeps |CHSH| <= 2 (test_strings.py, TestLhvBaseline)
    "probability.correlation",  # E(a, b) = -a.b for the singlet (test_quantum.py)
    "bloch.reconstruct",  # the 15-vector determines the two-qubit state (test_acceptance.py)
}


def referenced_names(tree) -> set[str]:
    """Every name, attribute and imported name that ``tree`` mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def unreferenced_public_names(package: Path, perfbench: Path) -> set[str]:
    """``module.name`` of each top-level public function and class of ``package`` that no
    other top-level statement of the package (``__init__``'s re-exports aside) and no
    ``perfbench/*.py`` file mentions."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    del modules["__init__"]
    outside = set().union(*(referenced_names(ast.parse(path.read_text(encoding="utf-8"))) for path in perfbench.glob("*.py")))
    statements = [(module, top, referenced_names(top)) for module, tree in modules.items() for top in tree.body]
    return {
        f"{module}.{top.name}"
        for module, top, _ in statements
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
        and top.name not in outside
        and not any(top.name in names for _, other, names in statements if other is not top)
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public name stays only if other package code or the benchmark uses it, or it
    # is on the short allow-list above; one that only tests call moves to a test helper.
    package = Path(entangle_lab.__file__).parent
    perfbench = package.parent.parent / "perfbench"
    assert (perfbench / "tracing.py").is_file()
    assert unreferenced_public_names(package, perfbench) == TEST_ONLY_NAMES
    assert len(TEST_ONLY_NAMES) <= 3


def test_the_caller_scan_sees_a_name_that_only_tests_call(tmp_path):
    package, perfbench = tmp_path / "pkg", tmp_path / "perfbench"
    package.mkdir()
    perfbench.mkdir()
    (package / "__init__.py").write_text("from .a import lonely, used, benched, helper\n")
    (package / "a.py").write_text(
        "def lonely():\n    return lonely\n\n"
        "def used():\n    return _private()\n\n"
        "def benched():\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "def _private():\n    return helper()\n"
    )
    (package / "b.py").write_text("from .a import used\n")
    (perfbench / "run.py").write_text("import a\na.benched()\n")
    assert unreferenced_public_names(package, perfbench) == {"a.lonely"}


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


def test_the_cli_handlers_leave_every_range_to_the_parser():
    # A flag's range is declared once, in the cli._ranged call that adds it; a
    # handler checks only the rules that tie flags together.
    tree = ast.parse((Path(entangle_lab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    handlers = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (node.name.startswith("_cmd_") or node.name == "_collapse_geometry")
    ]
    assert len(handlers) == 7
    refusals = [
        f"cli.py:{node.lineno} {ast.unparse(node.exc)}"
        for handler in handlers
        for node in ast.walk(handler)
        if isinstance(node, ast.Raise) and node.exc is not None
        and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str)
            and ("must lie in" in part.value or "must be >=" in part.value)
            for part in ast.walk(node.exc)
        )
    ]
    assert refusals == []


def test_the_cli_leaves_the_vector_tolerances_to_the_constructors():
    # --cell-weights, --a and --b are checked only by BreakDistribution and
    # bloch_vector, so the CLI names neither tolerance those checks use.
    tree = ast.parse((Path(entangle_lab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    names = {
        name
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if isinstance(name, str)
    }
    assert names.isdisjoint({"WEIGHT_TOL", "AXIS_NORM_TOL"})


def test_quantum_leaves_the_chsh_range_to_probability():
    # scan_tsirelson refuses through probability's one CHSH range rule, so
    # quantum names no tolerance of its own for it.
    tree = ast.parse((Path(entangle_lab.__file__).parent / "quantum.py").read_text(encoding="utf-8"))
    names = {
        name
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if isinstance(name, str)
    }
    assert "CHSH_RANGE_TOL" not in names


def test_quantum_leaves_the_row_rule_to_probability_and_has_one_norm():
    # joint_probabilities checks its rows through probability's batch form of
    # JointDistribution's rule, and every 3-vector norm is taken in one function.
    tree = ast.parse((Path(entangle_lab.__file__).parent / "quantum.py").read_text(encoding="utf-8"))
    names = {
        name
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if isinstance(name, str)
    }
    assert "NORMALIZATION_TOL" not in names
    norms = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "norm"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    }
    assert len(norms) <= 1, norms


def declared_dataclasses(source: str) -> dict[str, bool]:
    """Whether each class of ``source`` declared with ``@dataclass`` (bare or called) defines ``__post_init__``."""
    def is_dataclass(decorator) -> bool:
        return dotted(decorator.func if isinstance(decorator, ast.Call) else decorator) in {"dataclass", "dataclasses.dataclass"}

    return {
        node.name: any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
    }


def test_probability_declares_a_dataclass_only_where_it_validates():
    # A class whose __post_init__ checks nothing is a NamedTuple: a frozen dataclass's __init__ makes
    # one object.__setattr__ call per field, and an exact table's verdict builds 14 records.
    declared = declared_dataclasses((Path(entangle_lab.__file__).parent / "probability.py").read_text(encoding="utf-8"))
    assert [name for name, validates in declared.items() if not validates] == []
    assert set(declared) == {"JointDistribution", "ExperimentTable", "ChshQuantities"}


def test_the_dataclass_scan_sees_a_bare_and_a_called_decorator():
    source = (
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    x: int\n\n"
        "@dataclass(frozen=True)\nclass C:\n    x: int\n\n    def __post_init__(self):\n        pass\n\n"
        "class D(NamedTuple):\n    x: int\n"
    )
    assert declared_dataclasses(source) == {"A": False, "B": False, "C": True}


def two_argument_fractions(source: str) -> list[str]:
    """``Fraction(...)`` calls with two arguments, each with its line, outside the class ``_Fractions``."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body if isinstance(top, ast.ClassDef) and top.name == "_Fractions" for node in ast.walk(top)}
    return [
        f"{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and dotted(node.func).rpartition(".")[2] == "Fraction"
        and len(node.args) + len(node.keywords) == 2 and id(node) not in inside
    ]


def test_every_exact_value_from_an_integer_pair_comes_from_the_memo():
    # probability._Fractions builds each one from its lowest terms under its layout check.
    found = {
        path.name: calls
        for path in sorted(Path(entangle_lab.__file__).parent.glob("*.py"))
        if (calls := two_argument_fractions(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_fraction_scan_sees_a_call_outside_the_memo():
    source = (
        "class _Fractions(dict):\n    def f(self):\n        return Fraction(1, 2)\n\n"
        "def g():\n    return fractions.Fraction(3, 4), Fraction(5), Fraction(numerator=1, denominator=2)\n"
    )
    assert two_argument_fractions(source) == ["6 fractions.Fraction(3, 4)", "6 Fraction(numerator=1, denominator=2)"]

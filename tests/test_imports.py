"""The package imports without sympy, which it does not declare as a dependency, and the CLI imports lean."""

import os
import subprocess
import sys
from pathlib import Path

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

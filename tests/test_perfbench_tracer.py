"""The benchmark tracer's patch targets exist, and uninstalling restores them.

``perfbench/tracing.py`` wraps package attributes by name (``cli.chsh``,
``strings.block_uniforms``, ...).  A refactor that renames or drops one of
them breaks ``perfbench/run.py --trace 1``; this test loads the tracer by path,
unchanged, and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_target_and_uninstall_restores_it():
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, *_ in tracing._PATCHES + tracing._GENERATOR_PATCHES]
    modules = {name: importlib.import_module(f"entangle_lab.{name}") for name, _ in targets}
    originals = {(name, attr): getattr(modules[name], attr) for name, attr in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [target for target, original in originals.items() if getattr(modules[target[0]], target[1]) is not original]
    finally:
        tracer.uninstall()
    assert sorted(patched) == sorted(originals)
    restored = [target for target, original in originals.items() if getattr(modules[target[0]], target[1]) is original]
    assert sorted(restored) == sorted(originals)

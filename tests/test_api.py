"""The public names of the ``flic`` modules and the graph of their imports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flic

PACKAGE = Path(flic.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(flic.__path__))


def test_every_all_entry_resolves():
    assert "gaussian" in MODULES
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"flic.{name}")
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _loaded_by(module: str) -> set[str]:
    """The ``flic`` modules a fresh interpreter holds after ``import module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    script = (f"import sys, {module}; "
              "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'flic'))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    assert f"flic.{name}" in _loaded_by(f"flic.{name}")


def test_package_root_loads_no_module():
    assert _loaded_by("flic") == {"flic"}


def test_theory_harness_loads_only_rng():
    assert _loaded_by("flic.theory") == {"flic", "flic.rng", "flic.theory"}


def test_checkpoint_loading_does_not_load_federation():
    assert "flic.federation" not in _loaded_by("flic.reporting")


def test_no_function_imports_a_module():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []

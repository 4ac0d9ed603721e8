"""The public names of the ``flic`` modules."""

import importlib
import pkgutil

import flic


def test_every_all_entry_resolves():
    names = sorted(m.name for m in pkgutil.iter_modules(flic.__path__))
    assert "gaussian" in names
    missing = []
    for name in names:
        module = importlib.import_module(f"flic.{name}")
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

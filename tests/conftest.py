import os

import pytest


@pytest.fixture(autouse=True)
def no_flic_env(monkeypatch):
    """Run every test without the caller's ``FLIC_*`` settings, which
    override config values."""
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)

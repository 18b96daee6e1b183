import os
import sys
from pathlib import Path

import pytest

import gglab


@pytest.fixture
def cli_env():
    """The environment for a fresh interpreter that must import the gglab
    under test, also from an uninstalled checkout."""
    root = str(Path(gglab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` replaces every binding of ``fn`` in the loaded
    gglab modules by a wrapper that records its calls, and returns the
    record."""

    def count(fn) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for mod in [m for nm, m in sys.modules.items() if nm == "gglab" or nm.startswith("gglab.")]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return count

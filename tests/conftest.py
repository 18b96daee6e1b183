import os
from pathlib import Path

import pytest

import gglab


@pytest.fixture
def cli_env():
    """The environment for a fresh interpreter that must import the gglab
    under test, also from an uninstalled checkout."""
    root = str(Path(gglab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}

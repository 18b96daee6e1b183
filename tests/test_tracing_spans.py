"""Every span of the benchmark tracer names a live gglab binding.

The tracer patches gglab functions by name, so a deleted or rebound name
fails here, not only in a traced benchmark run.
"""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import gglab

# read without importing (or writing bytecode into) perfbench
TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))

for _info in pkgutil.iter_modules(gglab.__path__):
    importlib.import_module(f"gglab.{_info.name}")


@pytest.mark.parametrize("name", sorted(TRACING["SPANS"]))
def test_traced_span_resolves(name):
    home, path = TRACING["SPANS"][name]
    sites = TRACING["binding_sites"](home, path)  # raises BindingError on a rebinding
    assert sites, name
    owner = importlib.import_module(home)
    for part in path.split("."):
        assert part in vars(owner), (name, part)
        owner = vars(owner)[part]
    assert callable(owner), name

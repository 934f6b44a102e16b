"""The package's public surface: each module's ``__all__`` and the README's
library example."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import affinetl

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(affinetl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"affinetl.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["yhat"].shape == (40,)
    assert np.isfinite(namespace["yhat"]).all()

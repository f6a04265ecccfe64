"""The package's lazy exports: each public name is resolved from its
submodule on first access, so a process imports only what it uses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sharedsched

EXPORTS = [name for name in sharedsched.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_submodules_object(name):
    module = importlib.import_module(f"sharedsched.{sharedsched._EXPORTS[name]}")
    assert name in module.__all__
    assert getattr(sharedsched, name) is getattr(module, name)


def test_dir_lists_every_export():
    assert set(sharedsched.__all__) <= set(dir(sharedsched))


def test_removed_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as exc:
        sharedsched.improve_by_exchanges
    assert str(exc.value) == "module 'sharedsched' has no attribute 'improve_by_exchanges'"


def test_one_export_loads_only_its_module():
    script = (
        "import json, sys, sharedsched\n"
        "sharedsched.Dyadic\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sharedsched')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sharedsched.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["sharedsched", "sharedsched.dyadic"]

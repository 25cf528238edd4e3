import importlib
import pkgutil

import pytest

import cauchys3

MODULES = sorted(m.name for m in pkgutil.iter_modules(cauchys3.__path__))


def test_every_module_is_found():
    # an empty discovery would make the check below pass vacuously
    assert {"cauchy", "classify", "cylinder", "frame", "tensor"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted helper must not leave an `__all__` entry that points at nothing
    module = importlib.import_module(f"cauchys3.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

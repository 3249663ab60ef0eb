"""Every name a module of the package exports resolves in that module."""

import importlib
import pkgutil

import pytest

import embml

MODULES = sorted(m.name for m in pkgutil.iter_modules(embml.__path__,
                                                      "embml."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []

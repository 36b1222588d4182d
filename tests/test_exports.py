"""Every exported name resolves to an attribute of its module."""
import importlib
import pkgutil

import pytest

import anwsim

MODULES = ["anwsim"] + [m.name for m in pkgutil.iter_modules(anwsim.__path__, "anwsim.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """No stale names linger in __all__."""
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

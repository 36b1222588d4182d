"""Every exported name resolves to an attribute of its module, and the
package re-exports its modules' public lists, each name once."""
import importlib
import pkgutil

import pytest

import anwsim
from anwsim import config, entanglement, measurement, model, optimize, symplectic

MODULES = ["anwsim"] + [m.name for m in pkgutil.iter_modules(anwsim.__path__, "anwsim.")]
LAYERS = [symplectic, model, measurement, entanglement, optimize]
CONFIG_NAMES = ["ScenarioConfig", "load_config", "parse_config"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """No stale names linger in __all__."""
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_names_unique():
    """No name is exported twice."""
    assert len(anwsim.__all__) == len(set(anwsim.__all__))


def test_package_list_is_the_module_lists():
    """The package exports __version__, each layer's list in order, and
    the config trio, and nothing else."""
    layers = [name for module in LAYERS for name in module.__all__]
    assert anwsim.__all__ == ["__version__", *layers, *CONFIG_NAMES]


def test_package_binds_the_defining_objects():
    """Each package attribute is the very object its module defines."""
    homes = [(m, x) for m in LAYERS for x in m.__all__] + [(config, x) for x in CONFIG_NAMES]
    rebound = [x for m, x in homes if getattr(anwsim, x) is not getattr(m, x)]
    assert rebound == []

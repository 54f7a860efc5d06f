import importlib
import pkgutil

import pytest

import levyhull

MODULES = sorted(
    f"levyhull.{m.name}" for m in pkgutil.iter_modules(levyhull.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale ``__all__`` entry otherwise fails only on ``import *``
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_module_list_is_complete():
    assert {"levyhull.sbrep", "levyhull.experiments", "levyhull.limitlaws"} <= set(MODULES)

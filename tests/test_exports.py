"""Every name a module lists in ``__all__`` exists, so that
``from adasamp.<module> import *`` cannot break on a stale entry."""

import importlib
import pkgutil

import pytest

import adasamp

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(adasamp.__path__) if info.name != "__main__"
)


def test_modules_found():
    assert "geometry" in MODULES and "algorithms" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"adasamp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

"""Every exported name exists: a stale ``__all__`` entry raises nothing on
``import levylab``, only on ``from levylab.<module> import *``."""

import importlib
import pkgutil

import pytest

import levylab

MODULES = sorted(info.name for info in pkgutil.iter_modules(levylab.__path__))


def test_every_module_is_seen():
    assert {"cli", "entropy", "fokker_planck", "levy", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"levylab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

"""Every name a module lists in ``__all__`` must exist, so that a name
removed from the module cannot linger in its export list."""

import importlib
import pkgutil

import pytest

import posmine

MODULES = sorted(m.name for m in pkgutil.iter_modules(posmine.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"posmine.{name}")
    namespace: dict = {}
    exec(f"from posmine.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_the_modules_that_declare_all_are_checked():
    declared = {n for n in MODULES if hasattr(importlib.import_module(f"posmine.{n}"), "__all__")}
    assert declared == {"analysis", "reductions", "strategies", "structure"}

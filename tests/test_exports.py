"""The public names of the package and of each of its modules."""

import importlib
import pkgutil

import pytest

import pmq

DECLARING = ["pmq"] + [
    f"pmq.{info.name}" for info in sorted(pkgutil.iter_modules(pmq.__path__), key=lambda info: info.name)
    if hasattr(importlib.import_module(f"pmq.{info.name}"), "__all__")
]


def test_the_modules_declare_their_public_names():
    # every module lists its public names except pmq.errors, whose error
    # types the package itself exports
    assert len(DECLARING) == 14 and "pmq.errors" not in DECLARING


@pytest.mark.parametrize("name", DECLARING)
def test_every_exported_name_resolves_once(name):
    # a name removed from a module but left in its __all__ would break
    # ``from module import *``; one listed twice hides a stale entry
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert sorted(exported) == sorted(set(exported)), [x for x in exported if exported.count(x) > 1]
    assert [x for x in exported if not hasattr(module, x)] == []

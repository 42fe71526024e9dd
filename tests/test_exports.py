"""Every name a strato module exports in ``__all__`` resolves.

A stale entry breaks ``from strato.<module> import *``, and tools that
wrap the exported names one by one would skip it without a word.
"""

import importlib
import pkgutil

import pytest

import strato

MODULES = ["strato", *(f"strato.{m.name}" for m in pkgutil.iter_modules(strato.__path__))]


def test_every_module_is_listed():
    assert {"strato.conormal", "strato.grid", "strato.solver", "strato.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)

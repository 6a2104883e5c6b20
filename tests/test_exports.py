"""Every public name a ``repro`` module exports resolves.

Deleting a function without its ``__all__`` entry (or a package
re-export) leaves a stale name that only fails on ``import *``; this
walks every module so such leftovers fail here instead.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


MODULES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"

"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deleted class can leave its name behind in a package's ``__all__``:
``from repro.chaos import *`` then fails, while every explicit import of the
surviving names still works.  This walks every module under ``repro``
(skipping the ``__main__`` entry points, which run a CLI on import) and
resolves each exported name with ``getattr``.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def _modules_with_all():
    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, prefix="repro.")
                         if not info.name.endswith(".__main__")]
    for name in names:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            yield module


def test_every_exported_name_resolves():
    modules = list(_modules_with_all())
    assert len(modules) > 1
    dangling = [f"{module.__name__}.{name}"
                for module in modules
                for name in module.__all__
                if not hasattr(module, name)]
    assert dangling == []

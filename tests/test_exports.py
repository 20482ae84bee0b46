"""Every name a ``repro`` package exports in ``__all__`` resolves, once."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_once(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(names) == len(set(names))

"""The package exports each library module's ``__all__`` and nothing else."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import usable_info

# The command-line entry point is not part of the library API.
LIBRARY_MODULES = sorted(info.name for info in pkgutil.iter_modules(usable_info.__path__)
                         if info.name != "cli")


def test_public_names_are_the_library_modules_all():
    exported = [name for name in usable_info.__all__ if name != "__version__"]
    declared = [name for module in LIBRARY_MODULES
                for name in importlib.import_module(f"usable_info.{module}").__all__]
    assert len(exported) == len(set(exported)) == 50
    assert sorted(exported) == sorted(declared)
    assert isinstance(usable_info.__version__, str)


def test_each_public_name_is_the_object_of_its_defining_module():
    for name in usable_info.__all__:
        if name == "__version__":
            continue
        obj = getattr(usable_info, name)
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, name
        assert getattr(module, name) is obj, name


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert (pyproject["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "usable_info.__version__"})

"""The sub-package ``__init__``s re-export exactly what the examples and the CLI import.

Every other name has one import path, its defining module.  The surface is
read from the source with ``ast``: a name imported through a sub-package
(``from repro.core import MobilePubSub`` in an example, ``from .net import
X`` in ``cli.py``) must be listed in that package's ``__all__``, and a listed
name nobody imports that way must go.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(repro.__file__).resolve().parent
SUBPACKAGES = ("core", "net", "pubsub", "mobility", "obs")
SOURCES = sorted((ROOT / "examples").glob("*.py")) + [PACKAGE_DIR / "cli.py"]


def _is_submodule(package: str, name: str) -> bool:
    path = PACKAGE_DIR / package / name
    return path.with_suffix(".py").exists() or (path / "__init__.py").exists()


def imported_through(package: str) -> set:
    """Names the examples and ``cli.py`` import through ``repro.<package>``."""
    names = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            absolute = node.level == 0 and node.module == f"repro.{package}"
            relative = source.name == "cli.py" and node.level == 1 and node.module == package
            if absolute or relative:
                names.update(
                    alias.name for alias in node.names if not _is_submodule(package, alias.name)
                )
    return names


def test_the_sources_are_found():
    assert len(SOURCES) >= 5 and all(source.exists() for source in SOURCES)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_all_lists_exactly_what_is_imported_through_the_package(package):
    module = importlib.import_module(f"repro.{package}")
    assert len(module.__all__) == len(set(module.__all__)), module.__all__
    assert set(module.__all__) == imported_through(package)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_every_listed_name_resolves(package):
    module = importlib.import_module(f"repro.{package}")
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"repro.{package}.{name}"

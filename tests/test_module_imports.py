"""Every module under ``src/repro`` imports with no other ``repro`` module loaded first.

``import repro`` no longer loads the ``core``, ``net`` and ``pubsub`` layers,
so they are no longer imported ahead of the module a process starts from.  A module that only worked because
something else had been imported first would otherwise fail only where it
is the entry point, such as a cluster child
(``python -m repro.net.cluster_node``).  One subprocess walks the package
with ``pkgutil.walk_packages`` and imports each module from a ``sys.modules``
purged of ``repro``; each module is one case here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent

IMPORT_EACH = r"""
import importlib, json, pkgutil, sys, traceback
import repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
results = {}
for name in names:
    for loaded in [key for key in sys.modules if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        results[name] = traceback.format_exc()
    else:
        results[name] = None
print(json.dumps(results))
"""


def module_names():
    """Every module file under the package, as a dotted name."""
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


@pytest.fixture(scope="module")
def import_results():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [name for name in module_names() if name != "repro"])
def test_module_imports_on_its_own(import_results, name):
    assert name in import_results, f"{name} not found by pkgutil.walk_packages"
    assert import_results[name] is None, import_results[name]

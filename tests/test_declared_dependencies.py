"""The package runs on exactly the dependencies ``pyproject.toml`` declares.

A fresh interpreter installs a ``sys.meta_path`` finder that refuses
every top-level package outside the standard library, ``repro`` and
``[project] dependencies``, then imports every ``repro`` module and
runs ``simulate --periods 1``.  An import of an undeclared package
anywhere on those paths fails here, before it fails a clean install.
Optional packages (SciPy, behind the k >= 3 multi-split ablation) must
be imported lazily, where they are needed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(Path(repro.__file__).resolve().parents[1])

_GUARDED_RUN = """
import importlib
import importlib.abc
import pkgutil
import sys

ALLOWED = set(sys.argv[1:]) | {"repro"}


class RefuseUndeclared(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in ALLOWED or top in sys.stdlib_module_names:
            return None
        raise ModuleNotFoundError(f"undeclared package {top!r}", name=name)


sys.meta_path.insert(0, RefuseUndeclared())

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.cli import main

sys.exit(main(["simulate", "--periods", "1"]))
"""


def _declared_dependencies():
    """Import names of ``[project] dependencies``, read as text."""
    pyproject = (_REPO_ROOT / "pyproject.toml").read_text()
    block = re.search(
        r"^dependencies = \[(.*?)^\]", pyproject, flags=re.MULTILINE | re.DOTALL
    )
    assert block, "pyproject.toml declares no [project] dependencies"
    entries = re.sub(r"#.*", "", block.group(1))
    names = re.findall(r'"\s*([A-Za-z0-9_.-]+)', entries)
    return sorted(name.lower().replace("-", "_") for name in names)


@pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="sys.stdlib_module_names needs Python 3.10",
)
def test_every_module_and_simulate_run_on_declared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _GUARDED_RUN, *_declared_dependencies()],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert "query-plan cache" in completed.stdout

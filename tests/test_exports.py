"""Every name in a module's __all__ exists, the package imports cleanly, and
no module imports another module's private names."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import carnot_coupling

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(m.name for m in pkgutil.iter_modules(carnot_coupling.__path__)
                 if not m.name.startswith("_"))


def test_package_imports_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import carnot_coupling"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_name(name):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from carnot_coupling.{name} import *", {})


def test_no_module_imports_a_private_name_of_another():
    # a private name is a module's own business; a shared one belongs in __all__
    found = []
    for path in sorted((SRC / "carnot_coupling").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [a.name for a in node.names if a.name.startswith("_")]
                if private:
                    found.append(f"{path.stem} <- {node.module}.{', '.join(private)}")
    assert found == []

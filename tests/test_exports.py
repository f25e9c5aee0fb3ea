"""Every name in a module's __all__ exists, and the package imports cleanly."""

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

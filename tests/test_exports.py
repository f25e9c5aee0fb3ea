"""Every name in a module's __all__ exists, the package imports cleanly and
without scipy, only the calls that read scipy.special or scipy.stats load
them, no module imports another module's private names, and the README's
module table names only public calls."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import carnot_coupling

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(carnot_coupling.__path__)
                 if not m.name.startswith("_"))


def test_package_imports_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import carnot_coupling"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


_FOOTPRINT = """
import sys
import carnot_coupling, carnot_coupling.cli
from carnot_coupling.cli import main

def loaded(step, code):
    print(step, code, "scipy.special" in sys.modules, "scipy.stats" in sys.modules)

loaded("import", 0)
for argv in (["girsanov", "--g", "0,0,0", "--gt", "0,0,0.1", "--T", "4", "--N", "64"],
             ["bismut", "--g", "0,0,0", "--h", "1,0,0", "--N", "64"],
             ["inequalities", "--g", "0,0,0", "--gt", "0,0,0.1", "--h", "1,0,0", "--N", "64"],
             ["sylvester", "--N", "64"],
             ["couple", "--g", "0,0,0", "--gt", "0,0,1", "--N", "64"],
             ["marginals", "--g", "0,0,0", "--N", "200"]):
    loaded(argv[0], main(argv + ["--out", sys.argv[1]]))
"""


def test_scipy_loads_only_in_the_calls_that_read_it(tmp_path):
    # importing scipy.special nearly doubles the time and memory of a run's start,
    # and scipy.stats adds several times that
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(tmp_path / "res.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    steps = {step: (code, special, stats)
             for step, code, special, stats in map(str.split, proc.stdout.splitlines())}
    unloaded = ("import", "girsanov", "bismut", "inequalities", "sylvester")
    assert {steps[step][1:] for step in unloaded} == {("False", "False")}
    assert steps["couple"][1:] == ("True", "False")
    assert steps["marginals"] == ("0", "True", "True")
    assert {code for code, _, _ in steps.values()} <= {"0", "1"}


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


def test_readme_module_table_names_only_exported_calls():
    # a backticked call `name(` in a module's row must be in that module's __all__
    rows = re.findall(r"^\| `carnot_coupling\.(\w+)` \|(.*)\|$",
                      README.read_text(encoding="utf-8"), re.M)
    assert sorted(name for name, _ in rows) == MODULES
    found = []
    for name, contents in rows:
        public = getattr(importlib.import_module(f"carnot_coupling.{name}"), "__all__", ())
        found += [f"{name}.{call}" for call in re.findall(r"`([A-Za-z_]\w{2,})\(", contents)
                  if call not in public]
    assert found == []

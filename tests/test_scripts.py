"""Smoke runs of the experiment scripts in subprocesses on the source tree."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from carnot_coupling.coupling import failure_probability
from carnot_coupling.groups import CarnotElement, SkewMatrix

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def test_shift_entropy_profile_prints_every_row(tmp_path):
    proc = run_script("shift_entropy_profile.py", "--N", "2000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-3:] == ["E[R]", "ent.gap", "z"]
    # 3 Heisenberg pairs x 4 horizons x 3 support counts, then 2 x 2 on carnot-3
    assert len(rows) == 40


def test_tv_decay_grid_writes_every_row(tmp_path):
    out = tmp_path / "grid.csv"
    proc = run_script("tv_decay_grid.py", "--N", "2000", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 3 Heisenberg and 2 carnot-3 displacements x 8 horizons
    assert len(rows) == 40
    assert {r["group"] for r in rows} == {"heisenberg", "carnot-3"}
    # the Heisenberg rows sample the two-index coupling, at the script's default seed
    origin = CarnotElement.identity(2)
    targets = {"horizontal": (1.0, 0.0, 0.0), "vertical": (0.0, 0.0, 1.0),
               "mixed": (1.0, 0.0, 1.0)}
    for name, (x1, x2, z) in targets.items():
        got = [r for r in rows if r["group"] == "heisenberg" and r["displacement"] == name]
        gt = CarnotElement(np.array([x1, x2]), SkewMatrix(2, np.array([z])))
        ests = failure_probability(origin, gt, [float(r["T"]) for r in got], 2000, 20240901,
                                   two_index=True)
        assert [(float(r["failure"]), float(r["stderr"])) for r in got] == [
            (e.mean, e.stderr) for e in ests]

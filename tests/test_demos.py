"""Each script in ``demos/`` runs to completion, quietly, against this checkout,
and prints what ``tests/golden/demos/<script stem>.txt`` holds.

The demos are deterministic: demo 03 prints the calibrated bids, so its file
pins the Monte Carlo calibrator end to end.  After a change that alters a
demo's output on purpose, rewrite the files with
``PYTHONPATH=src python tests/test_demos.py`` and review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=60, check=False)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{script.stem}.txt").read_text()


if __name__ == "__main__":
    for script in DEMOS:
        proc = run_demo(script)
        if proc.returncode != 0:
            raise SystemExit(f"{script.name} failed:\n{proc.stderr}")
        (GOLDEN / f"{script.stem}.txt").write_text(proc.stdout)

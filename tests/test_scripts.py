"""The scripts under scripts/ run to completion and report the known figures."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("order, figures", [
    (3, "10 classes, 18 transversals"),
    (4, "46 classes, 89 transversals"),
])
def test_sweep_bands(order, figures):
    done = run_script("scripts/sweep_bands.py", str(order))
    assert done.returncode == 0, done.stderr
    assert f"bands of order {order}: {figures}," in done.stdout


def test_audit_catalog():
    done = run_script("scripts/audit_catalog.py")
    assert done.returncode == 0, done.stdout + done.stderr

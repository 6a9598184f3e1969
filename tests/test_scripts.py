"""The scripts under scripts/ run to completion and report the known figures."""

import re
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


def test_unreached_raises():
    done = run_script("scripts/unreached_raises.py", "-q", "-p", "no:cacheprovider",
                      "tests/test_fileio.py")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    unexecuted, total = map(int, re.fullmatch(
        r"(\d+) of (\d+) raise sites unexecuted", lines[-1]).groups())
    # the file tests reach some raise sites, and every unexecuted one is listed
    assert 0 < unexecuted < total
    listed = [line for line in lines if re.fullmatch(r"src/adequate/\w+\.py:\d+", line)]
    assert len(listed) == unexecuted

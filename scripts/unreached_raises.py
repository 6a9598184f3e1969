#!/usr/bin/env python3
"""List the `raise` statements of src/adequate that a pytest run never executes.

    python3 scripts/unreached_raises.py [pytest arguments ...]

The raise sites are read off the package's syntax trees. pytest then runs in
this process under sys.settrace, with line events taken only in the package's
files, and a raise counts as executed when any line of it ran. Each
unexecuted site is printed as path:line, then a last line
`N of M raise sites unexecuted`. With no arguments the whole suite runs. The
exit code is pytest's. Code run in subprocesses or other threads is not seen.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adequate"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402


def raise_sites():
    """(path, first line, last line) of every raise statement in the package."""
    sites = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [(str(path), node.lineno, node.end_lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    return sorted(sites)


def run_traced(pytest_args):
    """pytest's exit code and the set of (path, line) run in the package."""
    package = str(PACKAGE)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return code, ran


def main(argv):
    code, ran = run_traced(argv)
    sites = raise_sites()
    unexecuted = [(path, first) for path, first, last in sites
                  if not any((path, line) in ran for line in range(first, last + 1))]
    for path, line in unexecuted:
        print(f"{Path(path).relative_to(ROOT)}:{line}")
    print(f"{len(unexecuted)} of {len(sites)} raise sites unexecuted")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Deep verification sweep over all bands of a given order.

Bands are enumerated directly (the census DFS with the diagonal forced),
reduced to isomorphism classes, and every subsemigroup is pushed through both
the library verifier and the quantifier-literal oracle from the test suite.
Every verified transversal is audited, and every admissible one is rebuilt
and certified. Prints a summary plus any disagreement it finds.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

import oracles
from adequate.census import _iso_classes, band_tables
from adequate.core import FiniteSemigroup, enumerate_subsemigroups
from adequate.errors import SemigroupError
from adequate.decompose import roundtrip
from adequate.transversal import (
    audit_identities,
    transversal_profile,
    verify_adequate_transversal,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("order", type=int, nargs="?", default=5)
    args = ap.parse_args()
    started = time.time()
    classes = transversals = rebuilds = mismatches = audit_failures = 0
    for canon in _iso_classes(band_tables(args.order), args.order):
        classes += 1
        S = FiniteSemigroup(order=args.order, table=canon)
        for sub in enumerate_subsemigroups(S):
            status, maps = oracles.transversal_check(S.table, sub)
            try:
                D = verify_adequate_transversal(S, sub)
            except SemigroupError:
                D = None
            if (status == "ok") != (D is not None):
                mismatches += 1
                print(f"ORACLE MISMATCH table={canon} subset={sub} oracle={status}")
                continue
            if D is None:
                continue
            if (D.e_of, D.bar_of, D.f_of) != maps:
                mismatches += 1
                print(f"MAP MISMATCH table={canon} subset={sub}")
                continue
            transversals += 1
            report = audit_identities(S, D)
            if not report.all_passed():
                audit_failures += 1
                print(f"AUDIT FAIL table={canon} subset={sub} "
                      f"{[e.name for e in report.failures()]}")
            if transversal_profile(S, D).is_admissible:
                rt = roundtrip(S, D)
                assert rt.checks.entry("w_isomorphism").passed
                rebuilds += 1
    print(f"bands of order {args.order}: {classes} classes, "
          f"{transversals} transversals, {rebuilds} certified rebuilds, "
          f"{audit_failures} audit failures, {mismatches} oracle mismatches "
          f"({time.time() - started:.1f}s)")
    return 1 if (mismatches or audit_failures) else 0


if __name__ == "__main__":
    sys.exit(main())

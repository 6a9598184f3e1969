"""Write expected.json: the outputs every later run is checked against.

    python3 perfbench/pin.py

Run from the root of a checkout whose results are known to be right. It runs
one untraced pass of each workload and one traced `census` pass, and refuses
to pin unless the census class counts are OEIS A027851 (1, 5, 24, 188).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl

TRACED_CHECKS = ("transversal.candidates_tried", "transversal.candidates_rejected")


def main() -> int:
    root = os.getcwd()
    out = {}
    for workload in ("census", "ladder", "cli"):
        r = run.Runner(root, workload, seed=0)
        try:
            r.warm_up()
            _, res, _ = r.one_pass(0)
            entry = {"items": {i[0]: i[3] for i in res["items"]}, "checks": res["checks"]}
            if workload == "census":
                want = [wl.CENSUS_CLASS_COUNTS[n] for n in wl.CENSUS_ORDERS]
                if res["checks"]["class_counts"] != want:
                    raise SystemExit(f"class counts {res['checks']['class_counts']} != {want}")
                _, traced, _ = r.one_pass(1, traced=True)
                entry["traced_checks"] = {k: traced["layers"][k] for k in TRACED_CHECKS}
        finally:
            shutil.rmtree(r.work_dir, ignore_errors=True)
        out[workload] = entry
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

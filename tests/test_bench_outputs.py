"""Output guard: the benchmark's pinned digests, recomputed in the test suite.

`perfbench/expected.json` pins a digest of every census item and ladder rung
the benchmark runs. Recomputing the census items and all four rungs through
`perfbench/workloads.py` catches a change in any analysed output before a
benchmark run does; rung136 and rung238 run `quotient` and `direct_product`
at full size. The file is only read.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GUARDED_RUNGS = ("rung34", "rung68", "rung136", "rung238")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads as wl
    finally:
        sys.path.remove(str(PERFBENCH))
    return wl


@pytest.fixture(scope="module")
def expected():
    return json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def test_census_items_match_pinned_digests(workloads, expected):
    items, counts = workloads.census_items(workloads.census_setup())
    want = expected["census"]
    assert sorted(item_id for item_id, _ in items) == sorted(want["items"])
    accepted = 0
    roundtrips_ok = True
    for item_id, S in items:
        digest, found, rt_ok = workloads.census_item(S)
        assert digest == want["items"][item_id], item_id
        accepted += found
        roundtrips_ok = roundtrips_ok and rt_ok
    assert [counts[n] for n in workloads.CENSUS_ORDERS] == want["checks"]["class_counts"]
    assert accepted == want["checks"]["transversals_accepted"]
    assert roundtrips_ok == want["checks"]["roundtrips_ok"]


def test_ladder_rungs_match_pinned_digests(workloads, expected):
    state = workloads.ladder_setup()
    base = state["base"]
    done = []
    for _, T, s0 in state["rungs"]:
        rung = f"rung{base.order * T.order}"
        if rung in GUARDED_RUNGS:
            assert workloads.ladder_rung(base, T, s0) == expected["ladder"]["items"][rung], rung
            done.append(rung)
    assert tuple(done) == GUARDED_RUNGS

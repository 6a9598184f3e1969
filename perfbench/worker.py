"""One fresh interpreter: set a workload up, optionally run one pass.

    python3 perfbench/worker.py WORKLOAD --seed N --round R --mode setup|pass|traced

Prints `ready` once set-up is done, so the parent can time set-up from
process start. In `pass` and `traced` mode it then runs one pass with cold
library caches, with the machine's speed sampled throughout it
(`workloads.SpeedSampler`), and prints the pass result as one JSON line: each
item as [id, size quartile, scaled seconds, digest, measured seconds]. In
`setup` mode it times the reference work once and prints that. `traced`
installs the span tracer before set-up and adds per-layer totals to the
result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import tracer as tr
import workloads as wl


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(wl.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = ap.parse_args()

    tracer = None
    if args.mode == "traced":
        tracer = tr.Tracer()
        tracer.install()
    state = wl.SETUPS[args.workload]()
    # set-up may fill caches (the catalog checks its own entries); a pass starts cold
    tr.clear_caches()
    print("ready", flush=True)
    if args.mode == "setup":
        # the machine's speed just after set-up, for the parent to scale it by
        print(json.dumps({"probes": [wl.probe()]}), flush=True)
        return 0

    # the guard finds caches by a wider search than clear_caches, so a cache that
    # clearing missed turns the pass into failed operations
    warm = tr.warm_caches()
    with wl.SpeedSampler() as sampler:
        result = wl.PASSES[args.workload](state, args.seed, args.round, tracer)
    items = []
    for item_id, quartile, start, end, dig in result["items"]:
        measured, scaled = sampler.scale(start, end)
        items.append([item_id, quartile, scaled, dig, measured])
    result["items"] = items
    result["other"] = [sampler.scale(*piece)[::-1] for piece in result["other"]]  # [scaled, measured]
    result["probes"] = [ref for _, _, ref in sampler.probes]
    result["warm"] = warm + result.get("warm", [])
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tr.layer_totals(tracer.spans, tr.cache_stats())
        result["layers"]["errors.exit2"] = result.pop("exit2", 0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

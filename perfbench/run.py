"""Benchmark for the `adequate` library and command line.

    python3 perfbench/run.py --workload census|ladder|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`. Every timed pass runs in a fresh interpreter with empty library
caches; a `cli` pass empties them before each command. Each pass also times
a fixed reference work as it goes, and its times are scaled by how fast that
ran (see workloads.SpeedSampler), so that a machine that slows down for a
while does not move the figures. With `--trace 0` the run prints the
end-to-end metrics named in BENCHMARK.json; with `--trace 1` it alternates untraced and traced
passes and prints the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object; the lines before it name each
metric with its unit and sample count, and give the unscaled figures. Every
pass's outputs are checked against `expected.json`; a mismatch counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

MIN_PASSES = {"census": 3, "ladder": 2, "cli": 6}  # cli: 6 rounds x 17 >= 100 commands
SETUP_SAMPLES = 11
PROBE_SAMPLES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    pass


def child_env(root: str, pycache: str) -> dict:
    """Environment of every child: the checkout's `src` first on the path, and
    bytecode read from and written to `pycache` only.

    A run starts with `pycache` empty and fills it while warming up, so every
    timed import loads bytecode compiled in this run from this checkout; any
    `__pycache__` left in the checkout by other tools is never read.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = pycache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# -- statistics --------------------------------------------------------------


def tail(samples, q: int = TAIL_PERCENTILE):
    """Nearest-rank percentile q, or None with fewer than ten samples beyond it."""
    xs = sorted(samples)
    k = math.ceil(q / 100 * len(xs)) - 1
    if k < 0 or len(xs) - (k + 1) < TAIL_MIN_BEYOND:
        return None
    return xs[k]


def pass_times(p: dict, scale: bool = True) -> dict:
    """A pass result with its item times and `wall_s`, the sum of its pieces,
    either scaled by the machine's speed or as measured. Layer times (keys
    ending in `_s`) are scaled by the pass's overall factor."""
    j = 2 if scale else 4
    items = [[i[0], i[1], i[j], i[3]] for i in p["items"]]
    wall = sum(o[0 if scale else 1] for o in p["other"]) + sum(i[2] for i in items)
    out = dict(p, items=items, wall_s=wall)
    if scale and "layers" in p:
        k = wall / pass_times(p, scale=False)["wall_s"]
        out["layers"] = {name: v * k if name.endswith("_s") else v
                         for name, v in p["layers"].items()}
    return out


def end_to_end(passes, setups, rss_mb) -> dict:
    """End-to-end metrics from a run's passes (a `cli` pass is one round of commands)."""
    quartiles = [statistics.median(sum(i[2] for i in p["items"] if i[1] == q) for p in passes)
                 for q in range(4)]
    m = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": rss_mb,
    }
    for q, v in enumerate(quartiles):
        m[f"size_q{q + 1}_s"] = v
    return m


def check_passes(passes, expected: dict, traced: bool = False) -> tuple[int, int, list]:
    """(attempted, failed, problems): one operation per item plus one per pass."""
    attempted = failed = 0
    problems = []
    for p in passes:
        ops = len(p["items"]) + 1
        attempted += ops
        if p.get("warm"):
            failed += ops
            problems.append(f"pass started with warm caches: {p['warm']}")
            continue
        for item_id, _, _, dig, *_ in p["items"]:
            if expected["items"].get(item_id) != dig:
                failed += 1
                problems.append(f"{item_id}: got {dig}, expected {expected['items'].get(item_id)}")
        got = dict(p["checks"])
        want = dict(expected["checks"])
        if traced:
            got.update({k: p["layers"].get(k, 0) for k in expected.get("traced_checks", {})})
            want.update(expected.get("traced_checks", {}))
        if got != want:
            failed += 1
            problems.append(f"pass checks: got {got}, expected {want}")
    return attempted, failed, problems


# -- children ----------------------------------------------------------------


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work_dir = os.path.join(root, wl.WORK_DIR)
        self.env = child_env(root, os.path.join(self.work_dir, "pycache"))

    def worker(self, mode: str, round_no: int = 0):
        """Run worker.py; returns (seconds until set-up was done, its result, seconds).

        The result holds the worker's timings of the reference work under
        `probes`, the first one taken just after set-up, and in `pass` and
        `traced` mode the rest of the pass result as well."""
        cmd = [sys.executable, WORKER, self.workload, "--seed", str(self.seed),
               "--round", str(round_no), "--mode", mode]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker timed out") from None
        total = time.perf_counter() - t0
        if proc.returncode != 0 or first.strip() != "ready":
            raise BenchError(f"{mode} worker failed (exit {proc.returncode}): {err[-2000:]}")
        return setup_s, json.loads(out.strip().splitlines()[-1]), total

    def timed(self, cmd: list[str]) -> float:
        t0 = time.perf_counter()
        try:
            subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                           timeout=PROBE_TIMEOUT_S, check=True)
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
            raise BenchError(f"probe failed: {exc}") from None
        return time.perf_counter() - t0

    def one_pass(self, n: int, traced: bool = False):
        """(set-up seconds, pass result, wall-clock seconds of the worker)."""
        return self.worker("traced" if traced else "pass", n)

    def warm_up(self) -> None:
        """Unmeasured: start from an empty work directory, write the cli inputs,
        and compile every module the children import into the run's bytecode cache."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.worker("setup")
        self.timed([sys.executable, "-c", "import adequate.cli"])

    def setup_samples(self, setups: list, up_to: int) -> None:
        """Add (set-up seconds, reference seconds just after) samples until there are `up_to`."""
        while len(setups) < up_to:
            setup_s, res, _ = self.worker("setup")
            setups.append((setup_s, res["probes"][0]))

    def probe_ms(self, code: str) -> float:
        return statistics.median(
            self.timed([sys.executable, "-c", code]) for _ in range(PROBE_SAMPLES)) * 1e3


def run_untraced(r: Runner, seconds: float):
    deadline = time.perf_counter() + seconds
    passes, setups, costs = [], [], []
    # set-up samples are spread over the run, so one slow moment cannot set their median
    per_pass = math.ceil(SETUP_SAMPLES / (MIN_PASSES[r.workload] + 1))
    while len(passes) < MIN_PASSES[r.workload] or (
            time.perf_counter() + statistics.median(costs) <= deadline):
        r.setup_samples(setups, min(SETUP_SAMPLES, len(setups) + per_pass))
        setup_s, res, cost = r.one_pass(len(passes))
        passes.append(res)
        costs.append(cost)
        setups.append((setup_s, res["probes"][0]))
    r.setup_samples(setups, SETUP_SAMPLES)
    rss_mb = max(p["rss_kb"] for p in passes) / 1024
    metrics = end_to_end([pass_times(p) for p in passes],
                         [s * wl.REFERENCE_S / ref for s, ref in setups], rss_mb)
    measured = end_to_end([pass_times(p, False) for p in passes], [s for s, _ in setups], rss_mb)
    notes = untraced_notes(r.workload, r.seed, [pass_times(p) for p in passes], len(setups))
    ref_ms = statistics.median(t for p in passes for t in p["probes"]) * 1e3
    notes.append(f"{r.workload}: reference work {ref_ms:.4f} ms against "
                 f"{wl.REFERENCE_S * 1e3:g} ms; "
                 "unscaled " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    return metrics, passes, notes


def untraced_notes(workload: str, seed: int, passes, n_setups: int) -> list[str]:
    """Sample counts and the item latencies, pooled over the run; the p90 is
    shown only when it has ten samples beyond it."""
    times = [i[2] for p in passes for i in p["items"]]
    p90 = tail(times)
    notes = [
        f"{workload}: {len(passes)} passes, {len(times)} item samples, {n_setups} set-up samples",
        f"{workload} item_p50_ms {statistics.median(times) * 1e3:.3f} ms of {len(times)} samples",
        f"{workload} item_p90_ms " + (
            f"{p90 * 1e3:.3f} ms of {len(times)} samples" if p90 is not None else
            f"not reported: p90 of {len(times)} samples has fewer than "
            f"{TAIL_MIN_BEYOND} beyond it"),
    ]
    if workload == "ladder":
        notes.append(f"ladder: seed {seed} ignored; size_q1..q4_s are rung34, rung68, "
                     "rung136 and rung238")
    return notes


def run_traced(r: Runner, seconds: float):
    deadline = time.perf_counter() + seconds
    plain, traced, costs = [], [], []
    while not traced or time.perf_counter() + statistics.median(costs) <= deadline:
        for is_traced, into in ((False, plain), (True, traced)):
            _, res, cost = r.one_pass(len(plain) + len(traced), is_traced)
            into.append(res)
            costs.append(cost)
    factors = [pass_times(p)["wall_s"] / pass_times(p, False)["wall_s"] for p in plain + traced]
    plain = [pass_times(p) for p in plain]
    traced = [pass_times(p) for p in traced]
    per_pass = [tr.finish_layers(p["layers"]) for p in traced]
    keys = sorted({k for m in per_pass for k in m})
    metrics = {k: statistics.median_low(m.get(k, 0) for m in per_pass) for k in keys}
    k = statistics.median(factors)
    interp = r.probe_ms("pass") * k
    metrics["cli.interpreter_ms"] = interp
    metrics["cli.import_ms"] = r.probe_ms("import adequate.cli") * k - interp
    fail_fast = [i[2] for p in plain for i in p["items"] if i[3].startswith("exit2:")]
    metrics["cli.exit2_ms"] = statistics.median(fail_fast) * 1e3 if fail_fast else 0.0
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    return metrics, plain, traced


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, metrics, declared, attempted, failed, problems, notes) -> dict:
    """Print every declared metric with its unit; return the result object."""
    for line in notes:
        print(line)
    out = {}
    for spec in declared:
        name = spec["name"]
        value = metrics.get(name, 0)
        out[name] = {"value": value, "unit": spec["unit"]}
        print(f"{workload:7s} {name:40s} {value:16.6f} {spec['unit']}")
    print(f"{workload:7s} {'failed_share':40s} {failed / attempted:16.6f} ratio "
          f"({failed} of {attempted} operations)")
    for p in problems[:20]:
        print(f"mismatch: {p}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adequate", "__init__.py")):
        print("error: run from the root of an adequate checkout (src/adequate is missing)",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec(root)
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2

    r = Runner(root, args.workload, args.seed)
    try:
        r.warm_up()
        if args.trace:
            metrics, plain, traced = run_traced(r, args.seconds)
            a1, f1, p1 = check_passes(plain, expected)
            a2, f2, p2 = check_passes(traced, expected, traced=True)
            attempted, failed, problems = a1 + a2, f1 + f2, p1 + p2
            declared = spec["per_layer"]
            notes = [f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes"]
        else:
            metrics, passes, notes = run_untraced(r, args.seconds)
            attempted, failed, problems = check_passes(passes, expected)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(r.work_dir, ignore_errors=True)

    result = report(args.workload, metrics, declared, attempted, failed, problems, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: what one pass runs and the digest of what it returns.

Library functions are looked up on the `adequate` package at call time, so
a pass runs through the tracer's wrappers when one is installed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import signal
import statistics
import time
import traceback

import tracer as tr

CENSUS_ORDERS = (1, 2, 3, 4)
CENSUS_CLASS_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}  # OEIS A027851
MAX_TRANSVERSAL_ORDER = 8
MAX_CONGRUENCE_ORDER = 7

LADDER_BASE = "sym_inv(3)"
LADDER_FACTORS = ("chain(1)", "left_zero(2)", "rect_band(2,2)", "sym_inv(2)")
MAX_ROUNDTRIP_ORDER = 136

REFERENCE_ORDER = 24  # the reference work takes about 1.2 ms
# Median seconds of the reference work on the machine the bounds were set on,
# when it ran at its faster speed. Times are scaled to read as on that machine.
REFERENCE_S = 1.2e-3
PROBE_REPS = 3
SAMPLE_EVERY_S = 0.1

WORK_DIR = ".perfbench_work"
CLI_DIR = os.path.join(WORK_DIR, "cli")


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def seeded_order(n: int, seed: int, round_no: int = 0) -> list[int]:
    """A permutation of range(n) that depends only on the seed and round."""
    order = list(range(n))
    random.Random(f"{seed}:{round_no}").shuffle(order)
    return order


def size_quartiles(sizes_and_ids) -> dict:
    """Map item id -> quartile 0..3 by input size, ties broken by id."""
    ranked = sorted(sizes_and_ids)
    n = len(ranked)
    return {item: i * 4 // n for i, (_, item) in enumerate(ranked)}


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f) for f in obj.__dataclass_fields__)


def _entries(report) -> tuple:
    return tuple((e.name, e.applicable, e.passed) for e in report.entries)


def reference_work() -> int:
    """A fixed piece of pure-Python work that uses nothing of the library:
    table lookups in a triple loop, then a dict of frozensets, as the library does."""
    rng = random.Random(7)
    n = REFERENCE_ORDER
    t = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    hits = 0
    for a in range(n):
        ta = t[a]
        for b in range(n):
            tab = t[ta[b]]
            tb = t[b]
            for c in range(n):
                hits += tab[c] == ta[tb[c]]
    classes = {}
    for a in range(n):
        for b in range(n):
            classes.setdefault(frozenset((t[a][b], t[b][a])), []).append((a, b))
    return hits + len(classes)


def reference_times(reps: int = PROBE_REPS) -> list[float]:
    """Seconds taken by each of `reps` runs of the reference work, with the
    cyclic garbage collector paused so that the program's heap stays out of them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t)
    finally:
        if was_enabled:
            gc.enable()
    return times


def probe() -> float:
    """The machine's speed just now: median seconds of the reference work."""
    return statistics.median(reference_times())


class SpeedSampler:
    """Probes the machine's speed at the start of a pass, every
    `SAMPLE_EVERY_S` seconds from a timer signal, and at its end, so that the
    speed is known throughout the pass, inside long library calls too.

    Use as a context manager around the pass; `scale` then turns the start
    and end of a piece of the pass into its measured and scaled seconds.
    """

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []  # (start, end, reference s)

    def _probe(self, *_):
        t = time.perf_counter()
        ref = probe()
        self.probes.append((t, time.perf_counter(), ref))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self.probes.sort()  # a probe that the next alarm interrupts is recorded after it
        return False

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(measured, scaled) seconds of a piece that ran from `start` to `end`.

        The probes that interrupted the piece are left out of both. Between
        two probes the machine is taken to run at the mean of their speeds,
        and the scaled time is the time the piece would have taken at the
        speed at which the reference work takes `REFERENCE_S`.
        """
        measured = scaled = 0.0
        for (_, a, ref_a), (b, _, ref_b) in zip(self.probes, self.probes[1:]):
            overlap = min(end, b) - max(start, a)
            if overlap > 0:
                measured += overlap
                scaled += overlap * REFERENCE_S * (1 / ref_a + 1 / ref_b) / 2
        return measured, scaled


# -- census ------------------------------------------------------------------


def census_setup():
    import adequate as A
    return {"catalog": A.standard_catalog()}


def census_items(state) -> tuple[list, dict]:
    """The pass's items: every class at orders 1-4, then the standard catalog."""
    import adequate as A
    items = []
    counts = {}
    for n in CENSUS_ORDERS:
        found = list(A.enumerate_semigroups(n))
        counts[n] = len(found)
        items += [(f"o{n}-{i:03d}", S) for i, S in enumerate(found)]
    items += [(f"cat-{key}", S) for key, S in state["catalog"]]
    return items, counts


def census_item(S) -> tuple[str, int, bool]:
    """Analyse one table; returns (result digest, transversals found, roundtrips ok)."""
    import adequate as A
    stars = A.star_relations(S)
    green = A.green_relations(S)
    prof = A.abundance_profile(S)
    out = [
        [p.class_of for p in (stars.rstar, stars.lstar, stars.hstar)],
        [p.class_of for p in (green.r, green.l, green.h, green.d, green.j)],
        _fields(prof),
    ]
    if prof.is_quasi_adequate:
        d = A.delta(S)
        out.append((d.partition.class_of, d.is_congruence))
        if S.order <= MAX_CONGRUENCE_ORDER:
            out.append(A.min_adequate_admissible_congruence(S).class_of)
    found = []
    roundtrips_ok = True
    if S.order <= MAX_TRANSVERSAL_ORDER:
        found = A.find_adequate_transversals(S)
        for D in found:
            tp = A.transversal_profile(S, D)
            audit = A.audit_identities(S, D)
            rec = [D.s0, D.e_of, D.bar_of, D.f_of,
                   (tp.is_quasi_ideal, tp.is_multiplicative, tp.is_admissible),
                   _entries(audit)]
            if tp.is_admissible:
                rt = A.roundtrip(S, D)
                roundtrips_ok = roundtrips_ok and rt.checks.all_passed()
                rec.append(_entries(rt.checks))
            out.append(rec)
    return digest(out), len(found), roundtrips_ok


def census_pass(state, seed: int, round_no: int, tracer=None) -> dict:
    t = time.perf_counter()
    items, counts = census_items(state)
    enumerated = [t, time.perf_counter()]
    quartile = size_quartiles((S.order, item_id) for item_id, S in items)
    results = []
    accepted = 0
    roundtrips_ok = True
    for idx in seeded_order(len(items), seed, round_no):
        item_id, S = items[idx]
        if tracer is not None:
            tracer.item = item_id
        t = time.perf_counter()
        try:
            dig, n_found, rt_ok = census_item(S)
        except Exception as exc:  # a failing item is counted, not fatal
            dig, n_found, rt_ok = f"error:{type(exc).__name__}", 0, False
        results.append([item_id, quartile[item_id], t, time.perf_counter(), dig])
        accepted += n_found
        roundtrips_ok = roundtrips_ok and rt_ok
    return {
        "other": [enumerated],
        "items": results,
        "checks": {
            "class_counts": [counts.get(n) for n in CENSUS_ORDERS],
            "transversals_accepted": accepted,
            "roundtrips_ok": roundtrips_ok,
        },
    }


# -- ladder ------------------------------------------------------------------


def ladder_setup():
    import adequate as A
    base = A.catalog(LADDER_BASE)
    rungs = []
    for key in LADDER_FACTORS:
        T = A.catalog(key)
        s0 = A.find_adequate_transversals(T)[0].s0
        rungs.append((key, T, s0))
    return {"base": base, "rungs": rungs}


def ladder_rung(base, T, s0_factor) -> str:
    import adequate as A
    S = A.direct_product(base, T)
    s0 = [a * T.order + b for a in range(base.order) for b in s0_factor]
    stars = A.star_relations(S)
    green = A.green_relations(S)
    prof = A.abundance_profile(S)
    d = A.delta(S)
    D = A.verify_adequate_transversal(S, s0)
    tp = A.transversal_profile(S, D)
    audit = A.audit_identities(S, D)
    out = [
        S.order,
        [len(p.classes) for p in (stars.rstar, stars.lstar, stars.hstar, green.d)],
        tuple(v for v in _fields(prof) if isinstance(v, bool)),
        (len(d.partition.classes), d.is_congruence),
        digest((D.e_of, D.bar_of, D.f_of)),
        (tp.is_quasi_ideal, tp.is_multiplicative, tp.is_admissible),
        _entries(audit),
    ]
    if S.order <= MAX_ROUNDTRIP_ORDER:
        out.append(tuple((e.name, e.applicable) for e in A.roundtrip(S, D).checks.entries))
    return digest(out)


def ladder_pass(state, seed: int, round_no: int, tracer=None) -> dict:
    results = []
    for q, (key, T, s0) in enumerate(state["rungs"]):
        item_id = f"rung{state['base'].order * T.order}"
        if tracer is not None:
            tracer.item = item_id
        t = time.perf_counter()
        try:
            dig = ladder_rung(state["base"], T, s0)
        except Exception as exc:  # a failing rung is counted, not fatal
            dig = f"error:{type(exc).__name__}"
        results.append([item_id, q, t, time.perf_counter(), dig])
    return {"other": [], "items": results, "checks": {}}


# -- cli ---------------------------------------------------------------------

_RECT22 = {"labels": ["(1,1)", "(1,2)", "(2,1)", "(2,2)"], "name": "rect22", "order": 4,
           "subsets": {"t0": [0], "t1": [1], "t2": [2], "t3": [3]},
           "table": [[0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 2, 3], [2, 3, 2, 3]]}
_BRANDT2 = {"labels": ["0", "a", "a'", "aa'", "a'a"], "name": "brandt2", "order": 5,
            "subsets": {"whole": [0, 1, 2, 3, 4]},
            "table": [[0, 0, 0, 0, 0], [0, 0, 3, 0, 1], [0, 4, 0, 2, 0],
                      [0, 1, 0, 3, 0], [0, 0, 2, 0, 4]]}
_NULL2 = {"labels": ["0", "n1"], "name": "null2", "order": 2, "table": [[0, 0], [0, 0]]}
_LZ2_STRUCTURE = {
    "s0": {"order": 1, "table": [[0]]},
    "i_band": {"order": 2, "table": [[0, 0], [1, 1]], "labels": ["a", "b"]},
    "lambda_band": {"order": 1, "table": [[0]]},
    "e0_in_i": {"0": 0},
    "e0_in_lambda": {"0": 0},
    "alpha": {"0,0": {"0,0": 0, "0,1": 0}},
    "beta": {"0,0": {"0,0": 0, "0,1": 0}},
}
_LZ2_ACTION = {
    "s0": {"order": 1, "table": [[0]]},
    "i_band": {"order": 2, "table": [[0, 0], [1, 1]], "labels": ["a", "b"]},
    "e0_in_i": {"0": 0},
    "action": {"0,0": 0, "0,1": 0},
}
_SPINED_RB22 = {
    "left": {"order": 2, "table": [[0, 0], [1, 1]], "labels": ["a", "b"]},
    "left_transversal": [0],
    "right": {"order": 2, "table": [[0, 1], [0, 1]], "labels": ["a'", "b'"]},
    "right_transversal": [0],
    "identify": {"0": 0},
}

CLI_FILES = {
    "rect22.json": json.dumps(_RECT22),
    "brandt2.json": json.dumps(_BRANDT2),
    "null2.json": json.dumps(_NULL2),
    "lz2_structure.json": json.dumps(_LZ2_STRUCTURE),
    "lz2_action.json": json.dumps(_LZ2_ACTION),
    "spined_rb22.json": json.dumps(_SPINED_RB22),
    "ragged.json": json.dumps({"name": "ragged", "order": 2, "table": [[0, 0], [0]]}),
    "nonassoc.json": json.dumps({"name": "nonassoc", "order": 2, "table": [[1, 0], [0, 0]]}),
    "truncated.json": json.dumps(_RECT22)[:40],
}

# (id, argv after `--json`, expected to fail fast with exit code 2)
CLI_MIX = (
    ("analyze-rect22", ["analyze", "rect22.json"], False),
    ("analyze-brandt2", ["analyze", "brandt2.json"], False),
    ("analyze-null2", ["analyze", "null2.json"], False),
    ("transversals-rect22", ["transversals", "rect22.json"], False),
    ("transversals-brandt2", ["transversals", "brandt2.json"], False),
    ("decompose-rect22-t0", ["decompose", "rect22.json", "--transversal", "t0"], False),
    ("decompose-brandt2-whole", ["decompose", "brandt2.json", "--transversal", "whole"], False),
    ("construct-general", ["construct", "general", "lz2_structure.json"], False),
    ("construct-quasi-ideal", ["construct", "quasi-ideal", "lz2_structure.json"], False),
    ("construct-semidirect", ["construct", "semidirect", "lz2_action.json"], False),
    ("construct-spined", ["construct", "spined", "spined_rb22.json"], False),
    ("census-3", ["census", "3"], False),
    ("bad-ragged", ["analyze", "ragged.json"], True),
    ("bad-nonassoc", ["analyze", "nonassoc.json"], True),
    ("bad-truncated", ["analyze", "truncated.json"], True),
    ("bad-census-6", ["census", "6"], True),
    ("bad-transversal-name", ["decompose", "rect22.json", "--transversal", "nosuch"], True),
)


def cli_argv(args: list[str]) -> list[str]:
    """Resolve input file names to paths under the work directory."""
    return ["--json"] + [os.path.join(CLI_DIR, a) if a in CLI_FILES else a for a in args]


def cli_size(args: list[str]) -> int:
    """Input size of one command: bytes of its input file, else of its argv."""
    return sum(len(CLI_FILES[a]) if a in CLI_FILES else len(a) for a in args)


def cli_setup():
    import adequate.cli  # noqa: F401  (a command line user pays this import on every run)
    os.makedirs(CLI_DIR, exist_ok=True)
    for name, text in CLI_FILES.items():
        with open(os.path.join(CLI_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return {}


def cli_command(argv: list[str]) -> tuple[int, str, str]:
    """Run `adequate.cli.main(argv)` as `python -m adequate.cli` would:
    (exit code, stdout, stderr), with an uncaught exception's traceback on stderr."""
    import adequate.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = adequate.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def cli_pass(state, seed: int, round_no: int, tracer=None) -> dict:
    """One command of every kind in the mix, in the seeded order. Each starts
    with empty library caches, as a fresh `python -m adequate.cli` process does."""
    quartile = size_quartiles((cli_size(args), mix_id) for mix_id, args, _ in CLI_MIX)
    results = []
    warm = []
    exit2 = 0
    for idx in seeded_order(len(CLI_MIX), seed, round_no):
        mix_id, args, fail_fast = CLI_MIX[idx]
        argv = cli_argv(args)
        tr.clear_caches()
        warm += tr.warm_caches()
        if tracer is not None:
            tracer.item = mix_id
        t = time.perf_counter()
        code, out, err = cli_command(argv)
        results.append([mix_id, quartile[mix_id], t, time.perf_counter(),
                        cli_outcome(code, out, err, fail_fast)])
        exit2 += code == 2
    return {"other": [], "items": results, "checks": {}, "warm": warm, "exit2": exit2}


def cli_outcome(returncode: int, stdout: str, stderr: str, fail_fast: bool) -> str:
    """Digest of one command's observable result.

    A fail-fast input must exit 2 with exactly one `error:` line on stderr
    and no traceback; anything else about it is folded into the digest.
    """
    if fail_fast:
        lines = stderr.strip().splitlines()
        shape_ok = (returncode == 2 and len(lines) == 1 and lines[0].startswith("error:")
                    and "Traceback" not in stderr and stdout == "")
        return f"exit2:{shape_ok}"
    return f"exit{returncode}:{digest(stdout)}:{'Traceback' in stderr}"


SETUPS = {"census": census_setup, "ladder": ladder_setup, "cli": cli_setup}
PASSES = {"census": census_pass, "ladder": ladder_pass, "cli": cli_pass}

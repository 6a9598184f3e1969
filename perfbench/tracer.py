"""Span tracer that wraps the library's public functions from outside.

`Tracer.install()` replaces every public function of each library module,
and the `FiniteSemigroup` constructor check, with a wrapper that records one
span per call: name, layer, start, end, parent span, item id, exception, an
input size and an output count. A generator gets one span per resumption,
of which only the first counts as a call. The wrapper is bound under every
module attribute the library's modules import it by, so calls between layers
become nested spans; a reference held elsewhere, such as a function stored in
a module-level dict, still calls the unwrapped function.
Spans stay in memory; `layer_totals` turns them into additive per-layer sums
and `finish_layers` turns summed totals into the reported per-layer metrics.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import math
import os
import sys
import time
import types

LAYERS = ("core", "greenstar", "transversal", "construct", "decompose",
          "census", "catalog", "fileio", "cli")

# span fields; RAISED marks the first span a typed library error left, and
# CALL is 1 for a span that starts a call, 0 for one that resumes a generator
NAME, LAYER, START, END, PARENT, ITEM, ERROR, SIZE, OUT, RAISED, CALL = range(11)

ROUNDTRIP_LEGS = ("w_isomorphism", "semidirect_roundtrip", "spined_roundtrip")
BUILDERS = {
    "construct.build_w": "construct.build_w_s",
    "construct.build_semidirect": "construct.build_semidirect_s",
    "construct.build_spined_product": "construct.build_spined_s",
    "construct.build_quasi_ideal_w": "construct.build_quasi_ideal_s",
}


def library_modules() -> dict:
    """Import every layer; only the tracer does this, since a plain
    `import adequate` loads neither `cli` nor `fileio`."""
    return {layer: importlib.import_module(f"adequate.{layer}") for layer in LAYERS}


def loaded_modules() -> dict:
    """The library modules this process has already imported, by layer."""
    return {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("adequate.") and mod is not None}


def lru_functions() -> dict:
    """Every `lru_cache` function bound as an attribute of a loaded library
    module, by dotted name."""
    out = {}
    for layer, mod in loaded_modules().items():
        for attr, val in vars(mod).items():
            # a traced name holds a wrapper whose __wrapped__ is the cached function
            fn = val if hasattr(val, "cache_info") else getattr(val, "__wrapped__", None)
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__:
                out[f"{layer}.{attr}"] = fn
    return out


def warm_caches() -> list[str]:
    """Names of library `lru_cache`s that hold entries; empty when the process is cold.

    This looks at every live cache object rather than at module attributes, so
    it also finds a cache that `clear_caches` cannot reach: one kept on a
    class, in a closure or under a private name of another module.
    """
    return sorted(
        f"{obj.__module__}.{obj.__qualname__}" for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper)
        and str(getattr(obj, "__module__", "")).startswith("adequate.")
        and obj.cache_info().currsize)


def clear_caches() -> None:
    for fn in lru_functions().values():
        fn.cache_clear()


def cache_stats() -> dict:
    return {name: [fn.cache_info().hits, fn.cache_info().misses]
            for name, fn in lru_functions().items()}


def _size(args) -> int:
    """Input size of a call: the order of its semigroup, its n, its table's
    length, or the bytes of the file it parses."""
    if not args:
        return 0
    a = args[0]
    n = getattr(a, "order", None)
    if isinstance(n, int):
        return n
    if isinstance(a, int) and not isinstance(a, bool):
        return a
    if isinstance(a, (tuple, list)):
        return len(a)
    if isinstance(a, (str, os.PathLike)):
        try:
            return os.path.getsize(a)
        except OSError:
            return 0
    return 0


def _out(name: str, result) -> int:
    if name in BUILDERS:
        return result.w.order
    if name == "decompose.roundtrip":
        return sum(1 for e in result.checks.entries
                   if e.applicable and e.name in ROUNDTRIP_LEGS)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self._raised: dict[int, BaseException] = {}
        self._semigroup_error = None

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer, size):
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, time.perf_counter_ns(), 0, parent, self.item, None, size, 0,
                False, 1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span, exc=None):
        span[END] = time.perf_counter_ns()
        self.stack.pop()
        if exc is not None:
            span[ERROR] = type(exc).__name__
            if isinstance(exc, self._semigroup_error) and id(exc) not in self._raised:
                self._raised[id(exc)] = exc
                span[RAISED] = True

    def wrap(self, fn, name: str, layer: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                size = _size(args)
                gen = fn(*args, **kwargs)
                call = 1
                while True:
                    span = self._open(name, layer, size)
                    span[CALL], call = call, 0
                    try:
                        value = next(gen)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException as exc:
                        self._close(span, exc)
                        raise
                    span[OUT] = 1
                    self._close(span)
                    yield value
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer, _size(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span)
            if name in BUILDERS or name == "decompose.roundtrip":
                span[OUT] = _out(name, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap each public library function under every name bound to it."""
        import adequate
        from adequate.errors import SemigroupError

        self._semigroup_error = SemigroupError
        modules = library_modules()
        wrappers: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(val, (type, types.ModuleType)):
                    continue
                if callable(val) and getattr(val, "__module__", None) == mod.__name__:
                    wrappers[id(val)] = (val, self.wrap(val, f"{layer}.{attr}", layer))
        for mod in [adequate, *modules.values()]:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

        core = modules["core"]
        post_init = core.FiniteSemigroup.__post_init__
        traced_init = self.wrap(post_init, "core.FiniteSemigroup", "core")
        core.FiniteSemigroup.__post_init__ = traced_init

        # cli renders with json.dump from its own `json` binding
        cli = modules["cli"]
        json_proxy = types.SimpleNamespace(**vars(cli.json))
        json_proxy.dump = self.wrap(cli.json.dump, "cli.render", "cli")
        cli.json = json_proxy


# -- aggregation -------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread and nest, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def layer_totals(spans, cache_delta: dict) -> dict:
    """Additive per-layer sums over spans; times in seconds."""
    t: dict[str, float] = {}

    def add(key, v):
        t[key] = t.get(key, 0) + v

    selfs = self_times(spans)
    for s, self_ns in zip(spans, selfs):
        name, layer = s[NAME], s[LAYER]
        dur = (s[END] - s[START]) / 1e9
        add(f"{layer}.calls", s[CALL])
        add(f"{layer}.self_s", self_ns / 1e9)
        if s[RAISED]:
            add("errors.raised", 1)
        ok = s[ERROR] is None
        if name == "core.FiniteSemigroup":
            add("core.tables_validated", 1)
            add("core.assoc_cells", s[SIZE] ** 3)
            add("core.validate_s", dur)
        elif name == "core.restrict":
            add("core.restricts", 1)
        elif name == "core.enumerate_subsemigroups" and ok:
            add("core.subsets_tried", (1 << s[SIZE]) - 1)
        elif name == "core.enumerate_congruences" and ok:
            add("core.partitions_tried", _bell(s[SIZE]))
        elif name == "core.find_isomorphism":
            add("core.iso_searches", 1)
        elif name == "greenstar.star_relations":
            add("greenstar.star_relations_s", dur)
        elif name == "transversal.verify_adequate_transversal":
            add("transversal.verify_s", dur)
            p = s[PARENT]
            if p >= 0 and spans[p][NAME] == "transversal.find_adequate_transversals":
                add("transversal.candidates_tried", 1)
                add("transversal.candidates_rejected", 0 if ok else 1)
        elif name == "transversal.audit_identities":
            add("transversal.audit_s", dur)
        elif name == "construct.validate_structure_input":
            add("construct.validate_structure_s", dur)
        elif name in BUILDERS:
            add(BUILDERS[name], dur)
            add("construct.built_elements", s[OUT])
        elif name.startswith("decompose.extract_"):
            add("decompose.extract_s", dur)
        elif name == "decompose.roundtrip" and ok:
            add("decompose.roundtrips", 1)
            add("decompose.roundtrip_legs", s[OUT])
        elif name == "census.labelled_tables":
            add("census.enumerate_s", dur)
            add("census.labelled_tables", s[OUT])
        elif name == "census.enumerate_semigroups":
            add("census.classes", s[OUT])
        elif name == "census.canonical_table":
            add("census.canonical_s", dur)
            add("census.relabelings", math.factorial(s[SIZE]))
        elif name.startswith("fileio.parse_"):
            add("fileio.parses", 1)
            add("fileio.bytes_read", s[SIZE])
        elif name.startswith("cli.cmd_"):
            add("cli.command_s", dur)
        elif name == "cli.render":
            add("cli.render_s", dur)
    add("trace.spans", len(spans))
    for fn_name, (hits, misses) in cache_delta.items():
        layer = fn_name.split(".")[0]
        if fn_name == "transversal._verify_cached":
            add("transversal.verify_cache_hits", hits)
            add("transversal.verify_cache_misses", misses)
        else:
            add(f"{layer}.cache_hits", hits)
            add(f"{layer}.cache_misses", misses)
    return t


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def finish_layers(t: dict) -> dict:
    """Per-layer metrics from summed totals: ratios are taken after summing."""
    g = t.get
    m = dict(t)
    m["core.cache_hit_ratio"] = _ratio(g("core.cache_hits", 0),
                                       g("core.cache_hits", 0) + g("core.cache_misses", 0))
    m["greenstar.cache_hit_ratio"] = _ratio(
        g("greenstar.cache_hits", 0), g("greenstar.cache_hits", 0) + g("greenstar.cache_misses", 0))
    tried = g("transversal.candidates_tried", 0)
    m["transversal.accept_ratio"] = _ratio(tried - g("transversal.candidates_rejected", 0), tried)
    m["transversal.verify_cache_hit_ratio"] = _ratio(
        g("transversal.verify_cache_hits", 0),
        g("transversal.verify_cache_hits", 0) + g("transversal.verify_cache_misses", 0))
    m["census.class_ratio"] = _ratio(g("census.classes", 0), g("census.labelled_tables", 0))
    return m

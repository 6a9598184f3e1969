"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _pass(items, checks=None, warm=()):
    """A pass result whose items all ran at the reference speed: each item
    goes out as [id, quartile, scaled s, digest, measured s]."""
    return {"other": [], "items": [i + [i[2]] for i in items], "checks": checks or {},
            "warm": list(warm), "probes": [wl.REFERENCE_S]}


# -- percentile rule ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail(range(99)) is None
    assert run.tail(range(100)) == 89  # nearest rank 90: samples 90..99 lie beyond
    assert run.tail([]) is None


def test_notes_report_sample_count_and_withhold_short_tail():
    short = [_pass([["a", 0, 0.001 * k, "d"] for k in range(50)])]
    notes = run.untraced_notes("census", 1, short, 5)
    assert "50 item samples" in notes[0]
    assert "item_p50_ms 24.500 ms of 50 samples" in notes[1]
    assert "not reported: p90 of 50 samples" in notes[2]
    long = [_pass([["a", 0, 0.001 * k, "d"] for k in range(200)])]
    notes = run.untraced_notes("census", 1, long, 5)
    assert "200 item samples" in notes[0]
    assert "item_p90_ms 179.000 ms of 200 samples" in notes[2]


# -- scaling by the reference work ---------------------------------------------


def test_a_piece_is_scaled_by_the_speed_around_it_and_probes_left_out():
    R = wl.REFERENCE_S
    sampler = wl.SpeedSampler()
    # (start, end, reference seconds): fast, then three times slower, then fast
    sampler.probes = [(0.0, 1.0, R), (3.0, 3.5, 3 * R), (5.5, 6.0, R)]
    measured, scaled = sampler.scale(2.0, 4.0)
    assert measured == pytest.approx(1.5)  # 2.0..3.0 and 3.5..4.0
    assert scaled == pytest.approx(1.0 * 2 / 3 + 0.5 * 2 / 3)
    sampler.probes = [(0.0, 0.1, R), (1.0, 1.1, R)]
    assert sampler.scale(0.2, 0.7) == (pytest.approx(0.5), pytest.approx(0.5))


def test_sampler_probes_during_a_long_call():
    with wl.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
    assert len(sampler.probes) >= 4  # start, end and at least two from the timer
    measured, scaled = sampler.scale(start, end)
    inside = sum(b - a for a, b, _ in sampler.probes if start <= a and b <= end)
    assert measured == pytest.approx(end - start - inside)
    assert scaled > 0


def test_pass_times_scaled_or_as_measured():
    p = {"other": [[0.1, 0.2]], "items": [["x", 0, 0.3, "d1", 0.6]],
         "layers": {"core.self_s": 0.4, "core.calls": 7}}
    assert run.pass_times(p)["wall_s"] == pytest.approx(0.4)
    assert run.pass_times(p)["items"] == [["x", 0, 0.3, "d1"]]
    assert run.pass_times(p, False)["wall_s"] == pytest.approx(0.8)
    assert run.pass_times(p, False)["items"] == [["x", 0, 0.6, "d1"]]
    # layer times take the pass's factor, 0.4 / 0.8; counts stay as they are
    assert run.pass_times(p)["layers"] == {"core.self_s": pytest.approx(0.2), "core.calls": 7}


def test_reference_work_is_fixed_and_timed_per_rep():
    assert wl.reference_work() == wl.reference_work()
    times = wl.reference_times(3)
    assert len(times) == 3 and all(t > 0 for t in times)


# -- failures ---------------------------------------------------------------------


EXPECTED = {"items": {"x": "d1", "y": "d2"}, "checks": {"count": 3}}


def test_matching_pass_has_no_failures():
    p = _pass([["x", 0, 0.1, "d1"], ["y", 1, 0.1, "d2"]], {"count": 3})
    assert run.check_passes([p], EXPECTED) == (3, 0, [])


def test_forced_mismatch_is_counted_in_failed_share(capsys):
    p = _pass([["x", 0, 0.1, "d1"], ["y", 1, 0.1, "WRONG"]], {"count": 3})
    attempted, failed, problems = run.check_passes([p], EXPECTED)
    assert (attempted, failed) == (3, 1)
    result = run.report("census", {}, [], attempted, failed, problems, [])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert "failed_share" in capsys.readouterr().out


def test_wrong_pass_check_is_a_failure():
    p = _pass([["x", 0, 0.1, "d1"], ["y", 1, 0.1, "d2"]], {"count": 4})
    assert run.check_passes([p], EXPECTED)[:2] == (3, 1)


def test_guard_finds_a_warm_cache_that_clearing_misses():
    def square(x):
        return x * x

    # a library cache held in a closure: no module attribute names it
    square.__module__ = "adequate.selftest"
    cached = functools.lru_cache(maxsize=None)(square)
    name = f"adequate.selftest.{square.__qualname__}"
    assert name not in tr.warm_caches()
    cached(3)
    tr.clear_caches()
    assert name in tr.warm_caches()
    cached.cache_clear()
    assert name not in tr.warm_caches()


def test_warm_pass_fails_every_operation():
    p = _pass([["x", 0, 0.1, "d1"], ["y", 1, 0.1, "d2"]], {"count": 3},
              warm=["greenstar.star_relations"])
    assert run.check_passes([p], EXPECTED)[:2] == (3, 3)


def test_cli_fail_fast_shape():
    assert wl.cli_outcome(2, "", "error: bad table\n", True) == "exit2:True"
    assert wl.cli_outcome(1, "", "error: bad table\n", True) == "exit2:False"
    assert wl.cli_outcome(2, "", "Traceback (most recent call last):\nerror: x\n",
                          True) == "exit2:False"
    assert wl.cli_outcome(2, "", "error: a\nerror: b\n", True) == "exit2:False"


def test_in_process_command_matches_a_cli_process(tmp_path, monkeypatch):
    """A command run in-process gives the exit code, stdout and stderr of
    `python -m adequate.cli` with the same arguments."""
    monkeypatch.chdir(tmp_path)
    wl.cli_setup()
    env = run.child_env(ROOT, str(tmp_path / "pycache"))
    for args, fail_fast in ((["analyze", "rect22.json"], False),
                            (["analyze", "truncated.json"], True),
                            (["census", "6"], True)):
        argv = wl.cli_argv(args)
        cp = subprocess.run([sys.executable, "-m", "adequate.cli"] + argv, env=env,
                            capture_output=True, text=True)
        code, out, err = wl.cli_command(argv)
        assert (code, out, err) == (cp.returncode, cp.stdout, cp.stderr)
        assert wl.cli_outcome(code, out, err, fail_fast) != "exit2:False"


# -- spans ------------------------------------------------------------------------


def _span(name, start, end, parent, layer="core"):
    return [name, layer, start, end, parent, None, None, 0, 0, False, 1]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.1", 15, 25, 1),
        _span("b", 50, 90, 0),
    ]
    assert tr.self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40]
    assert sum(tr.self_times(spans)) == 100


def test_layer_totals_self_time_by_layer():
    spans = [
        _span("transversal.find_adequate_transversals", 0, 1_000_000_000, -1, "transversal"),
        _span("transversal.verify_adequate_transversal", 0, 400_000_000, 0, "transversal"),
        _span("greenstar.star_relations", 0, 250_000_000, 1, "greenstar"),
    ]
    spans[1][tr.ERROR] = "NotStarSub"
    t = tr.layer_totals(spans, {})
    assert t["transversal.self_s"] == pytest.approx(0.75)
    assert t["greenstar.self_s"] == pytest.approx(0.25)
    assert t["transversal.candidates_tried"] == 1
    assert t["transversal.candidates_rejected"] == 1
    assert tr.finish_layers(t)["transversal.accept_ratio"] == 0.0


def test_tracer_nests_calls_between_layers(tmp_path):
    code = (
        "import tracer as tr\n"
        "t = tr.Tracer(); t.install()\n"
        "import adequate as A\n"
        "S = A.catalog('rect_band(2,2)')\n"
        "n = len(A.enumerate_subsemigroups(S))\n"
        "found = A.find_adequate_transversals(S)\n"
        "tot = tr.layer_totals(t.spans, tr.cache_stats())\n"
        "assert tot['transversal.candidates_tried'] == n, (tot, n)\n"
        "assert tot['transversal.candidates_tried'] - tot['transversal.candidates_rejected']"
        " == len(found)\n"
        "assert tot['greenstar.calls'] > 0 and tot['core.tables_validated'] > 0\n"
    )
    env = run.child_env(ROOT, str(tmp_path))
    env["PYTHONPATH"] = BENCH + os.pathsep + env["PYTHONPATH"]
    cp = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_generator_counts_one_call_and_one_span_per_resumption():
    t = tr.Tracer()

    def three():
        yield from (1, 2, 3)

    assert list(t.wrap(three, "census.three", "census")()) == [1, 2, 3]
    totals = tr.layer_totals(t.spans, {})
    assert totals["census.calls"] == 1
    assert totals["trace.spans"] == 4  # three yields and the final StopIteration


# -- seeds ------------------------------------------------------------------------


def test_same_seed_gives_same_census_and_cli_order():
    assert wl.seeded_order(233, 7) == wl.seeded_order(233, 7)
    assert wl.seeded_order(233, 7) != wl.seeded_order(233, 8)
    n = len(wl.CLI_MIX)
    assert [wl.seeded_order(n, 7, r) for r in range(6)] == [
        wl.seeded_order(n, 7, r) for r in range(6)]
    assert sorted(wl.seeded_order(n, 7, 3)) == list(range(n))


def test_size_quartiles_split_evenly_by_size():
    q = wl.size_quartiles((size, f"i{size}") for size in range(8))
    assert [q[f"i{size}"] for size in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]


# -- definition -------------------------------------------------------------------


def test_expected_outputs_cover_every_workload_item():
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert set(expected) == set(wl.SETUPS)
    assert len(expected["census"]["items"]) == 233
    assert expected["census"]["checks"]["class_counts"] == [1, 5, 24, 188]
    assert set(expected["cli"]["items"]) == {mix_id for mix_id, _, _ in wl.CLI_MIX}
    assert len(expected["ladder"]["items"]) == 4


def test_declared_metrics_are_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    items = [["x", q, 0.01 * (q + 1), "d"] for q in range(4)]
    e2e = run.end_to_end([run.pass_times(_pass(items))], [0.1], 20.0)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    layer_names = {m["name"] for m in spec["per_layer"]}
    made = set(tr.finish_layers({}))
    made |= {"cli.interpreter_ms", "cli.import_ms", "cli.exit2_ms",
             "trace.overhead_s", "trace.overhead_ratio"}
    assert made <= layer_names

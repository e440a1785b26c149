"""Tests of the benchmark's own machinery: the correctness gate, span
self-time accounting, wrapper installation and the metric names.

Run from the root of the repository::

    python3 -m pytest trialbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_row(protocol="det-logn", adversary="adaptive", replicate=0,
             **fields):
    row = {"hash": f"h{protocol}{adversary}{replicate}",
           "trial": {"protocol": protocol, "adversary": adversary, "n": 64,
                     "alpha": 1 / 32, "width": 1, "bandwidth": 32,
                     "replicate": replicate, "base_seed": 1},
           "status": "ok", "rounds": 16, "bits_sent": 1000,
           "accuracy": 1.0, "correct_entries": 4096, "total_entries": 4096,
           "entries_corrupted": 12}
    row.update(fields)
    return row


# -- the gate --------------------------------------------------------------------
def test_gate_accepts_clean_rows():
    rows = [make_row(replicate=r) for r in range(3)]
    rows.append(make_row("adaptive", accuracy=0.98))
    assert gate.check_rows(rows) == []
    assert gate.check_adversary_armed(rows) == []


@pytest.mark.parametrize("status", ["error", "unsupported", "skipped"])
def test_gate_rejects_non_ok_rows(status):
    problems = gate.check_rows([make_row(status=status, reason="boom")])
    assert len(problems) == 1 and status in problems[0]


def test_gate_rejects_fallback_row():
    problems = gate.check_rows([make_row(fallback="per-trial batch failure")])
    assert len(problems) == 1 and "fallback" in problems[0]


@pytest.mark.parametrize("protocol,accuracy", [
    ("det-logn", 0.9999), ("det-sqrt", 0.5), ("nonadaptive", 0.99),
    ("adaptive", 0.969)])
def test_gate_rejects_accuracy_below_floor(protocol, accuracy):
    problems = gate.check_rows([make_row(protocol, accuracy=accuracy)])
    assert len(problems) == 1 and "below floor" in problems[0]


def test_gate_rejects_digest_mismatch():
    rows = [make_row(replicate=r) for r in range(2)]
    again = [dict(row) for row in reversed(rows)]
    assert gate.digest(rows) == gate.digest(again)  # order-independent
    assert gate.check_digests([gate.digest(rows), gate.digest(again)]) == []
    again[0]["entries_corrupted"] += 1
    problems = gate.check_digests([gate.digest(rows), gate.digest(again)])
    assert len(problems) == 1 and "digest differs" in problems[0]


def test_gate_rejects_disarmed_adversary():
    rows = [make_row(entries_corrupted=0, replicate=r) for r in range(2)]
    rows.append(make_row(adversary="null", entries_corrupted=0))
    problems = gate.check_adversary_armed(rows)
    assert len(problems) == 1 and "'adaptive'" in problems[0]


def test_gate_rejects_parity_mismatch():
    batched = make_row()
    assert gate.check_parity(batched, dict(batched)) == []
    problems = gate.check_parity(batched, dict(batched, rounds=17))
    assert len(problems) == 1 and "rounds" in problems[0]


# -- spans -----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_partitions_wall_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        wrapped_middle()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("m:leaf", "fields", leaf)
    wrapped_middle = tracer.wrap("m:middle", "coding.ldc", middle)
    wrapped_outer = tracer.wrap("m:outer", "core", outer)
    clock.now += 0.25  # outside every span
    wrapped_outer()
    metrics = tracer.layer_metrics(wall_s=clock.now)
    assert metrics["core.self_s"] == 3.0
    assert metrics["coding.ldc.self_s"] == 1.5
    assert metrics["fields.self_s"] == 4.0
    assert metrics["fields.calls"] == 2
    assert metrics["unattributed.self_s"] == 0.25
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total + metrics["unattributed.self_s"] == clock.now
    records = list(tracer.span_records())
    by_name = {r["name"]: r for r in records if r["name"] != "m:leaf"}
    assert by_name["m:middle"]["parent"] == by_name["m:outer"]["id"]
    assert by_name["m:outer"]["parent"] == -1


def test_counts_only_on_outermost_span_of_a_layer():
    tracer = spans.Tracer()
    calls = []
    hook = spans.Hook(lambda t, call, result, error: calls.append(result))

    inner = tracer.wrap("m:inner", "coding.decode", lambda: "inner", hook)

    def outer_fn():
        inner()
        return "outer"
    outer = tracer.wrap("m:outer", "coding.decode", outer_fn, hook)
    outer()
    assert calls == ["outer"]


def test_exception_closes_span_and_propagates():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no")
    wrapped = tracer.wrap("m:boom", "fields", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.depth["fields"] == 0 and tracer.layer_calls["fields"] == 1


def test_install_wraps_import_sites_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.core.profiles as profiles
    from repro.coding import linear
    original = linear.best_effort_linear_code
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        for site in spans.REQUIRED_IMPORT_SITES:
            assert site in installed.sites
        assert profiles.best_effort_linear_code is not original
        profiles.best_effort_linear_code(4, 8)
        assert tracer.site_calls["repro.core.profiles:best_effort_linear_code"]
        assert tracer.counts["coding.construct.lookups"] >= 1
    finally:
        installed.restore()
    assert profiles.best_effort_linear_code is original
    assert linear.best_effort_linear_code is original


# -- metric names ----------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    declared = run.benchmark_metrics()
    window = run.Window()
    window.repeats = [[make_row()]]
    window.walls, window.probes, window.wall_s = [1.0], [0.1, 0.1], 1.0
    assert set(run.end_to_end(window, 1.0, 1.0)) == set(declared["end_to_end"])
    layer_names = set(spans.Tracer().layer_metrics(1.0))
    trace_names = {name for name in declared["per_layer"]
                   if name.startswith("trace.")}
    assert layer_names | trace_names == set(declared["per_layer"])
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = [w["name"] for w in json.load(fh)["workloads"]]
    assert listed == list(WORKLOADS)


def test_host_scaling():
    window = run.Window()
    window.repeats = [[make_row()], [make_row()]]
    # the host ran at half the reference speed during the first repeat
    # and at reference speed during the second
    window.walls = [4.0, 2.0]
    window.probes = [2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S,
                     run.PROBE_REF_S]
    assert window.host_s == pytest.approx(2.0 + 2.0 / 1.5)
    assert window.passed_per_s() == pytest.approx(2 / window.host_s)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "trialbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "trialbench/run.py", "--workload",
         "campaign-mix-n64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The end-to-end cases run the cheapest workload (served-campaign, ~3 s a
pass) through ``run.py`` exactly as the benchmark command does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import run, tracing  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, \
        proc.stderr


def test_declared_metrics_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, section):
    code, result, err = _run("--workload", "served-campaign", "--seed", "0",
                             "--seconds", "1", "--trace", trace)
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, err
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_corrupted_golden_digest_is_a_counted_failure(tmp_path,
                                                      monkeypatch):
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["served-campaign"]["0"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN", str(path))
    result = run.measure("served-campaign", 0, 1, False, str(tmp_path))
    assert result["correct"] is False
    # Every warm result is served from the wrong cold result.
    assert result["failed"] == result["attempted"] > 0


def test_seed_reaches_every_cell():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(golden) == set(run.WORKLOADS)
    for workload, digests in golden.items():
        assert sorted(map(int, digests)) == list(range(run.INPUT_SEEDS))
        assert len(set(digests.values())) == run.INPUT_SEEDS, workload


def test_seeded_cells_route_the_figure_driver_through_the_seed():
    from perfbench.workloads import SeededCells
    from repro.experiments import fig3_irregular
    original = fig3_irregular.irregular_cycles
    key = ("CilkPlus", "auto", 1, 11)
    with SeededCells("irregular-sweep", 3) as cells:
        assert fig3_irregular.irregular_cycles is not original
        seeded = fig3_irregular._fig3_cell(key)   # the driver's own adapter
    assert fig3_irregular.irregular_cycles is original
    assert cells.calls == 1 and list(cells.cycles.values()) == [seeded]
    assert seeded == original("auto", "1 x", 11, model="CilkPlus", seed=3)
    assert seeded != fig3_irregular._fig3_cell(key)          # seed 0


def test_untraced_run_refuses_installed_wrappers(tmp_path):
    from perfbench.workloads import run_child
    from repro.kernels.coloring import parallel, sequential
    original = sequential.greedy_coloring
    tracing.assert_untraced()
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        assert parallel.greedy_coloring is not original
        with pytest.raises(RuntimeError, match="wrappers installed"):
            tracing.assert_untraced()
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run_child("served-campaign", 0, 0.0, str(tmp_path), trace=False)
    finally:
        tracer.uninstall()
    assert parallel.greedy_coloring is original
    assert sequential.greedy_coloring is original
    tracing.assert_untraced()


def test_speedometer_counts_program_time_in_nominal_seconds():
    from perfbench import speed as speed_mod
    meter = speed_mod.Speedometer(time.monotonic())
    first = len(meter)
    half = 2 * speed_mod.NOMINAL_REF_S           # a host at half speed
    # (wall start, wall end, cpu start, cpu end, ref wall, ref cpu); the
    # middle read is disturbed and is outvoted by its neighbours.
    meter.record(0.0, 1.0, 0.0, 1.0, half, half)
    meter.record(3.0, 3.5, 3.0, 3.5, 10 * half, half)
    meter.record(4.5, 5.0, 4.5, 5.0, half, half)
    span = meter.between(first, first + 2)
    assert span["wall_s"] == span["cpu_s"] == 3.0     # references excluded
    expected = 3.0 * 0.5 ** speed_mod.ELASTICITY
    assert span["nominal_s"] == pytest.approx(expected)
    assert span["nominal_cpu_s"] == pytest.approx(expected)


def test_tracer_self_time_excludes_wrapped_children():
    tracer = tracing.LayerTracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    same = tracer.wrap(lambda: outer(), "outer")
    same()
    totals = tracer.snapshot()
    assert totals["outer.calls"] == 1 and totals["inner.calls"] == 3
    assert totals["outer.self"] == pytest.approx(
        totals["outer.total"] - totals["inner.total"])
    assert 0 < totals["outer.self"] < totals["outer.total"]

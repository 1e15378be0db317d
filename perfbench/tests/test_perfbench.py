"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO), str(REPO / "src")]

from perfbench import checks, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, write_stream  # noqa: E402


def _span(name, start, end, parent, op=""):
    return [name, start, end, parent, op]


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 9.0, 9.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 4.0, 0.5])
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert totals["root"]["self_s"] == pytest.approx(2.5)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("c", 1.0, 6.0, 0), _span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)  # children cover [1, 10]


def test_golden_check_rejects_a_perturbed_csv():
    golden = (REPO / "perfbench" / "golden" / "canary_rollout_metrics.csv").read_text()
    assert checks.compare_csv(golden, golden) == []

    head, rows = checks.read_csv_text(golden)
    j = head.index("mse_corrected")

    def with_cell(value):
        changed = [list(r) for r in rows]
        changed[7][j] = value
        return "\n".join(",".join(r) for r in [head, *changed]) + "\n"

    value = float(rows[7][j])
    assert checks.compare_csv(with_cell(repr(value * (1 + 1e-14))), golden) == []
    problems = checks.compare_csv(with_cell(repr(value * (1 + 1e-6))), golden)
    assert len(problems) == 1 and "row 7 mse_corrected" in problems[0]
    assert checks.compare_csv(golden.replace("\n0,", "\n1,", 1), golden)  # integer column
    assert checks.compare_csv("\n".join(golden.splitlines()[:-1]) + "\n", golden)  # a row lost


def test_generator_is_a_function_of_the_seed(tmp_path):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        write_stream(path, 500, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    lines = paths[0].read_text().splitlines()
    assert len(lines) == 501 and lines[0].split(",")[0] == "date"


def test_elapsed_counts_follow_the_leakage_safe_schedule():
    assert checks.elapsed_counts([10, 11, 12, 13, 14], 2) == [0, 0, 1, 2, 3]
    assert checks.elapsed_counts([0, 8, 16], 8) == [0, 1, 2]


def test_window_latency_estimators_skip_failed_steps():
    nan = float("nan")
    passes = [[1.0, 2.0, 9.0], [3.0, nan, 5.0], [2.0, 4.0, 6.0]]
    assert checks.per_window_medians(passes) == [2.0, 3.0, 6.0]
    assert checks.mean_of_pass_medians(passes) == pytest.approx((2.0 + 4.0 + 4.0) / 3)


def test_missing_target_reports_zero_calls_and_wrappers_are_restored():
    rollout = import_module("smoothtta.rollout")
    local = import_module("smoothtta.local")
    original = local.solve_local
    tracer = tracing.Tracer()
    targets = (
        ("local.solve", "smoothtta.local", "solve_local", None),
        ("gone.fn", "smoothtta.local", "no_such_function", None),
        ("gone.module", "smoothtta.no_such_module", "fn", None),
    )
    patch = tracing.install(tracer, targets)
    try:
        assert rollout.solve_local is local.solve_local is not original
        op = import_module("smoothtta.chain").build_transfer_operator(8, 0.15)
        rollout.solve_local(__import__("numpy").ones((3, 2)), op)
    finally:
        patch.restore()
    assert rollout.solve_local is original and local.solve_local is original
    totals = tracing.layer_totals(tracer.spans)
    assert totals["local.solve"]["calls"] == 1
    assert "gone.fn" not in totals and "gone.module" not in totals


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


TINY = {
    "eval-h96": dict(lookback=24, horizon=24, length=1200),
    "eval-h720": dict(lookback=48, horizon=72, length=2000),
    "online-h96": dict(lookback=24, horizon=24, length=1200),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
def test_tiny_smoke_run(name, traced, tmp_path, monkeypatch):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    monkeypatch.setattr(run, "TRACE_OUT", tmp_path / "trace")
    csv_path = tmp_path / "stream.csv"
    write_stream(csv_path, wl.length, seed=3)
    go = run.traced_run if traced else run.timed_run
    values, counts, tally = go(wl, 3, 0.0, tmp_path / "work", csv_path)
    assert tally.failed == 0, tally.report()
    assert tally.attempted > 0
    assert set(values) == set(run.PER_LAYER if traced else run.END_TO_END)
    if traced:
        assert values["local.solve.calls"] > 0 and values["decoder.decode.calls"] > 0
        assert values["decoder.gradcheck.calls"] == 20
        assert (tmp_path / "trace" / f"spans-{name}-s3.csv").exists()
    else:
        assert all(v > 0 for v in values.values()), values


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-h96", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

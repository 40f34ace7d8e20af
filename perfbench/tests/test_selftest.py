"""Fast self-test of the benchmark: every workload's shape on a tiny
torus for a few rounds, traced and untraced, plus a corrupted view that
the output checks must catch.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
CRASH_WORKLOADS = {"paper-timeline", "large-failure"}
ALL_END_TO_END = {
    "setup_s", "node_rounds_per_s", "round_ms_p50", "round_ms_tail",
    "reshape_s", "reshape_rounds", "points_surviving", "peak_rss_mb",
    "failed_ratio",
}


def bench(workload, trace, *extra, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def record_of(workload, trace):
    path = BENCH / "results" / f"{workload}-seed3-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert table[metric["name"]] == metric["unit"]
    if trace:
        traced = record_of(workload, 1)["workers"][1]
        assert traced["self_check"]["problems"] == []
    else:
        reshape = {"reshape_s", "reshape_rounds"}
        if workload in CRASH_WORKLOADS:
            assert ALL_END_TO_END <= set(table)
        else:
            assert ALL_END_TO_END - reshape <= set(table)
            assert not reshape & set(table)
        assert record_of(workload, 0)["metrics"]["failed_ratio"][0] == 0


@pytest.mark.parametrize("fault", ["duplicate-view", "self-view"])
def test_corrupted_view_raises_failed_ratio(fault):
    done = bench("paper-timeline", 0, "--fault", fault)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    record = record_of("paper-timeline", 0)
    assert record["metrics"]["failed_ratio"][0] == 1.0
    problems = record["workers"][0]["instance"]["problems"]
    assert any("duplicate" in p or "itself" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = bench("paper-timeline", 0, cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 141))
    value, pct, beyond = tracing.tail(values)
    assert (pct, beyond) == (92, 11) and value == 129
    assert tracing.tail([3.0, 1.0]) == (3.0, 100, 0)


def test_self_check_flags_a_span_leaving_its_parent():
    N = tracing
    spans = [
        ["round", -1, 0, 0.0, 10.0, 0],
        ["layer.tman", 0, 0, 1.0, 6.0, 0],
        ["kernel.topk_smallest", 1, 0, 2.0, 3.0, 0],
        ["observer.MetricsRecorder", 0, 0, 7.0, 9.0, 0],
    ]
    selfs = N.self_times(spans)
    assert selfs == [3.0, 4.0, 1.0, 2.0]
    assert N.self_check(spans, selfs, 1e-3)["problems"] == []
    spans[2][N.END] = 7.5  # the kernel now ends after its layer
    bad = N.self_check(spans, N.self_times(spans), 1e-3)
    assert any("leaves its parent" in p for p in bad["problems"])

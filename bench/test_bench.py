"""Tests of the benchmark harness itself (not part of the package suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The smoke runs go through the same command as a full run, on tiny
inputs, so a broken workload, check or wrapper shows up in seconds.
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracing import Tracer, layer_metrics  # noqa: E402
from worker import reference_problems  # noqa: E402
from workloads import staircase_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric_and_passes_its_checks(trace):
    proc = run_bench("--workload", "all", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end" if trace == "0" else "per_layer"]]
    expected = {f"{w['name']}.{n}" for w in SPEC["workloads"] for n in names}
    assert set(result["metrics"]) == expected
    if trace == "0":
        for key, metric in result["metrics"].items():
            assert metric["value"] > 0, key


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("--workload", "staircase_n5", "--seconds", "1", cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _span(name, tid, start, end, parent=None, info=None):
    return [name, tid, start, end, parent, info, True]


def test_self_time_counts_parallel_children_once():
    run = _span("scan.run_scan", 1, 0.0, 10.0, info=(2, 100))
    a = _span("ed.solve_ground", 2, 1.0, 6.0, run)
    b = _span("ed.solve_ground", 3, 2.0, 9.0, run)
    inner = _span("ed.solve_sector", 3, 2.0, 5.0, b, info=0)
    metrics = layer_metrics([inner, a, b, run])
    assert metrics["scan.run_scan.self_s"] == pytest.approx(2.0)  # 10 s minus the union [1, 9]
    assert metrics["ed.solve_ground.self_s"] == pytest.approx(5.0 + 4.0)
    assert metrics["scan.concurrency"] == pytest.approx((5.0 + 7.0) / 10.0)
    assert metrics["ed.useful_sector_ratio"] == pytest.approx(4.0)
    assert metrics["scan.files_written"] == 2 and metrics["scan.bytes_written"] == 100


def test_retries_count_restarts_of_the_sector_range():
    ground = _span("ed.solve_ground", 1, 0.0, 4.0)
    sectors = [_span("ed.solve_sector", 1, t, t + 0.5, ground, info=p)
               for t, p in ((0.0, 0), (0.5, 1), (1.0, 0), (1.5, 1), (2.0, 2))]
    assert layer_metrics(sectors + [ground])["ed.solve_ground.retries"] == 1


def test_pool_thread_spans_take_the_main_thread_span_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap("ed.solve_ground", lambda x: threading.get_ident())

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    outer = tracer.wrap("scan.run_scan", sweep)
    tracer.active = True
    tids = outer()
    by_name = {}
    for rec in tracer.spans:
        by_name.setdefault(rec[0], []).append(rec)
    (run,) = by_name["scan.run_scan"]
    assert all(rec[4] is run for rec in by_name["ed.solve_ground"])
    assert {rec[1] for rec in by_name["ed.solve_ground"]} == set(tids)
    assert threading.main_thread().ident not in tids


def test_checks_flag_wrong_staircase_and_reference_mismatch():
    values = {f"A:{i}": {"p_star": p} for i, p in enumerate([3, 3, 5, 4])}
    flagged = {key for key, _ in staircase_problems(values, [("A", 4)])}
    assert flagged == {"A:2", "A:3"}
    reference = {"A:0": {"p_star": 3, "ground_energy": -1.0}}
    assert reference_problems({"A:0": {"p_star": 3, "ground_energy": -1.0 + 1e-12}}, reference) == []
    assert reference_problems({"A:0": {"p_star": 4, "ground_energy": -1.0}}, reference)
    assert reference_problems({"A:0": {"p_star": 3, "ground_energy": -1.001}}, reference)
    assert reference_problems({"B:0": {"p_star": 3}}, reference)

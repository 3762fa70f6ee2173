"""The benchmark's traced surface: every function ``bench/tracing.py`` wraps
must still exist, or its ``--trace 1`` run fails before measuring."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("metric, module, name", tracing.WRAPPED, ids=[w[0] for w in tracing.WRAPPED])
def test_wrapped_function_resolves_to_a_callable(metric, module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), metric


_WL_PATH = _PATH.parent / "workloads.py"
_WL_SPEC = importlib.util.spec_from_file_location("bench_workloads", _WL_PATH)
workloads = importlib.util.module_from_spec(_WL_SPEC)
_WL_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_unit_fires_every_expected_call(name, tmp_path):
    # what a --trace 1 run checks: each layer the workload should reach
    # counts a call, and no entry point that must stay idle fires
    wl = workloads.WORKLOADS[name](0, True, tmp_path)
    wl.prepare()
    wl.warmup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.prepare()
        wl.run(wl.units[0])
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert tracing.self_check(metrics, wl.expect_calls, wl.expect_idle, tracer.missing) == []

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

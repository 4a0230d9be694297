"""The benchmark's traced layer functions exist, with the parameters it records.

``benchmarks/tracing.py`` wraps every function named in its ``LAYER_FUNCTIONS``
map and reads the listed arguments by name, so a renamed function or
parameter would otherwise show only in a full ``benchmarks/run.py --trace 1``
run.  The file is loaded by path and not changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing_module()
LAYER_FUNCTIONS = [
    (module_name, function_name, params)
    for module_name, functions in TRACING_MODULE.LAYER_FUNCTIONS.items()
    for function_name, params in functions.items()
]


@pytest.mark.parametrize(
    "module_name, function_name, params", LAYER_FUNCTIONS, ids=[f"{m}.{f}" for m, f, _ in LAYER_FUNCTIONS]
)
def test_layer_function_exists_with_recorded_parameters(module_name, function_name, params):
    function = getattr(importlib.import_module(module_name), function_name, None)
    assert callable(function), f"{module_name}.{function_name} is gone"
    missing = set(params) - set(inspect.signature(function).parameters)
    assert not missing, f"{module_name}.{function_name} lost the traced parameters {sorted(missing)}"


def test_traced_check_ids_are_in_the_catalogue():
    from glsreg.verify import CHECKS

    assert set(TRACING_MODULE.CHECK_IDS) <= set(CHECKS)

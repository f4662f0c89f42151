"""Names that code outside the package reaches by string must resolve.

perfbench/tracer.py wraps package functions named in its REPORTED table
and _DELIMITERS list; a name deleted or renamed in the package would
only show as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(dotted: str):
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hyptile.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_traced_names_resolve():
    tracer = _tracer()
    names = list(tracer.REPORTED) + list(tracer._DELIMITERS)
    assert names
    for name in names:
        assert callable(_resolve(name)), name


@pytest.mark.parametrize("module", ["hull", "ktheory", "render"])
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"hyptile.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"

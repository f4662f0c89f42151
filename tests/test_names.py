"""Names that code outside the package reaches by string must resolve.

perfbench/tracer.py wraps package functions named in its REPORTED table
and _DELIMITERS list; a name deleted or renamed in the package would
only show as a crash of a traced benchmark run.  The package itself
reads no environment variable, so no hidden knob changes its results.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_package_reads_no_environment():
    names = {"environ", "environb", "getenv", "getenvb"}
    sources = sorted((ROOT / "src" / "hyptile").glob("**/*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in names, f"{path.name}: {node.attr}"
            elif isinstance(node, ast.ImportFrom):
                used = {a.name for a in node.names} & names
                assert not used, f"{path.name}: {used}"

"""Names that code outside the package reaches by string must resolve.

perfbench/tracer.py wraps package functions named in its REPORTED table
and _DELIMITERS list; a name deleted or renamed in the package would
only show as a crash of a traced benchmark run.  The package itself
reads no environment variable, so no hidden knob changes its results;
it imports no sympy, which only the tests use as an oracle; it keeps
no unused top-level import; and every private helper is used somewhere
in the package.  Every function of tests/oracles.py is used by a test
module, and no test module defines a name that tests/oracles.py defines.

Every public top-level function and class of a package module is
reached from an entry point: a name that cli.py,
perfbench/pipelines.py, the tracer's REPORTED and _DELIMITERS, or a
backticked span or Python block of README.md names, followed through
the code (not the docstrings) of the package definitions it names.  A
name that only the tests call belongs in tests/oracles.py or nowhere.
"""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyptile"
TRACER = ROOT / "perfbench" / "tracer.py"
TESTS = ROOT / "tests"


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


def _trees(paths):
    assert paths
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


def _package_trees():
    return _trees(sorted(PACKAGE.glob("**/*.py")))


def test_package_reads_no_environment():
    names = {"environ", "environb", "getenv", "getenvb"}
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in names, f"{path.name}: {node.attr}"
            elif isinstance(node, ast.ImportFrom):
                used = {a.name for a in node.names} & names
                assert not used, f"{path.name}: {used}"


def test_package_imports_no_sympy():
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "sympy", \
                    f"{path.name}:{node.lineno}: {module}"


def test_ktheory_takes_no_smith_form():
    # the groups are read off a spanning forest of the Rauzy graph;
    # intmat keeps its Smith form for the benchmark's tracer alone
    tree = dict(_package_trees())[PACKAGE / "ktheory.py"]
    names = {a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set(_references(tree))
    for name in ("smith_normal_form", "smith_diagonal", "snf_rank",
                 "solve_integer", "integer_kernel"):
        assert name not in names | used, name


def test_no_unused_top_level_imports():
    for path, tree in _package_trees():
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for a in node.names:
                    bound[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:  # names re-exported through __all__
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used |= {e.value for e in node.value.elts}
        unused = sorted(set(bound) - used, key=bound.get)
        assert not unused, f"{path.name}: unused imports {unused}"


def _private_defs(tree):
    """Top-level functions and classes, and their methods, named _x."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node] + inner:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)) \
                    and d.name.startswith("_") \
                    and not d.name.startswith("__"):
                yield d


def _references(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_dead_private_helpers():
    trees = _package_trees()
    used = Counter()
    for _, tree in trees:
        used += _references(tree)
    for path, tree in trees:
        for d in _private_defs(tree):
            # a use inside its own body (recursion) keeps nothing alive
            outside = used[d.name] - _references(d)[d.name]
            assert outside > 0, f"{path.name}:{d.lineno}: {d.name} is unused"


def _top_level_names(tree) -> set:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def _test_modules():
    return _trees(sorted(TESTS.glob("test_*.py")))


def _oracles():
    return _trees([TESTS / "oracles.py"])[0][1]


def test_every_oracle_is_used():
    used = Counter()
    for _, tree in _test_modules():
        used += _references(tree)
    for node in _oracles().body:
        if isinstance(node, ast.FunctionDef):
            assert used[node.name], \
                f"oracles.py:{node.lineno}: {node.name} is used by no test"


def test_no_test_module_redefines_an_oracle():
    shared = _top_level_names(_oracles())
    for path, tree in _test_modules():
        again = sorted(_top_level_names(tree) & shared)
        assert not again, f"{path.name} defines {again} again"


# No entry point calls these until ROADMAP item 11 gives the aperiodicity
# verdict a caller or deletes it.
UNREACHED_UNTIL_ITEM_11 = {"check_minimal_aperiodic", "constant_length"}

# Exported in their module's __all__, but only the tests and acceptance
# criteria call them: the shift operator, the one-letter refinements,
# function equality and the constant 1 that the coinvariant tests build
# classes from, and the tile outline the render tests check.  They stay
# as library API; an entry point that starts to call one takes it off
# this list.
CALLED_ONLY_BY_TESTS = {"constant_one", "apply_shift", "refine_left",
                        "refine_right", "cf_equal", "tile_path"}


def _readme_names() -> set:
    """Every name in a backticked span of README.md or its Python blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set()
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        names |= set(_references(ast.parse(block)))
    for dotted in re.findall(r"`([A-Za-z_][\w.]*)[`(]", text):
        names |= set(dotted.split("."))
    return names


def _entry_names() -> set:
    """Names that cli.py, perfbench's pipelines and its tracer table name."""
    names = _readme_names()
    for path in (PACKAGE / "cli.py", ROOT / "perfbench" / "pipelines.py"):
        names |= set(_references(_trees([path])[0][1]))
    tracer = _tracer()
    for dotted in list(tracer.REPORTED) + list(tracer._DELIMITERS):
        names |= set(dotted.split(".")[1:])
    return names


def _reached(trees) -> set:
    """The entry names, closed under the names each reached top-level
    definition (def, class or assignment) refers to in its code; other
    top-level statements run at import, so they count as reached."""
    defs, reached = {}, _entry_names()
    for _, tree in trees:
        for node in tree.body:
            bound = _top_level_names(ast.Module(body=[node], type_ignores=[]))
            for name in bound:
                defs.setdefault(name, []).append(node)
            docstring = isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant)
            if not bound and not docstring and not isinstance(
                    node, (ast.Import, ast.ImportFrom)):
                reached |= set(_references(node))
    todo = list(reached)
    while todo:
        for node in defs.get(todo.pop(), []):
            new = set(_references(node)) - reached
            reached |= new
            todo.extend(new)
    return reached


def test_every_public_name_is_reached():
    trees = _package_trees()
    reached = _reached(trees)
    listed = UNREACHED_UNTIL_ITEM_11 | CALLED_ONLY_BY_TESTS
    unreached = set()
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in reached:
                unreached.add(node.name)
                assert node.name in listed, \
                    f"{path.name}:{node.lineno}: {node.name} is reached " \
                    "by no entry point"
    # a listed name that an entry point now reaches leaves the list
    assert unreached == listed

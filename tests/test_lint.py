"""Source checks that the test run itself can enforce."""

import ast
import importlib
import importlib.util
import pathlib
import re

import graphlhv

SOURCES = sorted(pathlib.Path(graphlhv.__file__).parent.glob("*.py"))
_REPO = pathlib.Path(__file__).resolve().parents[1]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "chain_protocol.py", "nogo.py"}


def test_no_assert_statements_in_the_library():
    # `python -O` strips assert statements, so invariants must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports_outside_functions(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _imports_outside_functions(child)


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return node.level == 0 and (node.module or "").split(".")[0] == "numpy"


def test_numpy_is_imported_only_inside_functions():
    # Only the state vector and the seeded samplers need numpy; importing it
    # at module level would make every command pay its start-up cost.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in _imports_outside_functions(ast.parse(path.read_text(), filename=str(path)))
        if _imports_numpy(node)
    ]
    assert found == []


_PROCESS_CACHES = {"cache", "lru_cache"}


def _uses_process_cache(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name in _PROCESS_CACHES for a in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _PROCESS_CACHES
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_no_process_wide_caches_in_the_library():
    # A memo that outlives its call would let repeated commands in one process
    # (library users, benchmark passes) share warm state; per-call dicts only.
    assert _uses_process_cache(ast.parse("from functools import lru_cache").body[0])
    assert _uses_process_cache(ast.parse("functools.cache").body[0].value)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _uses_process_cache(node)
    ]
    assert found == []


def _bench_tracer():
    path = _REPO / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # The benchmark's traced run wraps these names; one that is renamed or
    # removed would leave its layer silently untraced.
    missing = []
    for modname, attr, _ in _bench_tracer().LAYERS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _setattr_names(node):
    """(line, name) of every ``object.__setattr__(obj, name, value)`` call in node,
    the name None when it is not a string literal."""
    for call in ast.walk(node):
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__setattr__"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "object"
        ):
            arg = call.args[1] if len(call.args) > 1 else None
            name = arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else None
            yield call.lineno, name


def _hidden_attributes(tree):
    """(line, name) of each ``object.__setattr__`` call that writes a name which
    is not an annotated field of its innermost class (outside a class, none is)."""
    owner = {}
    for cls in ast.walk(tree):  # outer classes come first, so inner ones overwrite
        if isinstance(cls, ast.ClassDef):
            fields = {
                stmt.target.id for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
            for line, _ in _setattr_names(cls):
                owner[line] = fields
    return [(line, name) for line, name in _setattr_names(tree) if name not in owner.get(line, ())]


def test_frozen_classes_set_only_their_own_fields():
    # State written past a frozen dataclass's fields is invisible to ==, repr,
    # dataclasses.replace and the report encoder; derive it where it is used.
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "        object.__setattr__(self, '_cache', 2)\n"
        "    class B:\n"
        "        y: int\n"
        "        def f(self):\n"
        "            object.__setattr__(self, 'y', 1)\n"
        "            object.__setattr__(self, 'x', 1)\n"
        "object.__setattr__(A(0), 'x', 3)\n"
    )
    assert sorted(_hidden_attributes(tree)) == [(7, "_cache"), (12, "x"), (13, "x")]
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _hidden_attributes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function or class
    and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _named(tree):
    """(line, name) of every name and attribute read or written in the code;
    imports alone do not count, so a re-export is no use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def _defined(tree):
    """Names of every function and class the code defines, at any depth."""
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    # The package holds what the command line, the demos, the README tour and
    # the benchmark reach; a reference only tests use lives in tests/reference.py.
    # A demo or benchmark file's use of a name it defines itself calls its own
    # function, not the package's.
    outside = {attr.rsplit(".", 1)[-1] for _, attr, _ in _bench_tracer().LAYERS}
    for path in [*(_REPO / "demos").glob("*.py"), *(_REPO / "bench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        own = _defined(tree)
        outside.update(name for _, name in _named(tree) if name not in own)
    readme = (_REPO / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        outside.update(name for _, name in _named(ast.parse(block)))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    in_src = [(path, line, name) for path, tree in trees.items() for line, name in _named(tree)]
    unused = [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if node.name not in outside
        and not any(
            name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in in_src
        )
    ]
    assert unused == []

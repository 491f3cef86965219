"""Source checks that the test run itself can enforce."""

import ast
import importlib
import importlib.util
import pathlib

import graphlhv

SOURCES = sorted(pathlib.Path(graphlhv.__file__).parent.glob("*.py"))


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
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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

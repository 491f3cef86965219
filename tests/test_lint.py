"""Source checks that the test run itself can enforce."""

import ast
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

"""Source checks that the test run itself can enforce."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

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


def _package_imports_at_load(tree):
    """(line, name) of each graphlhv module, or name of the package, that the
    code's own imports load when it is imported: outside functions, and outside
    ``if TYPE_CHECKING:`` blocks, which never run."""
    typing_only = {
        id(node) for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name)
        and block.test.id == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    for node in _imports_outside_functions(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:  # `from .x import y` loads x; `from . import y` loads y
            base = f"graphlhv.{node.module}" if node.level and node.module else node.module or "graphlhv"
            paths = [f"{base}.{alias.name}" for alias in node.names] if base == "graphlhv" else [base]
        for path in paths:
            if path.startswith("graphlhv."):
                yield node.lineno, path.split(".")[1]


def test_package_and_cli_import_no_module_eagerly():
    # `import graphlhv, graphlhv.cli` should cost only what a command uses: the
    # package resolves its exports on first access, and each command handler
    # imports the modules it runs. Measurement (pauli) and __version__ stay.
    tree = ast.parse(
        "import json\n"
        "import graphlhv.nogo\n"
        "from . import __version__, lhv\n"
        "from .oracle import classify\n"
        "from graphlhv.pauli import Measurement\n"
        "from graphlhv import graphs as g\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .graphs import Graph\n"
        "def handler():\n"
        "    from .chain_protocol import decompose\n"
    )
    assert list(_package_imports_at_load(tree)) == [
        (2, "nogo"), (3, "__version__"), (3, "lhv"), (4, "oracle"), (5, "pauli"), (6, "graphs")]
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES if path.name in ("__init__.py", "cli.py")
        for line, name in _package_imports_at_load(ast.parse(path.read_text(), filename=str(path)))
        if name not in ("__version__", "pauli")
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


_RE_MATCHERS = {"finditer", "match", "fullmatch", "search", "sub", "split", "findall"}


def _literal_pattern_calls(tree):
    """Lines of ``re.<matcher>("literal", ...)`` calls: each one looks its
    pattern up in re's cache on every call."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RE_MATCHERS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def test_regular_expressions_are_compiled_once():
    # A pattern is a module constant built by re.compile, like _WORD; the
    # compiled pattern's own methods skip the cache lookup.
    tree = ast.parse(
        "import re\n"
        "_RUN = re.compile('X+')\n"
        "def f(s, p):\n"
        "    re.finditer('X+', s)\n"
        "    _RUN.finditer(s)\n"
        "    re.sub(p, '', s)\n"
        "    return re.fullmatch(r'Y+', s)\n"
    )
    assert _literal_pattern_calls(tree) == [4, 7]
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _literal_pattern_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _is_bit_test(node):
    """``mask >> i & 1``, in either operand order."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.RShift)
                for side in (node.left, node.right))
        and any(isinstance(side, ast.Constant) and side.value == 1
                for side in (node.left, node.right))
    )


def _bit_test_filters(tree):
    """Lines of comprehensions that filter on a shift-and-mask bit test."""
    return sorted({
        comp.lineno for comp in ast.walk(tree)
        if isinstance(comp, _COMPREHENSIONS)
        and any(_is_bit_test(node) for gen in comp.generators for cond in gen.ifs
                for node in ast.walk(cond))
    })


def test_set_bits_are_listed_by_the_shared_lister():
    # A comprehension that tests every bit position costs one big-int shift per
    # position, set or not; graphs._bit_indices and graphs._sites list the set
    # bits in C.
    tree = ast.parse(
        "a = [i for i in range(9) if m >> i & 1]\n"
        "b = {j for j in s if (m >> (j - 1)) & 1 and j}\n"
        "c = (i for i in r if 1 & x >> i)\n"
        "d = [m >> i & 1 for i in range(9)]\n"
        "e = [i for i in r if m & 1 << i]\n"
    )
    assert _bit_test_filters(tree) == [1, 2, 3]
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _bit_test_filters(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _bit_test_elements(tree):
    """Lines of comprehensions whose element holds a shift-and-mask bit test."""
    return sorted({
        comp.lineno for comp in ast.walk(tree)
        if isinstance(comp, _COMPREHENSIONS)
        and any(_is_bit_test(node)
                for part in ((comp.key, comp.value) if isinstance(comp, ast.DictComp) else (comp.elt,))
                for node in ast.walk(part))
    })


def test_masks_become_letters_only_through_the_decoder():
    # A comprehension that reads a bit per position in its element builds a
    # word one letter at a time; pauli._letters turns x and z masks into
    # letters with a few C-level string operations.
    tree = ast.parse(
        "a = [i for i in range(9) if m >> i & 1]\n"
        "b = [m >> i & 1 for i in range(9)]\n"
        "c = ''.join(ch if s >> i & 1 else 'I' for i, ch in enumerate(w))\n"
        "d = {i: 1 & x >> i for i in r}\n"
        "e = ''.join('IXZY'[(x >> j & 1) | (z >> j & 1) << 1] for j in range(n))\n"
        "f = [m & 1 << i for i in r]\n"
    )
    assert _bit_test_elements(tree) == [2, 3, 4, 5]
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _bit_test_elements(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _equation_calls(tree, prefix=""):
    """(enclosing function path, line) of each ``Equation(...)`` call."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _equation_calls(node, f"{prefix}.{node.name}")
            continue
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "Equation"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Equation"
        ):
            found.append((prefix, node.lineno))
        found += _equation_calls(node, prefix)
    return found


def test_equations_are_built_by_the_one_flip_system_builder():
    # Both certifiers key their variables through nogo._flip_system; a second
    # loop that builds equations would be a copy of it.
    tree = ast.parse(
        "e = Equation(1, 1)\n"
        "def f(rows):\n"
        "    def g():\n"
        "        return nogo.Equation(0, -1)\n"
        "    return [Equation(r, 1) for r in rows]\n"
        "class C:\n"
        "    def m(self):\n"
        "        return Equation(0, 1, 'x')\n"
    )
    assert _equation_calls(tree) == [("", 1), (".f.g", 4), (".f", 5), (".C.m", 8)]
    found = {
        f"{path.stem}{owner}"
        for path in SOURCES
        for owner, _ in _equation_calls(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == {"nogo._flip_system"}


def _json_writers(tree):
    """(top-level definition, line) of each json.dump or json.dumps call, the
    definition "" at module level; a writer imported from json counts too."""
    writers = {"dump", "dumps"}
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "json"
             for alias in node.names if alias.name in writers}
    found = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", "")
        for node in ast.walk(stmt):
            func = getattr(node, "func", None)
            if (isinstance(func, ast.Attribute) and func.attr in writers
                    and isinstance(func.value, ast.Name) and func.value.id == "json"
                    or isinstance(func, ast.Name) and func.id in names):
                found.append((owner, node.lineno))
    return found


def test_reports_have_one_writer():
    # Every report goes through cli._emit, which splices pre-encoded text into
    # the encoder's output; a second json.dumps would be a second writer.
    tree = ast.parse(
        "import json\n"
        "from json import dumps as d\n"
        "x = json.dumps(1)\n"
        "def _emit(v):\n"
        "    def enc(w):\n"
        "        return json.dumps(w)\n"
        "    return enc(v)\n"
        "def other(v, fh):\n"
        "    json.dump(v, fh)\n"
        "    return d(v), json.loads('1')\n"
        "class C:\n"
        "    def m(self):\n"
        "        return json.dumps(self)\n"
    )
    assert _json_writers(tree) == [("", 3), ("_emit", 6), ("other", 9), ("other", 10), ("C", 13)]
    cli = next(path for path in SOURCES if path.name == "cli.py")
    found = {owner for owner, _ in _json_writers(ast.parse(cli.read_text(), filename=str(cli)))}
    assert found == {"_emit"}


def _json_forms_with_options(tree):
    """(line, parameters) of each ``to_json_dict`` that takes more than ``self``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json_dict":
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
            if params != ["self"]:
                yield node.lineno, params


def test_each_value_has_one_json_form():
    # A switch on a value's JSON form gives the report encoder, which calls
    # to_json_dict() bare, a second form that no report writes.
    tree = ast.parse(
        "class A:\n"
        "    def to_json_dict(self):\n"
        "        return {}\n"
        "class B:\n"
        "    def to_json_dict(self, variables=True):\n"
        "        return {}\n"
        "    async def to_json_dict(self, *, full, **kw):\n"
        "        return {}\n"
        "def to_json_dict(*args):\n"
        "    return {}\n"
    )
    assert sorted(_json_forms_with_options(tree)) == [
        (5, ["self", "variables"]), (7, ["self", "full", "kw"]), (9, ["args"])
    ]
    found = [
        f"{path.name}:{line} {params}"
        for path in SOURCES
        for line, params in _json_forms_with_options(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


_GF2_INTERNALS = {"_eliminate", "_basis_signs", "_kernel_signs", "_monomial_columns"}


def _names_used(tree, wanted):
    """(line, name) of each name, attribute or imported name in ``wanted``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name in wanted)


def test_chain_checker_leaves_elimination_to_nogo():
    # The chain checker takes every kernel from nogo._word_kernels; naming the
    # GF(2) internals would make two modules know how columns are formed and
    # eliminated.
    tree = ast.parse(
        "from .nogo import _eliminate as e, _walk_kernel\n"
        "import lhv._monomial_columns\n"
        "x = nogo._kernel_signs(g, w, c)\n"
        "def f():\n"
        "    return _basis_signs\n"
    )
    assert sorted(_names_used(tree, _GF2_INTERNALS)) == [
        (1, "_eliminate"), (2, "_monomial_columns"), (3, "_kernel_signs"), (5, "_basis_signs")
    ]
    path = next(path for path in SOURCES if path.name == "chain_protocol.py")
    assert list(_names_used(ast.parse(path.read_text(), filename=str(path)), _GF2_INTERNALS)) == []


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


def _module_instances(tree):
    """(line, name) of each module-level name bound to a value that calls a
    class of the same module, directly or through one of its attributes."""
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for call in ast.walk(stmt.value):
            func = getattr(call, "func", None)
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name) and func.id in classes:
                yield from ((stmt.lineno, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name))
                break


# The flip-rule tables, which the commands' `--rules` option selects by name.
_INSTANCES_ALLOWED = {"STANDARD_RULES", "SYMMETRIC_RULES", "NO_COMMUNICATION"}


def test_no_module_keeps_instances_of_its_own_classes():
    # A shared instance built at import is a second path beside the
    # constructor (interned values, cached singletons); values are built
    # where they are used, apart from the rule tables.
    tree = ast.parse(
        "import re\n"
        "class A:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "P = re.compile('a')\n"
        "ONE = A()\n"
        "two, (three, four) = A.make(), (1, 2)\n"
        "table: dict = {1: [A()]}\n"
        "size: int\n"
        "B = A\n"
    )
    assert list(_module_instances(tree)) == [
        (7, "ONE"), (8, "two"), (8, "three"), (8, "four"), (9, "table")
    ]
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _module_instances(ast.parse(path.read_text(), filename=str(path)))
        if name not in _INSTANCES_ALLOWED
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


_REACH_PROBE = r'''
import contextlib, importlib, inspect, io, json, pathlib, re, runpy, sys

root, graph_file = pathlib.Path(sys.argv[1]), sys.argv[2]
entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)

import graphlhv  # under the hook, so code that runs only at import counts
from graphlhv import cli

pathlib.Path(graph_file).write_text('{"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}')
COMMANDS = [
    ["oracle", "--graph", "ring:5", "--measurement", "XXXXX"],
    ["oracle", "--graph", "chain:4", "--measurement", "XYZI"],
    ["oracle", "--graph", "star:4", "--measurement", "XZZZ"],
    ["oracle", "--graph", "padded-ring:13", "--measurement", "X" * 13],
    ["oracle", "--graph", "complete-bipartite:2x3", "--measurement", "YYXXX"],
    ["oracle", "--graph", graph_file, "--measurement", "XXXX"],
    ["lhv", "run", "--graph", "grid:2x3", "--measurement", "YYYYYY"],
    ["lhv", "run", "--graph", "grid:2x3", "--measurement", "YYYYYY", "--subset", "1,2,3,5"],
    ["lhv", "run", "--graph", "ring:6", "--measurement", "XYZXYZ", "--samples", "100"],
    ["verify-sub", "--graph", "grid:2x3", "--measurement", "YYYYYY"],
    ["nogo", "ring", "--f", "1"],
    ["nogo", "ring", "--f", "1", "--d", "0"],
    ["nogo", "site-invariance", "--graph", "grid:2x3", "--measurement", "YYYYYY"],
    ["chain", "verify", "--n", "4"],
    ["chain", "verify", "--n", "9", "--sample", "5", "--broadcast-y"],
    ["chain", "decompose", "--measurement", "YXYIYYZZXZ"],
    ["chain", "decompose", "--measurement", "XZX"],
    ["reproduce", "fig1"],
    ["reproduce", "fig2"],
    ["oracle", "--graph", "ring:5", "--measurement", "XXXX"],  # the one usage error
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for demo in sorted((root / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    readme = (root / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M):
        exec(block, {})
    exits = [cli.main(argv) for argv in COMMANDS]
sys.setprofile(None)


def codes(owner, module):
    """(qualified name, code) of each function defined in module's own file."""
    for value in vars(owner).values():
        if isinstance(value, property):
            funcs = [value.fget, value.fset, value.fdel]
        elif isinstance(value, (staticmethod, classmethod)):
            funcs = [value.__func__]
        else:
            funcs = [value]
        for func in funcs:
            code = getattr(func, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                yield func.__qualname__, code


unreached = []
for path in sorted(pathlib.Path(graphlhv.__file__).parent.glob("*.py")):
    if path.stem == "__main__":
        continue
    module = importlib.import_module("graphlhv" if path.stem == "__init__" else f"graphlhv.{path.stem}")
    defs = dict(codes(module, module))
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            defs.update(codes(cls, module))
    unreached += [f"{path.stem}.{name}" for name, code in defs.items() if code not in entered]
print(json.dumps({"exits": exits, "unreached": sorted(unreached)}))
'''

# Defined but never entered by the demos, the README tour or the commands
# above, each with its reason.
_UNREACHED_ALLOWED = {
    # only bench/tracer.py's layers reach these; they move out of the package
    # with the benchmark change of ROADMAP direction 1
    "graphs.ball",
    "nogo.measurement_view",
    # typing stubs: the protocol's body is never run
    "lhv.FlipProtocol.name",
    "lhv.FlipProtocol.flip_sites",
}


def test_every_function_is_reached_by_the_demos_readme_and_commands(tmp_path):
    # A function that no demo, README block or command enters is dead code or
    # an alias that only tests reach; the package keeps one path per job.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _REACH_PROBE, str(_REPO), str(tmp_path / "square.json")],
        capture_output=True, text=True, cwd=_REPO, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["exits"] == [0] * (len(probe["exits"]) - 1) + [2]
    # both ways, so that a name which moves or gets a caller leaves the list
    assert sorted(set(probe["unreached"]) ^ _UNREACHED_ALLOWED) == []

"""Every name a module of the package or of the tests imports is used in
that module, every top-level definition is exported or used by live code of
the package, and nothing outside the package keeps an import of it alive
once `sys.modules` forgets it."""

import ast
import gc
import importlib
import pathlib
import sys
import weakref

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "fsub"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A name listed in `__all__` is used: the package re-exports it.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(item.value for item in node.value.elts)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from typing import Callable, Optional\nimport os.path\nfrom re import escape\n\n"
        "x: Optional[int] = os.sep\n__all__ = ['escape']\n"
    )
    assert unused_imports(source) == ["Callable (line 1)"]



def dead_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the modules (module name to
    source) that live code does not reach.  Live code is every top-level
    statement that is not a definition, the names listed in `__all__`, and
    the definitions that live code names (as a name or an attribute, in any
    module), found to a fixpoint: a definition that only dead ones name is
    dead too, and so is a cycle of them."""
    defs: dict[str, list[tuple[str, set[str]]]] = {}
    live_names: list[str] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            nodes = [n for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))]
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((module, named))
                continue
            live_names += named
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                live_names += [item.value for item in stmt.value.elts]
    live: set[str] = set()
    while live_names:
        name = live_names.pop()
        if name not in live:
            live.add(name)
            for _, named in defs.get(name, ()):
                live_names += named
    return sorted(f"{module}.{name}" for name, found in defs.items() if name not in live for module, _ in found)


def test_no_dead_definition():
    assert dead_definitions({path.stem: path.read_text() for path in PACKAGE.glob("*.py")}) == []


def test_a_dead_definition_is_found():
    sources = {
        "a": (
            "__all__ = ['api']\n\ndef api():\n    return _helper()\n\ndef _helper():\n    return 1\n\n"
            "def _dead():\n    return _reached_from_dead()\n\ndef _reached_from_dead():\n    return _dead()\n\n"
            "class _Unused:\n    def method(self):\n        return _Unused\n"
        ),
        "b": "import a\n\nSHARED = a._shared\n",
        "c": "def _shared():\n    return 2\n",
    }
    assert dead_definitions(sources) == ["a._Unused", "a._dead", "a._reached_from_dead"]


# One class per module of the package, by module.
CLASSES = {
    "syntax": "Ty",
    "judgments": "Env",
    "subtyper": "Derivation",
    "parser": "Printer",
    "metatheory": "EnvSplit",
    "gen": "GenConfig",
}


def forget_the_package():
    for name in [m for m in sys.modules if m == "fsub" or m.startswith("fsub.")]:
        del sys.modules[name]


def test_a_fresh_import_frees_the_old_one():
    # A process-wide cache outside the package (as `typing.Union[...]`'s is)
    # that holds one of its classes keeps every module of that import alive,
    # with its intern tables and scope table, for good.
    saved = {m: module for m, module in sys.modules.items() if m == "fsub" or m.startswith("fsub.")}
    try:
        forget_the_package()
        importlib.import_module("fsub")
        first = {module: weakref.ref(getattr(sys.modules[f"fsub.{module}"], cls)) for module, cls in CLASSES.items()}
        for _ in range(2):
            forget_the_package()
            importlib.import_module("fsub")
        gc.collect()
        assert [module for module, ref in first.items() if ref() is not None] == []
    finally:
        forget_the_package()
        sys.modules.update(saved)

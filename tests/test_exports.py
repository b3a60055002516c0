"""Tests of the package's public names."""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sepscope

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "sepscope"


def test_every_export_resolves_once():
    assert len(sepscope.__all__) == len(set(sepscope.__all__))
    missing = [name for name in sepscope.__all__ if not hasattr(sepscope, name)]
    assert missing == []


def test_star_import_in_fresh_interpreter():
    # A fresh process, so that no name another test imported can stand in.
    code = ("from sepscope import *\n"
            "import sepscope\n"
            "missing = [n for n in sepscope.__all__ if n not in globals()]\n"
            "assert missing == [], missing\n"
            "print(len(sepscope.__all__))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(sepscope.__all__)}\n"


def test_vec_is_one_object_under_its_three_names():
    import sepscope.gptops
    import sepscope.matlin

    assert sepscope.vec is sepscope.matlin.vec is sepscope.gptops.vec


def test_col_transposition_is_vec_byte_for_byte():
    a = np.arange(6).reshape(2, 3) * (0.5 - 1.25j) + 0.75j
    got, want = sepscope.col_transposition(a), sepscope.vec(a)
    assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.complex128, (6, 1))
    assert got.tobytes() == want.tobytes()


def _package_target(node: ast.ImportFrom | ast.Import) -> list[str]:
    """The package modules an import statement in src/sepscope names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = (PACKAGE.name + (f".{node.module}" if node.module else "") if node.level
                else node.module or "")
        names = [f"{base}.{alias.name}" for alias in node.names]
    return [name.split(".")[1] for name in names if name.startswith(f"{PACKAGE.name}.")]


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imports(node: ast.AST, in_function: bool = False):
    """(package module imported, whether inside a function body) for each
    import under node, skipping if TYPE_CHECKING: blocks."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking(child):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from ((target, in_function) for target in _package_target(child))
        yield from _imports(child, in_function
                            or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _package_imports() -> dict[str, list[tuple[str, bool]]]:
    """Each module of the package: _imports of its source."""
    return {path.stem: list(_imports(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_import_walker_on_a_sample():
    source = ("from .a import x\nimport sepscope.b, numpy\nfrom sepscope.c.d import y\n"
              "from numpy import linalg\nif TYPE_CHECKING:\n    from .e import z\n"
              "class K:\n    def f(self):\n        from . import g, h\n"
              "def f():\n    from sepscope import i\n")
    assert list(_imports(ast.parse(source))) == [
        ("a", False), ("b", False), ("c", False), ("g", True), ("h", True), ("i", True)]


def test_package_import_graph_is_acyclic():
    # errors, then gptops, matlin, criteria and states, sweep, cli.
    graph = {module: {target for target, _ in found}
             for module, found in _package_imports().items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert graph["errors"] == set() and graph["gptops"] == {"errors"}
    assert graph["matlin"] == {"errors", "gptops"}


def test_no_function_body_imports_from_the_package():
    inside = [f"{module} -> {target}" for module, found in _package_imports().items()
              for target, in_function in found if in_function]
    assert inside == []

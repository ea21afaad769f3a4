"""Every private module-level name in the package is used somewhere.

A private (underscore-prefixed, non-dunder) function, class or constant
that nothing references is dead code, typically a helper left behind when
its only caller was deleted.
"""
import ast
import re
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "galaxia"


def _private_definitions(tree):
    """(name, first line, last line) of each private module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno]
                    + [dec.lineno for dec in getattr(node, "decorator_list", [])])
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, first, node.end_lineno


def test_every_private_name_is_referenced():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(SOURCE.glob("*.py"))}
    orphans = []
    checked = 0
    for path, text in sources.items():
        lines = text.splitlines()
        for name, first, last in _private_definitions(ast.parse(text)):
            checked += 1
            word = re.compile(rf"\b{re.escape(name)}\b")
            total = sum(len(word.findall(t)) for t in sources.values())
            own = sum(len(word.findall(line)) for line in lines[first - 1:last])
            if total == own:
                orphans.append(f"{path.name}:{first} {name}")
    assert checked > 0
    assert orphans == []


def _unused_imports(tree):
    """(line, name) of each module-level import that the module never
    reads; `from __future__` imports bind no name and are skipped."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_every_module_level_import_is_used():
    # __init__.py imports in order to re-export
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == []

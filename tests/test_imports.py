"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import edds

SRC = Path(edds.__file__).parent
# Re-exported for the benchmark's tracer, which shims the name where it is imported.
ALLOWED = {("verify.py", "hessian_block")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ are exported, so used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_no_unused_imports():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, name) not in ALLOWED
    ]
    assert unused == []

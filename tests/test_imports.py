"""Every name a package module imports is used in that module, the
package's ``__all__`` names each of its exports once, and the modules import
one another only along the pinned graph."""

import ast
from pathlib import Path

import edds

SRC = Path(edds.__file__).parent
# Re-exported for the benchmark's tracer, which shims the name where it is imported.
ALLOWED = {("order.py", "solve_fixed_order")}


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


def test_modules_import_one_another_along_the_pinned_graph():
    # each module imports only what sits below it: the probes need the models,
    # not the solver
    graph = {
        path.stem: sorted(
            node.module
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        )
        for path in SRC.glob("*.py")
        if path.stem != "__init__"
    }
    assert graph == {
        "model": [],
        "csolve": ["model"],
        "order": ["csolve", "model"],
        "discrete": ["model"],
        "verify": ["discrete", "model"],
        "cli": ["csolve", "discrete", "model", "order", "verify"],
    }


def test_all_names_each_export_once():
    # a stale entry would pass test_no_unused_imports, and the benchmark's
    # tracer skips a missing name
    assert [name for name in edds.__all__ if not hasattr(edds, name)] == []
    assert len(set(edds.__all__)) == len(edds.__all__)

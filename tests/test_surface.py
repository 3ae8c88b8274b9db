"""Every public name of the package is used by the package or the benchmark.

A name in a module's ``__all__`` must be reachable from code that runs:
the module-level statements of ``src/nmds`` (the CLI entry point among
them) or any code in ``perfbench/*.py``, which looks the layers up by name.
A reference inside a top-level definition counts once that definition is
reachable itself, so functions that only call each other are unused.  The
tests do not count: a name that only the tests call is dead surface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nmds").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _reads(node: ast.AST) -> set[str]:
    """Identifiers, attribute names and string constants read under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _assigned(stmt: ast.stmt) -> list[str]:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _public(path: Path) -> list[str]:
    for stmt in ast.parse(path.read_text()).body:
        if "__all__" in _assigned(stmt):
            return ast.literal_eval(stmt.value)
    return []


def _live() -> set[str]:
    """Names reachable from module-level code of the package and from the benchmark."""
    defs: dict[str, set[str]] = {}
    live = set().union(*(_reads(ast.parse(path.read_text())) for path in BENCHMARK))
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, set()).update(_reads(stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _assigned(stmt):
                if "__all__" not in _assigned(stmt):
                    for name in _assigned(stmt):
                        defs.setdefault(name, set()).update(_reads(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                live |= _reads(stmt)
    todo = list(live)
    while todo:
        for name in defs.get(todo.pop(), set()) - live:
            live.add(name)
            todo.append(name)
    return live


@pytest.mark.parametrize(
    "path", [path for path in PACKAGE if _public(path)], ids=lambda path: path.stem
)
def test_every_public_name_is_used(path):
    live = _live()
    assert [name for name in _public(path) if name not in live] == []

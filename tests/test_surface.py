"""Every public name and member of the package is used by the package or the
benchmark, the package root re-exports only ``classify``, and the package
runs without numpy.

A name in a module's ``__all__`` must be reachable from code that runs:
the module-level statements of ``src/nmds`` (the CLI entry point among
them) or any code in ``perfbench/*.py``, which looks the layers up by name.
A reference inside a top-level definition counts once that definition is
reachable itself, so functions that only call each other are unused.  The
tests do not count: a name that only the tests call is dead surface.

Each annotated field, property and public method of a class in ``src/nmds``
must be read as an attribute (``x.name``) somewhere in ``src/nmds`` or
``perfbench/*.py``.  The match is by name alone, so a member is dead only
when no object's attribute of that name is ever read; reads off the CLI's
argparse namespace ``args`` do not count.

The package root binds its submodules and nothing else but ``classify``.

Every record the pipeline returns is an immutable value: no field can be
assigned, and a rebuild from its own fields equals it.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nmds.classify import check_min_weight_pairing, classify
from nmds.codes import weight_distribution
from nmds.constructions import CONSTRUCTIONS, expected_profile, verify_construction

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


def _attribute_reads() -> set[str]:
    """Attribute names loaded anywhere in the package or the benchmark, except
    reads off ``args``, the CLI's argparse namespace: ``args.id`` says nothing
    about a member named ``id``."""
    return {
        node.attr
        for path in PACKAGE + BENCHMARK
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }


def _members(path: Path) -> list[str]:
    """``Class.member`` for each annotated field, property and public method."""
    out = []
    for cls in ast.parse(path.read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                out.append(f"{cls.name}.{stmt.target.id}")
            elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                out.append(f"{cls.name}.{stmt.name}")  # a method or a property
    return out


@pytest.mark.parametrize(
    "path", [path for path in PACKAGE if _members(path)], ids=lambda path: path.stem
)
def test_every_member_is_read(path):
    reads = _attribute_reads()
    assert [name for name in _members(path) if name.split(".")[1] not in reads] == []


def _run_script(lines: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_package_root_binds_only_submodules():
    """``nmds.<name>`` is the submodule of that name; the one exception,
    ``classify``, is the function the benchmark's self-test pins."""
    result = _run_script([
        "import sys, types",
        "import nmds, nmds.cli",
        "extra = sorted(name for name, value in vars(nmds).items() if not name.startswith('_')",
        "               and not (isinstance(value, types.ModuleType)",
        "                        and value.__name__ == f'nmds.{name}'))",
        "if extra != ['classify']:",
        "    sys.exit(f'package root binds {extra}')",
    ])
    assert result.returncode == 0, result.stderr


def test_package_and_cli_never_import_numpy():
    """numpy is a test dependency: importing it would cost most of the start-up
    of a CLI call, so ``nmds`` and ``nmds verify|repair`` must run without it.
    Nor do they import ``dataclasses`` (through ``inspect``, ``ast`` and
    ``tokenize``) or ``csv``, which only the csv report format reads."""
    result = _run_script([
        "import contextlib, io, sys",
        "import nmds, nmds.cli",
        "from nmds.cli import main, run_verification",
        "report, failures = run_verification('c', 3)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    status = main(['repair', '--id', 'c', '--m', '3', '--erase', '0'])",
        "if failures or status:",
        "    sys.exit(f'verify failed {failures}, repair exited {status}')",
        "loaded = [name for name in ('numpy', 'dataclasses', 'csv') if name in sys.modules]",
        "if loaded:",
        "    sys.exit(f'imported {loaded}')",
    ])
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def records(ctx8, codes8):
    """One record of each type, as the pipeline returns it for c at m = 3."""
    code = codes8["c"]
    report = verify_construction("c", ctx8, code)
    found = [
        classify(code), check_min_weight_pairing(code), weight_distribution(code),
        CONSTRUCTIONS["c"], expected_profile("c", ctx8.q), report,
        report.locality[0], report.bounds[0],
    ]
    return {type(record).__name__: record for record in found}


@pytest.mark.parametrize("name", [
    "CodeClass", "PairingReport", "WeightDistribution", "Construction",
    "ExpectedProfile", "VerificationReport", "LocalityReport", "OptimalityReport",
])
def test_records_are_immutable_values(records, name):
    record = records[name]
    fields = list(inspect.signature(type(record)).parameters)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert type(record)(**{field: getattr(record, field) for field in fields}) == record

"""Mutation sweep of ``src/nmds``: which small changes to the package does
the tier-1 suite fail to notice?

Three probes, each over every function body of every module, in a fixed
order (module, then position in the source):

* operators: ``^`` to ``|``, ``+`` and ``-`` swapped, ``<`` and ``<=``
  swapped, ``>`` and ``>=`` swapped, ``*`` to ``+``, ``//`` to ``*`` (also
  in augmented assignments), and an integer constant 0..3 raised by one;
* branches: the test of each ``if``, conditional expression and
  comprehension filter forced to True and to False.  An ``if`` whose body
  is one ``raise`` is only forced to False: it is the check itself, and
  turning it off must fail a test;
* statements: each statement replaced by ``pass`` (a compound statement
  with its whole body, a docstring never).

Each mutant runs the tier-1 suite with ``-x`` in a temporary copy of the
repository, two mutants at a time, with a cap of 45 s per run.  A mutant is
killed when the suite fails and survives when the suite passes.  One that
hits the cap runs again alone once both lanes are done, with a cap of 90 s,
so that the load of the other lane does not decide it: it is hung only if
it hits that cap too.  The survivors and the hung mutants are printed, one
per line, with the counts per probe.  The standard library is all it needs
beyond the test dependencies; a full sweep takes 34 to 47 minutes on two
cores.

    python3 tools/mutation_sweep.py
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nmds"
WORKERS = 2
CAP_S = 45
RETRY_CAP_S = 90  # a capped mutant's second run, alone
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--continue-on-collection-errors", "--hypothesis-seed=0",
]

BINOPS = {
    ast.BitXor: ("^", "|"), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "+"), ast.FloorDiv: ("//", "*"),
}
CMPOPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


@dataclass(frozen=True)
class Mutant:
    probe: str
    path: Path
    start: int  # byte offsets of the replaced span in the file
    end: int
    text: str  # what replaces the span
    line: int
    what: str
    original: bytes = field(repr=False)  # the module as parsed

    def source(self) -> bytes:
        return self.original[: self.start] + self.text.encode() + self.original[self.end :]


class Module:
    """A module's source with byte offsets for ast positions and its tokens."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data = path.read_bytes()
        self.tree = ast.parse(self.data)
        self.lines = self.data.decode().splitlines(keepends=True)
        self.line_starts = [0]
        for line in self.lines:
            self.line_starts.append(self.line_starts[-1] + len(line.encode()))
        self.ops = [
            (self.char_offset(*tok.start), self.char_offset(*tok.end), tok.string)
            for tok in tokenize.tokenize(io.BytesIO(self.data).readline)
            if tok.type == tokenize.OP
        ]

    def offset(self, line: int, col: int) -> int:
        """File offset of an ast position, whose column counts bytes."""
        return self.line_starts[line - 1] + col

    def char_offset(self, line: int, col: int) -> int:
        """File offset of a token position, whose column counts characters."""
        return self.line_starts[line - 1] + len(self.lines[line - 1][:col].encode())

    def span(self, node: ast.AST) -> tuple[int, int]:
        end = self.offset(node.end_lineno, node.end_col_offset)
        decorators = getattr(node, "decorator_list", [])
        if decorators:  # from the "@" before the first decorator's expression
            return self.offset(decorators[0].lineno, decorators[0].col_offset) - 1, end
        return self.offset(node.lineno, node.col_offset), end

    def op_between(self, left: ast.AST, right: ast.AST, symbol: str) -> tuple[int, int]:
        lo, hi = self.span(left)[1], self.span(right)[0]
        for s, e, t in self.ops:
            if lo <= s and e <= hi and t == symbol:
                return s, e
        s = self.data.index(symbol.encode(), lo, hi)  # in an f-string, one token in all
        return s, s + len(symbol)

    def mutant(self, probe, start, end, text, node, what) -> Mutant:
        return Mutant(probe, self.path, start, end, text, node.lineno, what, self.data)


def function_nodes(tree: ast.Module):
    """Every node inside a function body once, by function and then by
    position in the source."""
    seen: set[int] = set()
    for fn in sorted(
        (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
        key=lambda n: (n.lineno, n.col_offset),
    ):
        nodes = [n for stmt in fn.body for n in ast.walk(stmt) if id(n) not in seen]
        seen.update(map(id, nodes))
        # A stable sort keeps ast.walk's order among nodes at one position.
        yield from sorted(nodes, key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))


def is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(getattr(stmt.value, "value", None), str)


def operator_mutants(mod: Module):
    for node in function_nodes(mod.tree):
        if isinstance(node, ast.BinOp) and type(node.op) in BINOPS:
            old, new = BINOPS[type(node.op)]
            s, e = mod.op_between(node.left, node.right, old)
            yield mod.mutant("operators", s, e, new, node, f"{old} -> {new}")
        elif isinstance(node, ast.AugAssign) and type(node.op) in BINOPS:
            old, new = BINOPS[type(node.op)]
            s, e = mod.op_between(node.target, node.value, old + "=")
            yield mod.mutant("operators", s, e, new + "=", node, f"{old}= -> {new}=")
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in CMPOPS:
                    old, new = CMPOPS[type(op)]
                    s, e = mod.op_between(left, right, old)
                    yield mod.mutant("operators", s, e, new, node, f"{old} -> {new}")
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and 0 <= node.value <= 3
        ):
            s, e = mod.span(node)
            text = mod.data[s:e].decode()
            if ast.literal_eval(text) != node.value:
                raise AssertionError(f"{mod.path}:{node.lineno}: no literal {node.value} at its span")
            yield mod.mutant("operators", s, e, str(node.value + 1), node, f"{text} -> {node.value + 1}")


def branch_mutants(mod: Module):
    for node in function_nodes(mod.tree):
        if isinstance(node, ast.If):
            raises = len(node.body) == 1 and isinstance(node.body[0], ast.Raise) and not node.orelse
            tests = [node.test]
        elif isinstance(node, ast.IfExp):
            raises, tests = False, [node.test]
        elif isinstance(node, ast.comprehension):
            raises, tests = False, node.ifs
        else:
            continue
        for test in tests:
            s, e = mod.span(test)
            for value in ("False",) if raises else ("True", "False"):
                what = f"{'if ...: raise' if raises else type(node).__name__} test -> {value}"
                yield mod.mutant("branches", s, e, f"({value})", test, what)


def statement_mutants(mod: Module):
    for node in function_nodes(mod.tree):
        if isinstance(node, ast.stmt) and not is_docstring(node):
            s, e = mod.span(node)
            yield mod.mutant("statements", s, e, "pass", node, f"{type(node).__name__} -> pass")


def all_mutants() -> list[Mutant]:
    modules = [Module(p) for p in sorted(PACKAGE.glob("*.py"))]
    out = []
    for probe in (operator_mutants, branch_mutants, statement_mutants):
        for mod in modules:
            out.extend(probe(mod))
    return out


def run_suite(copy: Path, cap_s: int = CAP_S) -> str:
    """Tier-1 in a copy of the repository: "passed", "failed" or "hung"."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # A session of its own, so a hung run is stopped with every process it started.
    proc = subprocess.Popen(
        PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "passed" if proc.wait(timeout=cap_s) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung"
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)


def run_mutant(copy: Path, mutant: Mutant, cap_s: int = CAP_S) -> str:
    """The mutant's outcome: "killed", "hung" or "survived"."""
    target = copy / mutant.path.relative_to(ROOT)
    target.write_bytes(mutant.source())
    try:
        return {"passed": "survived", "failed": "killed", "hung": "hung"}[run_suite(copy, cap_s)]
    finally:
        target.write_bytes(mutant.original)


def main() -> int:
    mutants = all_mutants()
    ignore = shutil.ignore_patterns("__pycache__", ".git", ".hypothesis", ".pytest_cache", "out")
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        copies = []
        for w in range(WORKERS):
            copy = Path(tmp) / f"w{w}"
            for part in ("src", "tests", "perfbench"):
                shutil.copytree(ROOT / part, copy / part, ignore=ignore)
            shutil.copy(ROOT / "pyproject.toml", copy)
            copies.append(copy)
        if run_suite(copies[0]) != "passed":
            print("the suite does not pass on the unmutated tree", file=sys.stderr)
            return 1

        def lane(w: int) -> dict[int, str]:
            """Mutants w, w + WORKERS, ... one after another in copy w."""
            out = {}
            for i in range(w, len(mutants), WORKERS):
                m = mutants[i]
                out[i] = run_mutant(copies[w], m)
                print(f"[{i + 1}/{len(mutants)}] {out[i]} {m.probe} {m.path.name}:{m.line} "
                      f"{m.what}", file=sys.stderr, flush=True)
            return out

        outcomes: dict[int, str] = {}
        with ThreadPoolExecutor(WORKERS) as pool:
            for part in pool.map(lane, range(WORKERS)):
                outcomes.update(part)
        for i in [i for i, r in outcomes.items() if r == "hung"]:
            m = mutants[i]
            outcomes[i] = run_mutant(copies[0], m, RETRY_CAP_S)
            print(f"[{i + 1}/{len(mutants)}] alone: {outcomes[i]} {m.probe} "
                  f"{m.path.name}:{m.line} {m.what}", file=sys.stderr, flush=True)
        results = [outcomes[i] for i in range(len(mutants))]

    for probe in ("operators", "branches", "statements"):
        picked = [(m, r) for m, r in zip(mutants, results) if m.probe == probe]
        counts = {r: sum(1 for _, x in picked if x == r) for r in ("killed", "hung", "survived")}
        print(f"{probe}: {len(picked)} mutants, " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    for m, r in zip(mutants, results):
        if r != "killed":
            print(f"{r.upper()} {m.probe} {m.path.relative_to(ROOT)}:{m.line} {m.what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

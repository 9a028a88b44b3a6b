"""List the statements of `src/canxlnet` that no tier-1 test executes.

    python scripts/unexecuted_lines.py [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: `-q -p no:cacheprovider
tests`) under a `sys.settrace` line tracer that is installed before
`canxlnet` is imported, so import-time statements count too.  A statement
counts as executed when any line it spans ran; a compound statement
(`if`, `for`, `try`, `def`, ...) also when any line of its body ran.
Docstrings and `global`/`nonlocal` declarations compile to no code of
their own and are left out.  Code run in child processes (the CLI tests
that start `canxlnet` as a program) is not traced.

Writes a Markdown list per module to stdout and pytest's own output to
stderr.  Uses the standard library only besides pytest itself.  Exits 0
when every test passes and every statement ran, and 1 when a test fails
or any statement is listed: each statement that must stay has a test
that runs it, so a listed one is new code no test reaches or code
nothing can reach.  Tracing slows the run, so a test with a time limit
may fail under it.
"""

from __future__ import annotations

import ast
import contextlib
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "canxlnet"
PREFIX = str(PACKAGE) + "/"


def statement_spans(source: str) -> list[tuple[int, int, int]]:
    """(first line, last line, line shown) of each statement that compiles
    to code, in line order.  A decorated definition starts at its first
    decorator."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):  # a docstring
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        spans.append((first, node.end_lineno, node.lineno))
    return sorted(spans)


def unexecuted(executed: dict[str, set[int]]) -> dict[str, list[tuple[int, str]]]:
    """module path -> [(line, source text)] of the statements none of whose
    lines is in `executed[path]`."""
    result = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        missed = [(shown, lines[shown - 1].strip())
                  for first, last, shown in statement_spans(source)
                  if ran.isdisjoint(range(first, last + 1))]
        if missed:
            result[str(path.relative_to(ROOT))] = missed
    return result


def main(argv: list[str]) -> int:
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imports no canxlnet module

    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = unexecuted(executed)
    total = sum(map(len, missed.values()))
    print(f"### Statements of src/canxlnet no test executes: {total}\n")
    for module, entries in missed.items():
        print(f"- `{module}` ({len(entries)})")
        for line, text in entries:
            print(f"  - {line}: `{text}`")
    return 1 if status or total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

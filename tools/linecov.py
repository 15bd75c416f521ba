"""Print every statement of the package that no Tier-1 test executes.

Runs the Tier-1 suite (`tests/`, less the markers that pyproject.toml
deselects) in this process under `sys.settrace`, from collection on, so
that module-level code counts too.  Then it prints each statement in
`src/rainbowcube` whose lines no test reached, as `module.py:line  source`,
and their number.  A statement is a simple statement or the header of a
compound one (its decorators and the lines before its body), and only one
that compiles to code.  Run from anywhere, with no options:

    python tools/linecov.py

CPython unsets a tracer that raises, as this one does with RecursionError
where a test exhausts the stack.  Hypothesis, which traces while no other
tracer is set, then sets its own and unsets it.  So the tracer is
installed again before each test.  Known false reports:

- The rest of a test whose tracer was unset runs untraced, so
  `verify.py:222` and `cli.py:163` stay listed though the stack-exhaustion
  tests reach them.
- Lines that a test runs in a subprocess are not counted.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rainbowcube"

executed: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}


def tracer(frame, event, arg):
    """The global tracer: a local one for the package's frames only."""
    lines = executed.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    lines.add(frame.f_lineno)
    return local


class Retrace:
    """Installs the tracer again before each test."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(tracer)


def code_lines(code) -> set[int]:
    """The lines that a code object and those nested in it have code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, path: str):
    """(first line, lines) of each statement: a compound statement's lines
    are its header's, up to its first body statement."""
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, set(range(first, max(first, last) + 1))  # `if x: y` has its body on its first line


def report() -> None:
    """Print each statement of the package that the tracer saw no line of
    run, and their number."""
    missed = 0
    for path in sorted(executed):
        source = Path(path).read_text()
        has_code = code_lines(compile(source, path, "exec"))
        text = source.splitlines()
        for first, lines in sorted(statements(source, path)):
            if lines & has_code and not lines & executed[path]:
                print(f"{Path(path).name}:{first}  {text[first - 1].strip()}")
                missed += 1
    print(f"{missed} statements not executed")


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Retrace()])
    finally:
        sys.settrace(None)
    report()
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

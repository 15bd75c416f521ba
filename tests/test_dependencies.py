"""The package has no runtime dependencies: it imports only the standard
library and itself, and declares no dependency to install."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rainbowcube"


def absolute_imports(path: Path):
    """(line, top-level module) for each absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_the_standard_library_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    seen = set()
    for path in modules:
        for line, name in absolute_imports(path):
            where = f"{path.relative_to(PACKAGE)}:{line}: {name}"
            assert name in sys.stdlib_module_names or name == "rainbowcube", where
            seen.add(name)
    # the parse sees the imports the package is known to make
    assert {"__future__", "argparse", "bisect", "itertools", "typing"} <= seen


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_importing_the_package_loads_no_dataclasses():
    # -S: no site hooks, whose own imports would hide the package's
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rainbowcube; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # only fuzz --jobs runs a process pool, and cmd_fuzz imports it then
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rainbowcube.cli; "
            "print(sorted({'concurrent.futures', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

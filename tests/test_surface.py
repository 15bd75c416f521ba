"""`rainbowcube.__all__` is the package's public surface: exactly what
``from rainbowcube import *`` binds, every name that README's example, the
demos and the CLI import from the package's top level, and nothing that has
neither such a caller nor a mention in README's library section."""

import ast
import re
from pathlib import Path

import rainbowcube

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rainbowcube"
LIBRARY = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]


def top_level_imports(source: str) -> set[str]:
    """Names imported from the package itself, absolutely or (in the CLI)
    relatively, leaving out its submodules."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("rainbowcube", 0), (None, 1))
        for alias in node.names
        if not (PACKAGE / f"{alias.name}.py").exists()
    }


def callers() -> set[str]:
    (example,) = re.findall(r"^```python\n(.*?)^```", LIBRARY, re.M | re.S)
    sources = [example, (PACKAGE / "cli.py").read_text()]
    sources += [script.read_text() for script in sorted((ROOT / "demos").glob("*.py"))]
    return set().union(*map(top_level_imports, sources))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rainbowcube import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rainbowcube.__all__)
    assert len(set(rainbowcube.__all__)) == len(rainbowcube.__all__)


def test_every_name_a_caller_imports_is_public():
    assert callers() <= set(rainbowcube.__all__)


def test_every_public_name_has_a_caller_or_is_documented():
    named = set(re.findall(r"`(\w+)`", LIBRARY))
    assert [name for name in rainbowcube.__all__ if name not in callers() | named] == []

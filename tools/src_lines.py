"""Print the physical and code line counts of the package's modules.

A code line holds a token that is not a comment, a line break or
indentation, outside every module, class and function docstring; a token
that spans lines, such as a long string, makes each of its lines a code
line.  Run from anywhere, with no options:

    python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowcube"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def main() -> None:
    physical = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        p, c = counts(path.read_text())
        print(f"{path.name:16} {p:6,} {c:6,}")
        physical, code = physical + p, code + c
    print(f"{'total':16} {physical:6,} {code:6,}")


if __name__ == "__main__":
    main()

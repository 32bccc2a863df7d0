"""Count the lines of each src/orderlab module, raw and as code.

Code lines leave out docstrings, comments and blank lines: a line counts
when a token other than a comment or a line break touches it, and it is
not inside the docstring of the module, a class or a function.

    python3 tools/src_lines.py [SRC_DIR]

prints one JSON object: the totals and, under "modules", each module's
counts.  SRC_DIR defaults to this checkout's src/orderlab.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    src = Path(argv[1]) if len(argv) > 1 else root / "src" / "orderlab"
    modules = {}
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        modules[path.name] = {"raw": len(source.splitlines()), "code": code_lines(source)}
    print(json.dumps({
        "raw": sum(m["raw"] for m in modules.values()),
        "code": sum(m["code"] for m in modules.values()),
        "modules": modules,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the code lines of each module of the fanocert package.

A code line is one that is not blank, not comment-only and not part of a
docstring (of a module, class or function).  Prints one count per module,
then the total.  Standard library only.

    python tools/code_lines.py
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER)
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fanocert"


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that carry code."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:8} {path.relative_to(ROOT).as_posix()}")
    print(f"{total:8} code lines in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

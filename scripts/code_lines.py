"""Count the code lines of Python files.

A code line holds a token other than a comment, a newline, an indent or a
dedent, and lies outside every module, class and function docstring.  For
each ``.py`` file under the paths given (files or directories, searched
recursively), the script prints the file's count, then the total:

    python3 scripts/code_lines.py src/bcc
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(path) -> int:
    """The number of code lines of one Python source file."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    if not argv:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        if not arg.exists():
            print(f"error: {arg}: no such file or directory", file=sys.stderr)
            return 2
        files += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in files:
        n = count_code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

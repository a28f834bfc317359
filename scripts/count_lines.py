"""Count the source lines of the covglm package.

Prints two numbers for ``src/covglm``: every line, as ``wc -l`` counts
them, and the logical lines, which leave out blank lines, comment-only
lines and the lines of module, class and function docstrings. Then the
logical lines of each module, one line each. Standard library only.

    python3 scripts/count_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "covglm"


def docstring_lines(tree):
    """Line numbers taken by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, logical lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skipped = docstring_lines(ast.parse(text))
    logical = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skipped and line.strip() and not line.strip().startswith("#")
    )
    return text.count("\n"), logical


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    modules = sorted(package.glob("*.py"))
    counts = list(map(count, modules))
    totals = [sum(column) for column in zip(*counts)]
    print(f"{totals[0]} lines (wc -l)")
    print(f"{totals[1]} logical lines (no blank, comment or docstring lines)")
    for module, (_, logical) in zip(modules, counts):
        print(f"{logical:5d}  {module.name}")


if __name__ == "__main__":
    main(sys.argv)

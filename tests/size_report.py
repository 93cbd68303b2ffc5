"""Print the size of the emlink package: the three numbers a simplicity change reports.

    python tests/size_report.py [path/to/src/emlink]

- non-blank lines over the package's modules;
- code lines: the non-blank lines outside docstrings (module, class and
  function docstrings, by their `ast` line spans) and outside lines that hold
  only a `#` comment;
- public names: the union of the modules' `__all__`;

and then each module's code lines, so a change can show where its lines went.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "emlink"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _public_names(tree: ast.Module) -> set[str]:
    """The string entries of the module's `__all__` assignment, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _counts(path: Path) -> tuple[int, int, set[str]]:
    """(non-blank lines, code lines, public names) of one module."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    non_blank = code = 0
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if text:
            non_blank += 1
            code += number not in docstrings and not text.startswith("#")
    return non_blank, code, _public_names(tree)


def module_sizes(package: Path = PACKAGE) -> dict[str, tuple[int, int, set[str]]]:
    """(non-blank lines, code lines, public names) of each module in `package`, by file name."""
    return {path.name: _counts(path) for path in sorted(package.glob("*.py"))}


def size_report(package: Path = PACKAGE) -> tuple[int, int, int]:
    """(non-blank lines, code lines, public names) of the modules in `package`."""
    sizes = module_sizes(package).values()
    return sum(s[0] for s in sizes), sum(s[1] for s in sizes), len(set().union(*(s[2] for s in sizes)))


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    non_blank, code, names = size_report(package)
    print(f"non-blank lines: {non_blank}")
    print(f"code lines:      {code}")
    print(f"__all__ names:   {names}")
    for name, (_, lines, _) in module_sizes(package).items():
        print(f"  {name:<15} {lines:>5} code lines")

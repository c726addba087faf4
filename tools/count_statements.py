"""Count the logical statements of each module in src/pellprime.

A logical statement is one ``ast.stmt`` node, at any depth; a docstring
(a string-constant expression opening a module, class or function body)
is not counted.  Prints one line per module and the total:

    python3 tools/count_statements.py [SRC_DIR]

SRC_DIR defaults to this repository's src/pellprime.  Given two
directories, it prints each module's count in both, before -> after, and
the totals (a module missing from one side counts 0 there):

    python3 tools/count_statements.py OLD_SRC NEW_SRC
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pellprime"


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring expressions in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first))
    return found


def count(path: Path) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = _docstrings(tree)
    return sum(isinstance(node, ast.stmt) and id(node) not in skip
               for node in ast.walk(tree))


def counts(src: Path) -> dict[str, int]:
    """Each module's count, by file name."""
    return {path.name: count(path) for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        old, new = counts(Path(argv[1])), counts(Path(argv[2]))
        for name in sorted(old.keys() | new.keys()):
            a, b = old.get(name, 0), new.get(name, 0)
            print(f"{name:16} {a:5} -> {b:5}")
        print(f"{'total':16} {sum(old.values()):5} -> {sum(new.values()):5}")
        return 0
    found = counts(Path(argv[1]) if len(argv) > 1 else SRC)
    for name, n in found.items():
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(found.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

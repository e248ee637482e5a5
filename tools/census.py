"""Print the size counts of `src/bundleforms` that design changes are judged by.

Per module, and in total:

- lines: physical lines of the file;
- defaults: function parameters that carry a default value, positional
  and keyword-only alike (read with `ast`; dataclass fields are not
  parameters and do not count);
- excepts: `except` handlers.

The tool reads the sources and writes nothing.

    python3 tools/census.py
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bundleforms"


def count(path: Path) -> tuple[int, int, int]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    defaults = excepts = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ExceptHandler):
            excepts += 1
    return len(text.splitlines()), defaults, excepts


def main() -> None:
    rows = [(path.name, *count(path)) for path in sorted(SRC.glob("*.py"))]
    print(f"{'module':16s} {'lines':>6s} {'defaults':>9s} {'excepts':>8s}")
    for name, lines, defaults, excepts in rows:
        print(f"{name:16s} {lines:6d} {defaults:9d} {excepts:8d}")
    totals = [sum(row[k] for row in rows) for k in (1, 2, 3)]
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:9d} {totals[2]:8d}")


if __name__ == "__main__":
    main()

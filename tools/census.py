"""Print the size counts of `src/bundleforms` that design changes are judged by.

Per module, and in total:

- lines: physical lines of the file;
- defaults: function parameters that carry a default value, positional
  and keyword-only alike (read with `ast`; dataclass fields are not
  parameters and do not count);
- excepts: `except` handlers.

Then it lists each defaulted parameter that no call in `src/`, `demos/`,
`perfbench/` or `tools/` sets: a knob only tests turn.  Calls resolve by
name, and over-approximate, so a listed parameter is surely unset:

- `f(...)` and `m.f(...)` reach every function named `f`, `C(...)` the
  `__init__` that a class named `C` defines or inherits, and `obj.m(...)`
  every method named `m`, past its `self` or `cls`;
- `super().m(...)` reaches `m` as the enclosing class's bases define or
  inherit it;
- `partial(f, ...)` is a call of `f`;
- a call sets the parameters it names, those its positional arguments
  reach, and every one past a `*args`, or any with a `**kwargs`.

The tool reads the sources and writes nothing.

    python3 tools/census.py
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bundleforms"
CALLERS = ("src", "demos", "perfbench", "tools")


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


class _Function:
    """One `def` of the package: its label, the positional parameters a
    call's arguments fill (past `self` or `cls` for a method), and its
    defaulted parameters that no call seen so far sets."""

    def __init__(self, label: str, node: ast.FunctionDef, method: bool):
        args = node.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        positional = [a.arg for a in args.posonlyargs + args.args]
        self.label = label
        self.positional = positional[1:] if method and not static else positional
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        self.unset = dict.fromkeys(defaulted)

    def called(self, call: ast.Call, args: list) -> None:
        if any(k.arg is None for k in call.keywords):        # **kwargs
            self.unset.clear()
            return
        for k in call.keywords:
            self.unset.pop(k.arg, None)
        for i, arg in enumerate(args):
            end = None if isinstance(arg, ast.Starred) else i + 1
            for name in self.positional[i:end]:
                self.unset.pop(name, None)


def _package_functions():
    """Every `_Function` of the package, name -> the `def`s of that name,
    and class name -> (base names, method name -> `_Function`)."""
    functions: list[_Function] = []
    by_name: dict[str, list[_Function]] = {}
    classes: dict[str, tuple[list[str], dict[str, _Function]]] = {}

    def visit(body, prefix: str, cls: ast.ClassDef | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
                classes.setdefault(node.name, (bases, {}))
                visit(node.body, f"{prefix}{node.name}.", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _Function(f"{prefix}{node.name}", node, cls is not None)
                functions.append(fn)
                by_name.setdefault(node.name, []).append(fn)
                if cls is not None:
                    classes[cls.name][1][node.name] = fn
                visit(node.body, f"{prefix}{node.name}.", None)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree.body, f"{path.stem}.", None)
    return functions, by_name, classes


def _lookup(classes, cls_name: str, method: str) -> list:
    """`method` as the class `cls_name` defines or inherits it, by name."""
    out, todo, seen = [], [cls_name], set()
    while todo:
        name = todo.pop(0)
        if name in seen or name not in classes:
            continue
        seen.add(name)
        bases, methods = classes[name]
        if method in methods:
            out.append(methods[method])
        else:
            todo.extend(bases)
    return out


def unset_defaults() -> list[str]:
    """`module.function(parameter)` for each defaulted parameter of the
    package that no call in the callers' sources sets."""
    functions, by_name, classes = _package_functions()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            _resolve_calls(tree, by_name, classes, None)
    return [f"{fn.label}({name})" for fn in functions for name in fn.unset]


def _resolve_calls(node, by_name, classes, cls_name) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _resolve_calls(child, by_name, classes, child.name)
            continue
        if isinstance(child, ast.Call):
            call, func, args = child, child.func, list(child.args)
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"):
                bases = classes.get(cls_name, ([], {}))[0]
                targets = [fn for b in bases for fn in _lookup(classes, b, func.attr)]
            elif isinstance(func, (ast.Name, ast.Attribute)):
                name = func.id if isinstance(func, ast.Name) else func.attr
                targets = by_name.get(name, []) + _lookup(classes, name, "__init__")
            else:
                targets = []
            for fn in targets:
                fn.called(call, args)
        _resolve_calls(child, by_name, classes, cls_name)


def main() -> None:
    rows = [(path.name, *count(path)) for path in sorted(SRC.glob("*.py"))]
    print(f"{'module':16s} {'lines':>6s} {'defaults':>9s} {'excepts':>8s}")
    for name, lines, defaults, excepts in rows:
        print(f"{name:16s} {lines:6d} {defaults:9d} {excepts:8d}")
    totals = [sum(row[k] for row in rows) for k in (1, 2, 3)]
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:9d} {totals[2]:8d}")
    unset = unset_defaults()
    print(f"\ndefaulted parameters no call in {', '.join(CALLERS)} sets: {len(unset)}")
    for label in unset:
        print(f"  {label}")


if __name__ == "__main__":
    main()

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
- where the source states the receiver's class, `obj.m(...)` reaches only
  `m` as that class defines or inherits it, or a subclass overrides it:
  for a class's own name, for `self` in a method, and for a name that
  every binding in its scope (a function body, or a module's top level)
  binds to a call of a package class or of functions of that name all
  annotated to return one package class; and `mod.f(...)`, with `mod` a
  package module imported by name, reaches that module's `f` alone;
- `super().m(...)` reaches `m` as the enclosing class's bases define or
  inherit it;
- `partial(f, ...)` is a call of `f`;
- a call sets the parameters it names, those its positional arguments
  reach, and every one past a `*args`, or any with a `**kwargs`.

Last it lists the method calls `obj.m(...)` whose receiver's class it
cannot resolve while several package functions are named `m`: the calls
that may hide a knob by setting a parameter of the same name elsewhere.

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
        self.returns: str | None = None     # the class its annotation names

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


def _returned_class(node: ast.FunctionDef) -> str | None:
    """The class name a `def`'s return annotation names, if it is one name."""
    ann = node.returns
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value if ann.value.isidentifier() else None
    return ann.id if isinstance(ann, ast.Name) else None


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
                fn.returns = _returned_class(node)
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


def _census_calls() -> tuple[list[str], list[str]]:
    """(`module.function(parameter)` for each defaulted parameter of the
    package that no call in the callers' sources sets, `path:line obj.m`
    for each call whose receiver is unresolved and whose name is
    ambiguous)."""
    functions, by_name, classes = _package_functions()
    unresolved: list[str] = []
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            rel = path.relative_to(ROOT)
            modules = {a.asname or a.name: a.name for node in tree.body
                       if isinstance(node, ast.ImportFrom)
                       and (node.level or node.module == SRC.name)
                       for a in node.names if (SRC / f"{a.name}.py").exists()}
            _resolve_calls(tree, _Scope(by_name, classes, modules, tree, None),
                           lambda call: unresolved.append(
                               f"{rel}:{call.lineno} {ast.unparse(call.func)}"))
    unset = [f"{fn.label}({name})" for fn in functions for name in fn.unset]
    return unset, unresolved


def unset_defaults() -> list[str]:
    """`module.function(parameter)` for each defaulted parameter of the
    package that no call in the callers' sources sets."""
    return _census_calls()[0]


def _bindings(body):
    """(name, node) for each name that `body` binds: arguments, stored
    names and nested `def`s and classes, whose bodies are not walked, nor
    those of lambdas."""
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.arg):
            yield node.arg, node
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))


class _Scope:
    """One function body or module top level: the package's functions and
    classes, the package modules its file imports by name, the enclosing
    class, and each local name's class where every binding of it states
    one (a call of a package class, or of functions all annotated to
    return one)."""

    def __init__(self, by_name, classes, modules, node, cls_name):
        self.by_name, self.classes, self.cls_name = by_name, classes, cls_name
        self.modules = modules
        assigned: dict[str, set] = {}
        body = node.body if isinstance(node, ast.Module) else [node.args, *node.body]
        values = {id(t): stmt.value for stmt in ast.walk(ast.Module(body, []))
                  if isinstance(stmt, ast.Assign) for t in stmt.targets}
        for name, bound in _bindings(body):
            assigned.setdefault(name, set()).add(self._class_of(values.get(id(bound))))
        self.local = {name: next(iter(found)) for name, found in assigned.items()
                      if len(found) == 1 and None not in found}

    def _class_of(self, value) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name in self.classes:
            return name
        returns = {fn.returns for fn in self.by_name.get(name, [])}
        found = returns.pop() if len(returns) == 1 else None
        return found if found in self.classes else None

    def receiver(self, value) -> str | None:
        if not isinstance(value, ast.Name):
            return None
        if value.id == "self" and self.cls_name is not None:
            return self.cls_name
        return self.local.get(value.id,
                              value.id if value.id in self.classes else None)

    def targets(self, func: ast.Attribute) -> list | None:
        """The `def`s a call of `obj.m` reaches, if the receiver is known."""
        cls_name = self.receiver(func.value)
        if cls_name is not None:
            return self.methods(cls_name, func.attr)
        module = (self.modules.get(func.value.id)
                  if isinstance(func.value, ast.Name) else None)
        if module is not None:
            return ([fn for fn in self.by_name.get(func.attr, [])
                     if fn.label == f"{module}.{func.attr}"]
                    + _lookup(self.classes, func.attr, "__init__"))
        return None

    def methods(self, cls_name: str, method: str) -> list:
        """`method` as `cls_name` defines or inherits it, or a subclass
        overrides it."""
        found = _lookup(self.classes, cls_name, method)
        for name, (bases, methods) in self.classes.items():
            if method in methods and cls_name in _ancestors(self.classes, name):
                found.append(methods[method])
        return found


def _ancestors(classes, cls_name: str) -> set:
    out, todo = set(), list(classes.get(cls_name, ([], {}))[0])
    while todo:
        name = todo.pop()
        if name not in out:
            out.add(name)
            todo.extend(classes.get(name, ([], {}))[0])
    return out


def _resolve_calls(node, scope: _Scope, unresolved) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            cls = isinstance(child, ast.ClassDef)
            _resolve_calls(child, _Scope(scope.by_name, scope.classes, scope.modules,
                                         ast.Module([], []) if cls else child,
                                         child.name if cls else scope.cls_name),
                           unresolved)
            continue
        if isinstance(child, ast.Call):
            call, func, args = child, child.func, list(child.args)
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"):
                bases = scope.classes.get(scope.cls_name, ([], {}))[0]
                targets = [fn for b in bases
                           for fn in _lookup(scope.classes, b, func.attr)]
            elif isinstance(func, ast.Attribute) and (
                    stated := scope.targets(func)) is not None:
                targets = stated
            elif isinstance(func, (ast.Name, ast.Attribute)):
                name = func.id if isinstance(func, ast.Name) else func.attr
                targets = (scope.by_name.get(name, [])
                           + _lookup(scope.classes, name, "__init__"))
                if isinstance(func, ast.Attribute) and len(targets) > 1:
                    unresolved(call)
            else:
                targets = []
            for fn in targets:
                fn.called(call, args)
        _resolve_calls(child, scope, unresolved)


def main() -> None:
    rows = [(path.name, *count(path)) for path in sorted(SRC.glob("*.py"))]
    print(f"{'module':16s} {'lines':>6s} {'defaults':>9s} {'excepts':>8s}")
    for name, lines, defaults, excepts in rows:
        print(f"{name:16s} {lines:6d} {defaults:9d} {excepts:8d}")
    totals = [sum(row[k] for row in rows) for k in (1, 2, 3)]
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:9d} {totals[2]:8d}")
    unset, unresolved = _census_calls()
    print(f"\ndefaulted parameters no call in {', '.join(CALLERS)} sets: {len(unset)}")
    for label in unset:
        print(f"  {label}")
    print(f"\nmethod calls of an ambiguous name on an unresolved receiver: "
          f"{len(unresolved)}")
    for label in unresolved:
        print(f"  {label}")


if __name__ == "__main__":
    main()

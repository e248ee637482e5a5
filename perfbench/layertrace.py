"""Per-layer spans recorded from outside the library.

`LayerTracer.installed()` wraps the public entry points of each bundleforms
layer in every `bundleforms.*` namespace that binds them (``check_isomorphism``
is bound in ``bundles``, ``forms``, ``homotopy`` and ``cli``, for example), so
calls made through any import path are seen.  Each wrapper is one span: it
adds its duration to the enclosing span's child time and its own self time
(duration minus wrapped child spans) to its metric.  The library is not
modified; the originals are restored when the context exits.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

# (module, public name) -> metric prefix.  Module-level functions are
# patched by identity in every namespace that binds them; "Class.method"
# names are patched on the class.
LAYER_FUNCTIONS = {
    ("specfile", "parse_spec"): "specfile.parse_spec",
    ("semialg", "sample"): "semialg.sample",
    ("semialg", "SemialgebraicSet.membership"): "semialg.membership",
    ("expr", "evaluate"): "expr.eval",
    ("matexpr", "em_eval"): "expr.eval",
    ("unity", "partition_of_unity"): "unity.partition_of_unity",
    ("unity", "shrink_cover"): "unity.shrink_cover",
    ("unity", "separating_function"): "unity.separating_function",
    ("bundles", "gauss_embedding"): "bundles.gauss_embedding",
    ("bundles", "generating_sections"): "bundles.generating_sections",
    ("bundles", "validate_cocycle"): "bundles.validate_cocycle",
    ("bundles", "check_isomorphism"): "bundles.check_isomorphism",
    ("bundles", "s1_line_class"): "bundles.s1_line_class",
    ("bundles", "pullback"): "bundles.pullback",
    ("forms", "signature"): "forms.signature",
    ("forms", "gram_schmidt_frame"): "forms.gram_schmidt_frame",
    ("forms", "decompose"): "forms.decompose",
    ("forms", "check_isometry"): "forms.check_isometry",
    ("forms", "isometry_same_bundle"): "forms.isometry_same_bundle",
    ("forms", "validate_form"): "forms.validate_form",
    ("homotopy", "homotopy_isomorphism"): "homotopy.homotopy_isomorphism",
    ("homotopy", "homotopy_isometry"): "homotopy.homotopy_isometry",
    ("homotopy", "trivialize_contractible"): "homotopy.trivialize_contractible",
    ("homotopy", "induced_iso_from_homotopy"): "homotopy.induced_iso_from_homotopy",
    ("rings", "witt_class"): "rings.witt_class",
    ("rings", "delta"): "rings.delta",
    ("rings", "nabla"): "rings.nabla",
    ("rings", "roundtrip_k0"): "rings.roundtrip_k0",
    ("rings", "roundtrip_witt"): "rings.roundtrip_witt",
    ("rings", "witt_is_zero"): "rings.witt_is_zero",
}

# MatrixGroup op tags -> metric names ("+" and "-" are not allowed there).
MATRIX_OPS = {
    "solve": "solve", "inv": "inv", "colproj": "colproj", "chol": "chol",
    "pencil+": "pencil_pos", "pencil-": "pencil_neg", "pencilsqrt": "pencilsqrt",
}

TIMED = sorted(set(LAYER_FUNCTIONS.values()) - {"expr.eval"})
ROWS = ["expr.eval"] + [f"matrixgroup.{n}" for n in MATRIX_OPS.values()]


def metric_names() -> list[str]:
    """Every per-layer metric one traced operation reports."""
    names = []
    for prefix in TIMED:
        names += [f"{prefix}.s", f"{prefix}.calls"]
        if prefix == "semialg.sample":
            names += ["semialg.sample.points", "semialg.sample.fill",
                      "semialg.sample.short"]
    for prefix in ROWS:
        names += [f"{prefix}.s", f"{prefix}.calls", f"{prefix}.rows"]
    return names


class LayerTracer:
    """Self time, call counts and row counts per layer for one operation."""

    def __init__(self):
        self._child = [0.0]   # child-span time of each open span
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        self.sample_requested = 0
        self.sample_returned = 0
        self.sample_short = 0

    def snapshot(self) -> dict:
        """Metric values recorded since the last reset."""
        out = {}
        for prefix in TIMED + ROWS:
            out[f"{prefix}.s"] = self.self_s[prefix]
            out[f"{prefix}.calls"] = self.calls[prefix]
            if prefix in ROWS:
                out[f"{prefix}.rows"] = self.rows[prefix]
        out["semialg.sample.points"] = self.sample_returned
        out["semialg.sample.fill"] = (self.sample_returned / self.sample_requested
                                      if self.sample_requested else 0.0)
        out["semialg.sample.short"] = self.sample_short
        return out

    def _span(self, fn, key, count=True, rows_of=None, after=None):
        child, self_s, calls, rows = self._child, self.self_s, self.calls, self.rows

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                inner = child.pop()
                child[-1] += dur
                self_s[key] += dur - inner
            if count:
                calls[key] += 1
                if rows_of is not None:
                    rows[key] += rows_of(args)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _after_sample(self, signature):
        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            count = bound.arguments.get("count")
            requested = bound.arguments["plan"].n_chart if count is None else count
            returned = int(result[0].shape[0])
            self.sample_requested += requested
            self.sample_returned += returned
            self.sample_short += returned < requested
        return after

    def _compute_wrapper(self, compute):
        """MatrixGroup.compute: a span per op tag, on cache misses only."""
        spans = {op: self._span(compute, f"matrixgroup.{name}",
                                rows_of=lambda a: a[1].points.shape[0])
                 for op, name in MATRIX_OPS.items()}

        def wrapper(group, ctx):
            if id(group) in ctx.group_cache:
                return compute(group, ctx)
            return spans[group.op](group, ctx)

        wrapper.__wrapped__ = compute
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point; restore the originals on exit."""
        import bundleforms.cli  # noqa: F401  (loads every submodule)
        from bundleforms import expr
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "bundleforms"
                                            or n.startswith("bundleforms."))]
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for (mod_name, name), key in LAYER_FUNCTIONS.items():
            module = sys.modules[f"bundleforms.{mod_name}"]
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                patch(cls, meth, self._span(cls.__dict__[meth], key))
                continue
            original = getattr(module, name)
            after = (self._after_sample(inspect.signature(original))
                     if key == "semialg.sample" else None)
            rows_of = (lambda a: len(a[1])) if key == "expr.eval" else None
            wrapped = self._span(original, key, rows_of=rows_of, after=after)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        patch(ns, attr, wrapped)
        # Operand evaluation inside MatrixGroup.compute is expression
        # evaluation: its time goes to expr.eval, not to the kernel, but it
        # is not a call into the public evaluator.
        patch(expr, "_eval_matrix",
              self._span(expr._eval_matrix, "expr.eval", count=False))
        patch(expr.MatrixGroup, "compute",
              self._compute_wrapper(expr.MatrixGroup.__dict__["compute"]))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def witness_dag_size(fields) -> tuple[int, int]:
    """(unique expression nodes, unique MatrixGroups) reachable from a
    MorphismField's per-chart matrices."""
    from bundleforms.expr import MatEntry
    seen, groups = set(), set()
    stack = [e for matrix in fields for row in matrix for e in row]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, MatEntry):
            groups.add(id(node.group))
        stack.extend(node.children())
    return len(seen), len(groups)

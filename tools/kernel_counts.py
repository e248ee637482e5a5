"""Print, per benchmark workload, the matrix kernel work of one operation.

For one operation of each workload (`perfbench/workloads.py`) at seed 0:

- `MatrixGroup` computations by op tag, with the rows they ran on: calls
  that neither the context's own cache nor a kernel memo served;
- the `MatrixGroup` computations among them that ran in a context without
  a kernel memo (one built on a bare point array, or a sub-context of
  one), with their rows, by the function that built the root context.
  The public evaluators (`evaluate`, `em_eval`, `membership`) build the
  contexts of their callers, so their caller is named instead;
- kernel memo traffic: lookups that found the (group, rows) output an
  earlier context computed (hits) and lookups that had to compute it
  (misses), with their rows;
- pencil eigensolves: the 2 x 2 pencil sign projectors' closed form
  (`expr._closed_pencil`), its calls and the rows its filter certified,
  and LAPACK's Cholesky-whitened eigensolve (`expr._whitened_eigh`) by
  operand size: at 2 x 2 the rows the filter left to LAPACK, at 1 x 1
  (already closed form, LAPACK's result bit for bit) the pencil
  projectors and square roots of rank-one bundles;
- pencil projector outputs served by the pair's twin: outputs that a twin
  group's computation stored (`expr.pencil_pair`) and a reader then read,
  so no eigensolve of their own ran;
- `PathProduct` computations (transports along a homotopy's t-ladder) with
  their base-point rows, and the kernel memo traffic on transports;
- point arrays a base evaluates again, requested and interned, by kind:
  cover regions (`Base.region_memo` through `Cover.region_memo`, one per
  cover, sorted indices and plan), base samples (`Base.sample_memo`),
  unity probes (the regions `unity` certifies disjointness and
  containment on), other probes (the refinement and slice probes) and the
  loop grid (`Base.grid_memo`).  "Interned" counts the requests that made
  a new array and memo; every other request read one an earlier request
  of any kind made;
- expression node evaluations by node kind, with their rows: the calls
  of a node's `_eval`, which no context cache served;
- structural duplicates: evaluations of a node in a context that had
  already evaluated another node object of equal structure.  Structure is
  the intern key (`expr._Interned`) with every child id replaced by the
  child's structure, so equal structures are found whether or not the
  table merged their objects; the count is 0 unless some node was built
  past the table;
- live intern table entries after the operation, its result still held.

The per-layer trace of the benchmark counts a memo hit as a kernel call,
since it sees only the context's own cache; these counts tell the two
apart.

The tool reads `perfbench/` and writes nothing.

    python3 tools/kernel_counts.py
"""

from __future__ import annotations

import sys
import weakref
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from bundleforms import expr as ex  # noqa: E402
from bundleforms.semialg import Base  # noqa: E402

SEED = 0
# the evaluators that build a context for their caller's points
EVALUATORS = {"evaluate", "evaluate_at", "em_eval", "SemialgebraicSet.membership"}
# the function that asks `Base.region_memo` for an array -> the array's kind
# (`Cover.region_memo`, `Base.sample_memo`); any function of `unity` asks for
# unity probes, and any other for other probes
KINDS = {"region_memo": "cover regions", "sample_memo": "base samples"}


def kind_of(frame) -> str:
    """The kind of point array the calling frame asks its base for."""
    if frame.f_globals.get("__name__") == "bundleforms.unity":
        return "unity probes"
    return KINDS.get(frame.f_code.co_name, "other probes")


def builder_of(frame) -> str:
    """The module and qualified name of the function of `frame`, or of the
    first caller outside the public evaluators."""
    while frame.f_code.co_qualname in EVALUATORS:
        frame = frame.f_back
    module = frame.f_globals.get("__name__", "?").removeprefix("bundleforms.")
    return f"{module}.{frame.f_code.co_qualname}"


def structure(obj, memo: dict, table: dict) -> int:
    """A number that structurally equal nodes, groups and path products
    share: the object's intern key, `(class, *obj._key())`, with each id of
    a direct sub-object (a node's children, an entry's group, a group's or
    path product's operands) replaced by that sub-object's number.  So the
    key's rules live in `expr.py` alone, and the number does not depend on
    the table having merged anything.  `memo` maps id(obj) to (obj, number)
    and keeps obj alive, so no id is reused while it holds the entry;
    `table` numbers the structures."""
    hit = memo.get(id(obj))
    if hit is not None:
        return hit[1]
    if isinstance(obj, ex.MatEntry):
        subs = (obj.group,)
    elif isinstance(obj, (ex.MatrixGroup, ex.PathProduct)):
        subs = obj.child_exprs()
    else:
        subs = obj.children()
    key = _numbered((type(obj), *obj._key()), {id(sub): sub for sub in subs},
                    memo, table)
    number = table.setdefault(key, len(table))
    memo[id(obj)] = (obj, number)
    return number


def _numbered(part, subs: dict, memo: dict, table: dict):
    """`part` of a key with each id in `subs` replaced by the structure of
    the sub-object it names; params are small ints (indices, exponents),
    never a live object's id."""
    if isinstance(part, tuple):
        return tuple(_numbered(p, subs, memo, table) for p in part)
    if type(part) is int and part in subs:
        return ("sub", structure(subs[part], memo, table))
    return part


def counted_operation(name: str) -> tuple[Counter, Counter]:
    """(calls, rows) per counter over one operation of the workload."""
    calls, rows = Counter(), Counter()
    node_eval = ex.Expr.eval
    # per context: its structure memo, and the first node evaluated there
    # with each structure
    seen, table = weakref.WeakKeyDictionary(), {}
    compute, kernel = ex.MatrixGroup.compute, ex.MatrixGroup._compute
    eigh, closed = ex._whitened_eigh, ex._closed_pencil
    lookup, transport = ex.PathProduct.compute, ex.PathProduct._compute
    region_memo, grid_memo = Base.region_memo, Base.grid_memo
    init, sub = ex.EvalContext.__init__, ex.EvalContext.sub
    interned, twins = {}, {}
    builders = weakref.WeakKeyDictionary()      # context -> builder_of name

    def tally(key, n):
        calls[key] += 1
        rows[key] += n

    def counted(lookup, memo_key):
        """The group lookup `lookup`, tallying memo traffic under `memo_key`
        and, for a MatrixGroup, the computations by op tag and the first
        read of each output a twin stored."""
        def counted_lookup(group, ctx):
            if id(group) not in ctx.group_cache:
                n = ctx.points.shape[0]
                memo = ctx.memo
                hit = memo is not None and ctx.path in memo.outputs.get(group, {})
                if memo is not None:
                    tally(f"{memo_key} hit" if hit else f"{memo_key} miss", n)
                if not hit and isinstance(group, ex.MatrixGroup):
                    tally(f"matrixgroup {group.op}", n)
                    if memo is None:
                        tally(f"memo-less {builders.get(ctx)}", n)
            out = lookup(group, ctx)
            if twins.get(id(out), (None, True))[1] is False:
                twins[id(out)] = (out, True)
                tally("pencil twin served", out.shape[0])
            return out
        return counted_lookup

    def counted_kernel(group, ctx):
        out = kernel(group, ctx)
        twin = group.twin and group.twin()
        if twin is not None:
            stored = ctx.group_cache[id(twin)]
            twins[id(stored)] = (stored, False)     # alive, so no id is reused
        return out

    def counted_eval(node, ctx):
        if node not in ctx.cache:
            n = ctx.points.shape[0]
            tally(f"node {type(node).__name__}", n)
            memo, first = seen.setdefault(ctx, ({}, {}))
            if first.setdefault(structure(node, memo, table), id(node)) != id(node):
                tally("structural duplicates", n)
        return node_eval(node, ctx)

    def counted_init(ctx, points):
        init(ctx, points)
        builders[ctx] = builder_of(sys._getframe(1))

    def counted_sub(ctx, gate_id, mask):
        child = sub(ctx, gate_id, mask)
        builders[child] = builders.get(ctx)
        return child

    def counted_transport(group, ctx):
        tally("pathproduct", ctx.points.shape[0])
        return transport(group, ctx)

    def counted_eigh(s, g):
        n = s.shape[1]
        tally(f"_whitened_eigh {n}x{n}", s.shape[0])
        return eigh(s, g)

    def counted_closed(s, g, tol):
        out = closed(s, g, tol)
        tally("pencil closed form", int(out[2].sum()))
        return out

    def counted_array(memo, kind):
        n = memo.points.shape[0]
        tally(f"{kind} requested", n)
        if id(memo) not in interned:
            tally(f"{kind} interned", n)
        interned[id(memo)] = memo       # alive, so no id is reused
        return memo

    def counted_region(base, region, plan, count):
        return counted_array(region_memo(base, region, plan, count),
                             kind_of(sys._getframe(1)))

    def counted_grid(base, name, make):
        return counted_array(grid_memo(base, name, make), "loop grid")

    patches = [(ex.MatrixGroup, "compute", counted(compute, "memo")),
               (ex.MatrixGroup, "_compute", counted_kernel),
               (ex, "_whitened_eigh", counted_eigh),
               (ex, "_closed_pencil", counted_closed),
               (ex.Expr, "eval", counted_eval),
               (ex.PathProduct, "compute", counted(lookup, "transport memo")),
               (ex.PathProduct, "_compute", counted_transport),
               (Base, "region_memo", counted_region),
               (Base, "grid_memo", counted_grid),
               (ex.EvalContext, "__init__", counted_init),
               (ex.EvalContext, "sub", counted_sub)]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        result = workloads.run_operation(name, SEED)
        calls["live intern table entries"] = len(ex._INTERNED)
        del result
    finally:
        for owner, attr, old in originals:
            setattr(owner, attr, old)
    return calls, rows


ARRAY_KINDS = ["cover regions", "base samples", "unity probes", "other probes",
               "loop grid"]


def main() -> int:
    for name in workloads.WORKLOADS:
        calls, rows = counted_operation(name)
        print(f"{name} (seed {SEED}, one operation)")
        groups = sorted(k for k in calls if k.startswith("matrixgroup "))
        total = sum(calls[k] for k in groups)
        eighs = sorted({"_whitened_eigh 1x1", "_whitened_eigh 2x2",
                        *(k for k in calls if k.startswith("_whitened_eigh "))})
        for key in [*groups, "memo hit", "memo miss", "pencil closed form",
                    *eighs, "pencil twin served"]:
            print(f"  {key:24s} {calls[key]:7d} calls {rows[key]:10d} rows")
        print(f"  {'matrixgroup total':24s} {total:7d} calls "
              f"{sum(rows[k] for k in groups):10d} rows")
        print("  memo-less, by the function that built the context:")
        for key in sorted(k for k in calls if k.startswith("memo-less ")):
            print(f"    {key.removeprefix('memo-less '):46s} {calls[key]:7d} calls "
                  f"{rows[key]:10d} rows")
        for key in ["pathproduct", "transport memo hit", "transport memo miss"]:
            print(f"  {key:24s} {calls[key]:7d} calls {rows[key]:10d} rows")
        for kind in ARRAY_KINDS:
            for key in [f"{kind} requested", f"{kind} interned"]:
                print(f"  {key:24s} {calls[key]:7d} arrays {rows[key]:9d} rows")
        nodes = sorted(k for k in calls if k.startswith("node "))
        for key in [*nodes, "structural duplicates"]:
            print(f"  {key:24s} {calls[key]:7d} calls {rows[key]:10d} rows")
        print(f"  {'node total':24s} {sum(calls[k] for k in nodes):7d} calls "
              f"{sum(rows[k] for k in nodes):10d} rows")
        print(f"  {'live intern entries':24s} {calls['live intern table entries']:7d}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

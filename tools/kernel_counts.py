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
- pencil projector outputs served by the opposite sign: outputs that the
  computation of the same pencil's other sign stored in the group found in
  the intern table (`MatrixGroup._opposite`) and a reader then read, so no
  eigensolve of their own ran; and the pencil computations that found no
  live opposite group, whose other sign's output nobody stored;
- `PathProduct` computations (transports along a homotopy's t-ladder) with
  their base-point rows; of those rows, the ones transported (new to the
  path product's row store, each transported once) and the ones read from
  the row store; the rows that `homotopy` seeded into row stores from its
  ladder's probes; and the kernel memo traffic on transports;
- point arrays a base evaluates again, requested and interned, by kind:
  each region a `Base.region_memos` batch is asked for counts as one
  request of the kind of the function that asked for the batch (directly
  or through `Base.region_memo`): cover regions (`Cover.region_memo`),
  base samples (`Base.sample_memo`), unity probes (the regions `unity`
  certifies disjointness and containment on), other probes (the
  refinement and slice probes of `Base.meets`), and the circle walk's
  arrays (`Base.grid_memo`), by the function that asked: the loop grid
  and the refinement rounds' midpoints, which `bundles.refined_loop`
  asks for, and the sign switches' one-row points, which
  `s1_line_class` asks for.  Of the region requests, "from table" counts
  those the base's request table answered, and "sampled" those that ran
  `semialg.sample`'s membership pass; "interned" counts the requests
  that made a new array and memo, and every other request read one an
  earlier request of any kind made.  Last, the distinct region requests
  (base, the region's pieces, plan, count) and the membership passes of
  the whole operation, and the circle walk's membership passes
  (`Cover.chart_memberships` calls under `refined_loop`, one for the
  grid and one per round) with their rows;
- expression node evaluations by node kind, with their rows: the calls
  of a node's `_eval`, which no context cache served;
- node reads a parent context served: reads in a `ZeroGate` sub-context
  of a node its parent context held, taken as the parent's value at the
  gate's mask with no `_eval`, with the sub-context's rows;
- condition values a sampling batch served: per piece context of
  `Base.region_memos`, the condition values its batch held on the cloud
  (`semialg.SamplingBatch`) that it read, each counted once, with the
  cloud's rows;
- structural duplicates: evaluations of a node in a context that had
  already evaluated another node object of equal structure.  Structure is
  the intern key (`expr._Interned`) with every child id replaced by the
  child's structure, so equal structures are found whether or not the
  table merged their objects; the count is 0 unless some node was built
  past the table;
- Gauss embeddings built, by construction: through the cocycle and a
  partition of unity (`bundles._cocycle_embedding`), or as the block
  diagonal of a Whitney sum's summands' kept embeddings
  (`bundles._block_sum_embedding`); an embedding kept on its bundle and
  read again is not built;
- live intern table entries after the operation, its result still held;
- per `forms.signature` call, in call order: the form, its chart count
  and, per chart, the base samples typed there (`signature` types each
  of the plan's base samples in every chart that holds it; a chart that
  holds none, shown as 0, is typed at its own sample instead); then, of
  all the rows it typed (`forms.signature_types`), those typed in closed
  form and those sent to the Gram-Schmidt engine
  (`forms.gram_schmidt_frame`).

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
from bundleforms import bundles  # noqa: E402
from bundleforms import expr as ex  # noqa: E402
from bundleforms import forms  # noqa: E402
from bundleforms import semialg  # noqa: E402
from bundleforms.semialg import Base, Cover  # noqa: E402

SEED = 0
# the evaluators that build a context for their caller's points
EVALUATORS = {"evaluate", "evaluate_at", "em_eval", "SemialgebraicSet.membership"}
# the function that asks `Base.region_memos` for arrays -> their kind
# (`Cover.region_memo`, `Base.sample_memo`); any function of `unity` asks for
# unity probes, and any other for other probes
KINDS = {"region_memo": "cover regions", "sample_memo": "base samples"}


def kind_of(frame) -> str:
    """The kind of point array the calling frame asks its base for, seen
    past `Base.region_memo`, a batch of one."""
    if frame.f_code.co_qualname == "Base.region_memo":
        frame = frame.f_back
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


def counted_operation(name: str) -> tuple[Counter, Counter, list]:
    """(calls, rows) per counter over one operation of the workload, and
    per `signature` call a dict of its form name, charts, base samples
    typed per chart, and rows typed (all, and by the engine)."""
    calls, rows = Counter(), Counter()
    node_eval = ex.Expr.eval
    # per context: its structure memo, and the first node evaluated there
    # with each structure
    seen, table = weakref.WeakKeyDictionary(), {}
    compute, kernel = ex.MatrixGroup.compute, ex.MatrixGroup._compute
    eigh, closed = ex._whitened_eigh, ex._closed_pencil
    lookup, transport = ex.PathProduct.compute, ex.PathProduct._compute
    seed, kept = ex.PathProduct.seed, semialg._kept
    region_memos, grid_memo, sample = Base.region_memos, Base.grid_memo, semialg.sample
    form_signature, chart_memberships = forms.signature, Cover.chart_memberships
    types, frame = forms.signature_types, forms.gram_schmidt_frame
    refine = bundles.refined_loop
    signing = []    # per `signature` call under way, its entry of `typed`
    walking = []    # per `refined_loop` call under way, its loop arrays asked for
    typed = []      # per signature call: form, charts, typed per chart, rows
    init, sub = ex.EvalContext.__init__, ex.EvalContext.sub
    interned, served = {}, {}
    requests = {}   # (id(base), pieces, plan, count) -> base, kept alive
    asking = []     # the kind of each `region_memos` call in progress
    batch_read = weakref.WeakKeyDictionary()    # context -> ids of held nodes read
    held = {}       # id(cloud) -> the values its batch holds, while `_kept` runs
    builders = weakref.WeakKeyDictionary()      # context -> builder_of name

    def tally(key, n):
        calls[key] += 1
        rows[key] += n

    def counted(lookup, memo_key):
        """The group lookup `lookup`, tallying memo traffic under `memo_key`
        and, for a MatrixGroup, the computations by op tag and the first
        read of each output the opposite sign's computation stored."""
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
            if served.get(id(out), (None, True))[1] is False:
                served[id(out)] = (out, True)
                tally("pencil opposite served", out.shape[0])
            return out
        return counted_lookup

    def counted_kernel(group, ctx):
        out = kernel(group, ctx)
        if group.op in (ex.PENCIL_PROJ_POS, ex.PENCIL_PROJ_NEG):
            opposite = group._opposite()
            if opposite is None:
                tally("pencil no live opposite", ctx.points.shape[0])
            else:
                stored = ctx.group_cache[id(opposite)]
                served[id(stored)] = (stored, False)    # alive, so no id is reused
        return out

    def counted_eval(node, ctx):
        if node not in ctx.cache:
            n = ctx.points.shape[0]
            if node in ctx.parent_cache:
                tally("parent served", n)
            else:
                tally(f"node {type(node).__name__}", n)
                memo, first = seen.setdefault(ctx, ({}, {}))
                if first.setdefault(structure(node, memo, table), id(node)) != id(node):
                    tally("structural duplicates", n)
        elif held.get(id(ctx.memo), {}).get(node) is ctx.cache[node]:
            read = batch_read.setdefault(ctx, set())
            if id(node) not in read:    # the context keeps the node alive
                read.add(id(node))
                tally("batch served", ctx.points.shape[0])
        return node_eval(node, ctx)

    def counted_init(ctx, points):
        init(ctx, points)
        builders[ctx] = builder_of(sys._getframe(1))

    def counted_sub(ctx, gate_id, mask):
        child = sub(ctx, gate_id, mask)
        builders[child] = builders.get(ctx)
        return child

    def counted_transport(group, ctx):
        n = ctx.points.shape[0]
        tally("pathproduct", n)
        before = len(group.store.index)
        out = transport(group, ctx)
        new = len(group.store.index) - before
        tally("transported", new)
        tally("row store read", n - new)
        return out

    def counted_seed(group, x, rungs):
        before = len(group.store.index)
        seed(group, x, rungs)
        tally("probe seeded", len(group.store.index) - before)

    def counted_kept(piece, dim, cloud, values):
        held[id(cloud)] = values
        try:
            return kept(piece, dim, cloud, values)
        finally:
            del held[id(cloud)]

    def counted_build(build, kind):
        def counted_embedding(bundle, plan):
            tally(f"embedding {kind}", 1)
            return build(bundle, plan)
        return counted_embedding

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

    def counted_regions(base, regions, plan, count):
        asking.append(kind_of(sys._getframe(1)))
        try:
            memos = region_memos(base, regions, plan, count)
        finally:
            kind = asking.pop()
        for region in regions:
            requests[(id(base), region.pieces, plan, count)] = base
        return [counted_array(memo, kind) for memo in memos]

    def counted_sample(sset, plan, box, count=None, batch=None):
        out = sample(sset, plan, box, count, batch)
        tally(f"{asking[-1]} sampled", out[0].shape[0])
        tally("membership passes", out[0].shape[0])
        return out

    def counted_signature(form, plan):
        signing.append({"form": form.name, "charts": form.bundle.cover.n_charts,
                        "per chart": [], "rows": 0, "engine": 0})
        typed.append(signing[-1])
        try:
            return form_signature(form, plan)
        finally:
            signing.pop()

    def counted_walk(cover):
        walking.append(0)
        try:
            return refine(cover)
        finally:
            walking.pop()

    def counted_memberships(cover, memo):
        # `signature` makes one membership pass, at the base's samples
        inside = chart_memberships(cover, memo)
        if walking:
            tally("walk membership passes", len(memo))
        if signing:
            signing[-1]["per chart"] = inside.sum(axis=0).tolist()
        return inside

    def counted_types(s, points):
        if signing:
            signing[-1]["rows"] += len(s)
        return types(s, points)

    def counted_frame(s, points=None):
        if signing:
            signing[-1]["engine"] += len(s)
        return frame(s, points)

    def counted_grid(base, key, make):
        # the walk asks for its grid first, then one array per round
        if walking:
            kind = "loop rounds" if walking[-1] else "loop grid"
            walking[-1] += 1
        else:
            kind = "loop switches"
        return counted_array(grid_memo(base, key, make), kind)

    patches = [(ex.MatrixGroup, "compute", counted(compute, "memo")),
               (ex.MatrixGroup, "_compute", counted_kernel),
               (ex, "_whitened_eigh", counted_eigh),
               (ex, "_closed_pencil", counted_closed),
               (ex.Expr, "eval", counted_eval),
               (ex.PathProduct, "compute", counted(lookup, "transport memo")),
               (ex.PathProduct, "_compute", counted_transport),
               (ex.PathProduct, "seed", counted_seed),
               (semialg, "_kept", counted_kept),
               (Base, "region_memos", counted_regions),
               (semialg, "sample", counted_sample),
               (Base, "grid_memo", counted_grid),
               (Cover, "chart_memberships", counted_memberships),
               (forms, "signature_types", counted_types),
               (forms, "gram_schmidt_frame", counted_frame),
               (bundles, "refined_loop", counted_walk),
               (ex.EvalContext, "__init__", counted_init),
               (ex.EvalContext, "sub", counted_sub),
               (bundles, "_cocycle_embedding",
                counted_build(bundles._cocycle_embedding, "partition of unity")),
               (bundles, "_block_sum_embedding",
                counted_build(bundles._block_sum_embedding, "block sum"))]
    # every module that binds `signature` by name, `forms` among them
    patches += [(module, "signature", counted_signature)
                for module_name, module in list(sys.modules.items())
                if module_name.split(".")[0] == "bundleforms"
                and getattr(module, "signature", None) is form_signature]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        result = workloads.run_operation(name, SEED)
        calls["distinct region requests"] = len(requests)
        requests.clear()        # its keys hold conditions, so nodes, alive
        for kind in REGION_KINDS:
            for counter in (calls, rows):
                counter[f"{kind} from table"] = (counter[f"{kind} requested"]
                                                 - counter[f"{kind} sampled"])
        calls["live intern table entries"] = len(ex._INTERNED)
        del result
    finally:
        for owner, attr, old in originals:
            setattr(owner, attr, old)
    return calls, rows, typed


# the kinds of `Base.grid_memo` arrays: asked for by `refined_loop` (its
# grid, then its rounds) or by `s1_line_class`'s sign switches
GRID_KINDS = ["loop grid", "loop rounds", "loop switches"]
EMBEDDING_KINDS = ["partition of unity", "block sum"]
REGION_KINDS = ["cover regions", "base samples", "unity probes", "other probes"]


def main() -> int:
    for name in workloads.WORKLOADS:
        calls, rows, typed = counted_operation(name)
        print(f"{name} (seed {SEED}, one operation)")
        groups = sorted(k for k in calls if k.startswith("matrixgroup "))
        total = sum(calls[k] for k in groups)
        eighs = sorted({"_whitened_eigh 1x1", "_whitened_eigh 2x2",
                        *(k for k in calls if k.startswith("_whitened_eigh "))})
        for key in [*groups, "memo hit", "memo miss", "pencil closed form",
                    *eighs, "pencil opposite served", "pencil no live opposite"]:
            print(f"  {key:24s} {calls[key]:7d} calls {rows[key]:10d} rows")
        print(f"  {'matrixgroup total':24s} {total:7d} calls "
              f"{sum(rows[k] for k in groups):10d} rows")
        print("  memo-less, by the function that built the context:")
        for key in sorted(k for k in calls if k.startswith("memo-less ")):
            print(f"    {key.removeprefix('memo-less '):46s} {calls[key]:7d} calls "
                  f"{rows[key]:10d} rows")
        for key in ["pathproduct", "transported", "row store read", "probe seeded",
                    "transport memo hit", "transport memo miss"]:
            print(f"  {key:24s} {calls[key]:7d} calls {rows[key]:10d} rows")
        for kind in [*REGION_KINDS, *GRID_KINDS]:
            stages = (["requested", "from table", "sampled", "interned"]
                      if kind in REGION_KINDS else ["requested", "interned"])
            for key in (f"{kind} {stage}" for stage in stages):
                print(f"  {key:24s} {calls[key]:7d} arrays {rows[key]:9d} rows")
        print(f"  {'distinct region requests':24s} "
              f"{calls['distinct region requests']:7d}, membership passes "
              f"{calls['membership passes']:d}")
        print(f"  {'walk membership passes':24s} "
              f"{calls['walk membership passes']:7d} passes "
              f"{rows['walk membership passes']:9d} rows")
        nodes = sorted(k for k in calls if k.startswith("node "))
        for key in [*nodes, "structural duplicates", "parent served",
                    "batch served"]:
            print(f"  {key:24s} {calls[key]:7d} calls {rows[key]:10d} rows")
        print(f"  {'node total':24s} {sum(calls[k] for k in nodes):7d} calls "
              f"{sum(rows[k] for k in nodes):10d} rows")
        print("  gauss embeddings built: " + ", ".join(
            f"{calls['embedding ' + kind]} by {kind}" for kind in EMBEDDING_KINDS))
        print(f"  {'live intern entries':24s} {calls['live intern table entries']:7d}")
        print(f"  signature calls {len(typed)}, base samples typed per chart:")
        for call in typed:
            print(f"    {call['form']}: {call['charts']} charts, "
                  + "/".join(map(str, call["per chart"]))
                  + f"; rows typed in closed form {call['rows'] - call['engine']},"
                  f" by gram_schmidt_frame {call['engine']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

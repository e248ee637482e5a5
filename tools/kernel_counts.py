"""Print, per benchmark workload, the matrix kernel work of one operation.

For one operation of each workload (`perfbench/workloads.py`) at seed 0:

- `MatrixGroup` computations by op tag, with the rows they ran on: calls
  that neither the context's own cache nor a kernel memo served;
- kernel memo traffic: lookups that found the (group, rows) output an
  earlier context computed (hits) and lookups that had to compute it
  (misses), with their rows;
- `_whitened_eigh` calls and rows: the Cholesky-whitened eigensolve behind
  every pencil projector and pencil square root;
- `PathProduct` computations (transports along a homotopy's t-ladder) with
  their base-point rows, and the kernel memo traffic on transports;
- region arrays: the sampled cover regions requested through
  `Cover.region_memo` (one per cover, sorted indices and plan), and the
  distinct arrays their bases interned for them (`Base.region_memo`).

The per-layer trace of the benchmark counts a memo hit as a kernel call,
since it sees only the context's own cache; these counts tell the two
apart.

The tool reads `perfbench/` and writes nothing.

    python3 tools/kernel_counts.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from bundleforms import expr as ex  # noqa: E402
from bundleforms.semialg import Base  # noqa: E402

SEED = 0


def counted_operation(name: str) -> tuple[Counter, Counter]:
    """(calls, rows) per counter over one operation of the workload."""
    calls, rows = Counter(), Counter()
    compute, eigh = ex.MatrixGroup.compute, ex._whitened_eigh
    lookup, transport = ex.PathProduct.compute, ex.PathProduct._compute
    interned, region_memo = {}, Base.region_memo

    def tally(key, n):
        calls[key] += 1
        rows[key] += n

    def counted(lookup, memo_key):
        """The group lookup `lookup`, tallying memo traffic under `memo_key`
        and, for a MatrixGroup, the computations by op tag."""
        def counted_lookup(group, ctx):
            if id(group) not in ctx.group_cache:
                n = ctx.points.shape[0]
                memo = ctx.kernels
                hit = memo is not None and ctx.path in memo.outputs.get(group, {})
                if memo is not None:
                    tally(f"{memo_key} hit" if hit else f"{memo_key} miss", n)
                if not hit and isinstance(group, ex.MatrixGroup):
                    tally(f"matrixgroup {group.op}", n)
            return lookup(group, ctx)
        return counted_lookup

    def counted_transport(group, ctx):
        tally("pathproduct", ctx.points.shape[0])
        return transport(group, ctx)

    def counted_eigh(s, g):
        tally("_whitened_eigh", s.shape[0])
        return eigh(s, g)

    def counted_region(base, region, plan, count):
        memo = region_memo(base, region, plan, count)
        n = memo.points.shape[0]
        tally("region requested", n)
        if id(memo) not in interned:
            tally("region interned", n)
        interned[id(memo)] = memo       # alive, so no id is reused
        return memo

    ex.MatrixGroup.compute, ex._whitened_eigh = counted(compute, "memo"), counted_eigh
    ex.PathProduct.compute = counted(lookup, "transport memo")
    ex.PathProduct._compute = counted_transport
    Base.region_memo = counted_region
    try:
        workloads.run_operation(name, SEED)
    finally:
        ex.MatrixGroup.compute, ex._whitened_eigh = compute, eigh
        ex.PathProduct.compute, ex.PathProduct._compute = lookup, transport
        Base.region_memo = region_memo
    return calls, rows


def main() -> int:
    for name in workloads.WORKLOADS:
        calls, rows = counted_operation(name)
        print(f"{name} (seed {SEED}, one operation)")
        groups = sorted(k for k in calls if k.startswith("matrixgroup "))
        total = sum(calls[k] for k in groups)
        for key in [*groups, "memo hit", "memo miss", "_whitened_eigh"]:
            print(f"  {key:22s} {calls[key]:7d} calls {rows[key]:10d} rows")
        print(f"  {'matrixgroup total':22s} {total:7d} calls "
              f"{sum(rows[k] for k in groups):10d} rows")
        for key in ["pathproduct", "transport memo hit", "transport memo miss"]:
            print(f"  {key:22s} {calls[key]:7d} calls {rows[key]:10d} rows")
        for key in ["region requested", "region interned"]:
            print(f"  {key:22s} {calls[key]:7d} arrays {rows[key]:9d} rows", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: spec-file ingestion, task dispatch, reports.

Subcommands: validate | invariants | operate | signature | decompose |
homotopy | rings | report.  Exit codes: 0 all tasks pass, 1 any failed,
2 any errored, 3 any unknown (error > fail > unknown).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import forms as fo
from . import homotopy as ho
from . import rings as ri
from .bundles import check_isomorphism, s1_line_class, validate_cocycle
from .errors import BundleformsError
from .reporting import Report, TaskEntry, timed_entry
from .semialg import SamplePlan
from .specfile import SpecDocument, _declared, parse_spec

IDENTITY_TOL = 1e-9
WITNESS_TOL = 1e-6


def _plan(args) -> SamplePlan:
    n = args.samples
    return SamplePlan(seed=args.seed, n_chart=n,
                      n_overlap=max(64, n // 2), n_triple=max(48, n // 3))


def _apply_check(entry: TaskEntry, check, extra=None):
    entry.status = "pass" if check.passed else "fail"
    entry.max_residual = check.max_residual
    entry.mean_residual = check.mean_residual
    if not np.isinf(check.min_abs_det):     # inf: no determinant was checked
        entry.min_abs_det = check.min_abs_det
    if check.witness is not None:
        entry.witness_point = list(check.witness)
    if extra:
        entry.invariants.update(extra)
    if check.passed and check.details.get("ladder_capped"):
        entry.status = "unknown"     # the ladder's gap is unmet at its cap
        entry.message = ("transport ladder capped at {ladder_points} points, "
                         "worst probe gap {ladder_gap:.3g}".format(**check.details))


def run_tasks(doc: SpecDocument, tasks, plan: SamplePlan,
              tol: float = IDENTITY_TOL,
              witness_tol: float = WITNESS_TOL) -> Report:
    report = Report(seed=plan.seed)
    # an overflow evaluates to inf or NaN, which fails every check at its
    # first point, so numpy's floating-point warnings would only repeat it
    with np.errstate(all="ignore"):
        for task in tasks:
            label = task.get("label") or _default_label(task)
            with timed_entry(report, label) as entry:
                _run_one(doc, task, plan, tol, witness_tol, entry)
    return report


def _default_label(task):
    bits = [task["op"]]
    for key in ("bundle", "form", "witness"):
        if key in task:
            bits.append(str(task[key]))
    return " ".join(bits)


def _run_one(doc, task, plan, tol, witness_tol, entry: TaskEntry):
    op = task["op"]
    if op == "validate-bundle":
        bundle = doc.bundles[task["bundle"]]
        _apply_check(entry, validate_cocycle(bundle, plan, tol),
                     {"rank": bundle.rank, "charts": bundle.cover.n_charts})
    elif op == "validate-form":
        form = doc.forms[task["form"]]
        _apply_check(entry, fo.validate_form(form, plan, tol),
                     {"rank": form.rank})
    elif op == "invariants":
        _invariants(doc, task, plan, entry)
    elif op == "signature":
        form = doc.forms[task["form"]]
        sig = fo.signature(form, plan)
        entry.status = "pass"
        entry.invariants.update({"positive": sig.pos, "negative": sig.neg})
    elif op == "decompose":
        form = doc.forms[task["form"]]
        pair = fo.decompose(form, plan)
        check = pair.check(plan, tol)
        min_pos, max_neg = pair.restricted_definiteness(plan)
        ok = check.passed
        if pair.sig.pos and not min_pos > 0:
            ok = False
        if pair.sig.neg and not max_neg < 0:
            ok = False
        entry.status = "pass" if ok else "fail"
        entry.max_residual = check.max_residual
        entry.mean_residual = check.mean_residual
        if not check.passed:    # a passing report names no point
            entry.witness_point = list(check.witness)
        entry.invariants.update({"positive": pair.sig.pos,
                                 "negative": pair.sig.neg})
    elif op == "line-class":
        bundle = doc.bundles[task["bundle"]]
        entry.status = "pass"
        entry.invariants["det_class"] = s1_line_class(bundle)
    elif op == "homotopy-iso":
        bundle = doc.bundles[task["bundle"]]
        hw = ho.homotopy_isomorphism(bundle, plan, tol=witness_tol)
        _apply_check(entry, hw.report, {"rank": bundle.rank})
    elif op == "homotopy-isometry":
        form = doc.forms[task["form"]]
        hi = ho.homotopy_isometry(form, plan, tol=witness_tol)
        _apply_check(entry, hi.report, {"rank": form.rank})
    elif op == "trivialize":
        bundle = doc.bundles[task["bundle"]]
        tw = ho.trivialize_contractible(bundle, plan, tol=witness_tol)
        _apply_check(entry, tw.report, {"rank": bundle.rank})
    elif op == "witt-zero":
        form = doc.forms[task["form"]]
        w = ri.witt_class(form, plan)
        verdict, _, check = ri.witt_is_zero(w, plan)
        entry.invariants["is_zero"] = verdict
        entry.status = "unknown" if verdict == "unknown" else "pass"
        if check is not None:
            entry.max_residual = check.max_residual
    elif op == "roundtrip-k0":
        bundle = doc.bundles[task["bundle"]]
        k = ri.k0_class(bundle)
        out = ri.roundtrip_k0(k, plan)
        entry.status = "pass" if out["passed"] else "fail"
        entry.invariants.update({"rank_diff": out["rank_diff"][0],
                                 "round_rank_diff": out["rank_diff"][1]})
    elif op == "roundtrip-witt":
        form = doc.forms[task["form"]]
        w = ri.witt_class(form, plan)
        out = ri.roundtrip_witt(w, plan)
        entry.status = "pass" if out["passed"] else "fail"
        entry.invariants.update({"sig_diff": out["sig_diff"][0],
                                 "round_sig_diff": out["sig_diff"][1]})
    elif op == "check-witness":
        witness = doc.witnesses[task["witness"]]
        if "source_form" in task or "target_form" in task:
            sform = doc.forms[task["source_form"]]
            tform = doc.forms[task["target_form"]]
            iso = fo.IsometryWitness(witness, sform, tform)
            _apply_check(entry, fo.check_isometry(iso, plan, witness_tol))
        else:
            _apply_check(entry, check_isomorphism(witness.source,
                                                  witness.target, witness,
                                                  plan, witness_tol))
    else:  # pragma: no cover - specfile filters unknown ops
        raise BundleformsError(f"unhandled op {op!r}")


def _invariants(doc, task, plan, entry):
    if "bundle" in task:
        bundle = doc.bundles[task["bundle"]]
        entry.invariants["rank"] = bundle.rank
        if bundle.base.circle:
            entry.invariants["det_class"] = s1_line_class(bundle)
    if "form" in task:
        form = doc.forms[task["form"]]
        sig = fo.signature(form, plan)
        entry.invariants.update({"rank": form.rank, "positive": sig.pos,
                                 "negative": sig.neg})
    entry.status = "pass"


# ---------------------------------------------------------------------------
# Subcommand task builders.  A name the spec does not declare is an
# UnresolvedReference, raised before any task runs.


def _tasks_validate(doc, args):
    names = {_declared(n, doc.bundles.keys() | doc.forms.keys(),
                       "unknown bundle or form") for n in args.names or []}
    tasks = []
    for name in doc.bundles:
        if not names or name in names:
            tasks.append({"op": "validate-bundle", "bundle": name})
    for name in doc.forms:
        if not names or name in names:
            tasks.append({"op": "validate-form", "form": name})
    return tasks


def _tasks_invariants(doc, args):
    tasks = [{"op": "invariants", "bundle": n} for n in doc.bundles]
    tasks += [{"op": "invariants", "form": n} for n in doc.forms]
    return tasks


def _form_names(doc, args):
    """The `--form` name, or every form of the spec."""
    if args.form:
        return [_declared(args.form, doc.forms, "unknown form")]
    return list(doc.forms)


def _tasks_signature(doc, args):
    return [{"op": "signature", "form": n} for n in _form_names(doc, args)]


def _tasks_decompose(doc, args):
    return [{"op": "decompose", "form": n} for n in _form_names(doc, args)]


def _tasks_homotopy(doc, args):
    tasks = []
    if args.bundle:
        tasks.append({"op": "homotopy-iso", "bundle":
                      _declared(args.bundle, doc.bundles, "unknown bundle")})
    if args.form:
        tasks.append({"op": "homotopy-isometry", "form":
                      _declared(args.form, doc.forms, "unknown form")})
    if not tasks:
        if doc.base.cylinder_base is None and doc.base.star_center is not None:
            tasks += [{"op": "trivialize", "bundle": n} for n in doc.bundles]
        else:
            # on a base that is neither a cylinder nor star-shaped, each
            # task reports the NotCatalogBase error instead of passing empty
            tasks += [{"op": "homotopy-iso", "bundle": n} for n in doc.bundles]
            tasks += [{"op": "homotopy-isometry", "form": n} for n in doc.forms]
    return tasks


def _tasks_rings(doc, args):
    tasks = [{"op": "roundtrip-k0", "bundle": n} for n in doc.bundles]
    tasks += [{"op": "roundtrip-witt", "form": n} for n in doc.forms]
    tasks += [{"op": "witt-zero", "form": n} for n in doc.forms]
    return tasks


def _tasks_operate(doc, args):
    return list(doc.tasks)


def _tasks_report(doc, args):
    return _tasks_validate(doc, argparse.Namespace(names=None)) + list(doc.tasks)


_SUBCOMMANDS = {
    "validate": _tasks_validate,
    "invariants": _tasks_invariants,
    "signature": _tasks_signature,
    "decompose": _tasks_decompose,
    "homotopy": _tasks_homotopy,
    "rings": _tasks_rings,
    "operate": _tasks_operate,
    "report": _tasks_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundleforms",
        description="cocycle bundles and bilinear spaces, certified by sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("spec", type=Path, help="spec file (JSON)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=IDENTITY_TOL,
                       help="identity tolerance (default 1e-9)")
        p.add_argument("--witness-tol", type=float, default=WITNESS_TOL,
                       help="homotopy, trivialize and check-witness tolerance "
                            "(default 1e-6); witt-zero runs at a fixed 1e-8")
        p.add_argument("--samples", type=int, default=1000,
                       help="sample points per chart, at least 1 (default 1000)")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
        if name == "validate":
            p.add_argument("names", nargs="*", help="bundle/form names")
        if name in ("signature", "decompose"):
            p.add_argument("--form", help="form name (default: all)")
        if name == "homotopy":
            p.add_argument("--bundle")
            p.add_argument("--form")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.samples < 1:    # no check may pass on zero sample points
        parser.error("argument --samples: must be at least 1")
    try:
        doc = parse_spec(args.spec.read_text(encoding="utf-8"))
        tasks = _SUBCOMMANDS[args.command](doc, args)
    except (OSError, UnicodeDecodeError, BundleformsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = run_tasks(doc, tasks, _plan(args), args.tol, args.witness_tol)
    if args.format == "machine":
        sys.stdout.write(report.machine_text())
    else:
        sys.stdout.write(report.human_text())
    return report.exit_code()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

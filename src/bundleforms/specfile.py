"""Spec-file ingestion: one JSON document describes one base space plus
charts, bundles, forms, sections, witnesses and tasks.

Top-level keys: "version", "base", "charts", "bundles", "forms",
"sections", "witnesses", "tasks".  Expressions are infix text in the
parser's grammar; conditions are [expression, op] pairs with op in
">", ">=", "==", "<", "<=" (the last two negate the expression).

The parsed document keeps the raw JSON structure, so serializing and
reparsing reproduces an identical document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import expr as ex
from .bundles import BundleRep, MorphismField, SectionRep
from .catalog import circle_base, cylinder_base, line_base, plane_base, point_base
from .errors import (
    DimensionMismatch,
    SpecParseError,
    UnresolvedReference,
)
from .exprparse import parse_expression
from .forms import FormField
from .semialg import (
    Base,
    Condition,
    Cover,
    SemialgebraicSet,
    expr_to_polynomial,
)
from .errors import NotPolynomial

_CATALOG_BASES = {
    "point": point_base,
    "line": line_base,
    "plane": plane_base,
    "circle": circle_base,
    "circle-cylinder": lambda: cylinder_base(circle_base()),
    "plane-cylinder": lambda: cylinder_base(plane_base()),
    "line-cylinder": lambda: cylinder_base(line_base()),
}

# declaration kind -> the keys the format defines for it; a catalog base
# takes its "catalog" key alone
_DECLARATION_KEYS = {
    "base": ("dim", "box", "star_center", "conditions", "name", "connected",
             "circle"),
    "bundle": ("rank", "charts", "transitions"),
    "form": ("bundle", "upper"),
    "section": ("bundle", "values"),
    "witness": ("source", "target", "fields"),
}

# task op -> the reference keys it requires
_TASK_REFS = {
    "validate-bundle": ("bundle",),
    "validate-form": ("form",),
    "invariants": (),
    "signature": ("form",),
    "decompose": ("form",),
    "line-class": ("bundle",),
    "homotopy-iso": ("bundle",),
    "homotopy-isometry": ("form",),
    "trivialize": ("bundle",),
    "witt-zero": ("form",),
    "roundtrip-k0": ("bundle",),
    "roundtrip-witt": ("form",),
    "check-witness": ("witness",),
}

# task op -> the reference keys it may name besides those
_TASK_OPTIONAL_REFS = {
    "invariants": ("bundle", "form"),
    "check-witness": ("source_form", "target_form"),
}


@dataclass
class SpecDocument:
    raw: dict
    base: Base
    charts: dict = field(default_factory=dict)
    bundles: dict = field(default_factory=dict)
    chart_names: dict = field(default_factory=dict)   # bundle -> its chart names
    forms: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=1) + "\n"


def parse_spec(text: str) -> SpecDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecParseError(f"invalid JSON: {err.msg}", line=err.lineno,
                             column=err.colno) from err
    if not isinstance(raw, dict):
        raise SpecParseError("spec document must be a JSON object")
    unknown = set(raw) - {"version", "base", "charts", "bundles", "forms",
                          "sections", "witnesses", "tasks"}
    if unknown:
        raise SpecParseError(f"unknown top-level keys: {sorted(unknown)}")
    base = _parse_base(raw.get("base", {"catalog": "line"}))
    doc = SpecDocument(raw=raw, base=base)
    dim, t_index = base.dim, base.t_index

    def compile_expr(text_expr, where):
        try:
            return parse_expression(str(text_expr), dim, t_index)
        except SpecParseError as err:
            at = "" if err.column is None else f", text column {err.column}"
            raise SpecParseError(f"{where}{at}: {err}", column=err.column) from err

    def table(key):
        return _typed(raw.get(key) or {}, dict, key, "the declarations").items()

    for name, conds in table("charts"):
        doc.charts[name] = _parse_set(conds, dim, compile_expr,
                                      where=f"chart {name}", open_only=True)

    covers: dict = {}   # one Cover per chart-name tuple, shared by its bundles
    for name, decl in table("bundles"):
        doc.bundles[name], doc.chart_names[name] = _parse_bundle(
            name, decl, doc, compile_expr, covers)

    for name, decl in table("forms"):
        doc.forms[name] = _parse_form(name, decl, doc, compile_expr)

    for name, decl in table("sections"):
        doc.sections[name] = _parse_section(name, decl, doc, compile_expr)

    for name, decl in table("witnesses"):
        doc.witnesses[name] = _parse_witness(name, decl, doc, compile_expr)

    for task in _typed(raw.get("tasks") or [], list, "tasks", "the task list"):
        doc.tasks.append(_check_task(task, doc))
    return doc


_JSON_NAMES = {dict: "object", list: "list"}


def _typed(value, kind: type, where: str, what: str):
    """`value` itself, once it is a JSON object or list as `kind` asks; a
    value of another type is a spec error, never a TypeError further on."""
    if not isinstance(value, kind):
        raise SpecParseError(f"{where}: {what} must be a JSON {_JSON_NAMES[kind]}")
    return value


def _known_keys(decl: dict, keys, where: str) -> None:
    """Reject a key the format does not define for this declaration: a
    misspelt or misplaced key is never silently ignored."""
    unknown = set(decl) - set(keys)
    if unknown:
        raise SpecParseError(f"{where}: unknown keys: {sorted(unknown)}")


def _declared(ref, table, what: str):
    """`ref` itself, once it is a string naming an entry of `table`.  Any
    other value, a list say, is an unresolved reference: it is never hashed."""
    if not (isinstance(ref, str) and ref in table):
        raise UnresolvedReference(f"{what} {ref!r}")
    return ref


def _integer(value, where: str, what: str) -> int:
    """`value` as an int, once it is a JSON number of integral value: 1.5 is
    never truncated, and 1e400 (infinity) never raises OverflowError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecParseError(f"{where}: {what} must be an integer")
    return value


def _parse_base(decl) -> Base:
    decl = _typed(decl, dict, "base", "the declaration")
    if "catalog" in decl:
        name = _declared(decl["catalog"], _CATALOG_BASES, "unknown catalog base")
        _known_keys(decl, ("catalog",), "base")
        return _CATALOG_BASES[name]()
    _known_keys(decl, _DECLARATION_KEYS["base"], "base")
    for key in ("connected", "circle"):
        if not isinstance(decl.get(key, False), bool):
            raise SpecParseError(f"base: {key} must be true or false")
    if not isinstance(decl.get("name", ""), str):
        raise SpecParseError("base: name must be a string")
    star = decl.get("star_center")
    try:
        dim = _integer(decl["dim"], "base", "dim")
        box = tuple(tuple(float(v) for v in pair) for pair in decl["box"])
        star = None if star is None else tuple(float(v) for v in star)
    except KeyError as err:
        raise SpecParseError(f"base declaration missing {err}") from err
    except (TypeError, ValueError) as err:
        raise SpecParseError("base: dim must be an integer, box a list of "
                             "[lo, hi] pairs and star_center a point") from err
    if len(box) != dim or any(len(pair) != 2 for pair in box):
        raise DimensionMismatch("box must hold one [lo, hi] pair per dimension")
    if star is not None and len(star) != dim:
        raise DimensionMismatch("star_center must have the base's dimension")

    def compile_expr(text_expr, where):
        return parse_expression(str(text_expr), dim, None)

    sset = _parse_set(decl.get("conditions", []), dim, compile_expr,
                      where="base", open_only=False)
    if not decl.get("conditions"):
        sset = SemialgebraicSet.whole_space(dim)
    return Base(
        sset, box,
        name=decl.get("name", "custom"),
        connected=decl.get("connected", True),
        star_center=star,
        circle=decl.get("circle", False),
    )


def _parse_set(conds, dim, compile_expr, where, open_only):
    # a flat list of [expr, op] pairs is one piece; a list of lists of
    # pairs is a union of pieces
    _typed(conds, list, where, "conditions")
    if conds and isinstance(conds[0], list) and conds[0] \
            and isinstance(conds[0][0], list):
        pieces_in = conds
    else:
        pieces_in = [conds]
    pieces = []
    for piece in pieces_in:
        out = []
        for item in _typed(piece, list, where, "each piece"):
            if not (isinstance(item, list) and len(item) == 2):
                raise SpecParseError(f"{where}: conditions are [expr, op] pairs")
            text_expr, op = item
            node = compile_expr(text_expr, where)
            if op in ("<", "<="):
                node = ex.Sub(ex.Const(0.0), node)
                op = ">" if op == "<" else ">="
            if op not in (">", ">=", "=="):
                raise SpecParseError(f"{where}: unknown condition op {op!r}")
            if open_only and op != ">":
                raise SpecParseError(f"{where}: charts need strict conditions")
            try:
                poly = expr_to_polynomial(node, dim)
            except NotPolynomial:
                poly = None
            out.append(Condition(node, op, poly))
        pieces.append(out)
    return SemialgebraicSet(dim, pieces)


def _chart_list(decl, doc, where):
    names = decl.get("charts")
    if not names:
        raise SpecParseError(f"{where}: missing chart list")
    _typed(names, list, where, "charts")
    charts = [doc.charts[_declared(n, doc.charts, f"{where}: unknown chart")]
              for n in names]
    return list(names), charts


def _parse_matrix(rows, rank_rows, rank_cols, compile_expr, where):
    if not (isinstance(rows, list) and len(rows) == rank_rows
            and all(isinstance(r, list) and len(r) == rank_cols for r in rows)):
        raise DimensionMismatch(f"{where}: expected a {rank_rows}x{rank_cols} matrix")
    return tuple(tuple(compile_expr(e, f"{where} row {a} column {b}")
                       for b, e in enumerate(row))
                 for a, row in enumerate(rows))


def _parse_bundle(name, decl, doc, compile_expr, covers) -> tuple[BundleRep, list]:
    where = f"bundle {name}"
    _known_keys(_typed(decl, dict, where, "the declaration"),
                _DECLARATION_KEYS["bundle"], where)
    if "rank" not in decl:
        raise SpecParseError(f"{where}: missing rank")
    rank = _integer(decl["rank"], where, "rank")
    if rank < 1:
        raise SpecParseError(f"{where}: rank must be at least 1, got {rank}")
    chart_names, charts = _chart_list(decl, doc, where)
    cover = covers.get(tuple(chart_names))
    if cover is None:
        cover = covers[tuple(chart_names)] = Cover(
            doc.base, charts, name=f"cover({','.join(chart_names)})")
    transitions = {}
    declared = _typed(decl.get("transitions") or {}, dict, where, "transitions")
    for key, rows in declared.items():
        pair = [s.strip() for s in key.split(",")]
        if len(pair) != 2:
            raise SpecParseError(f"{where}: transition keys are 'A,B'")
        try:
            i, j = chart_names.index(pair[0]), chart_names.index(pair[1])
        except ValueError as err:
            raise UnresolvedReference(f"{where}: unknown chart in {key!r}") from err
        transitions[(i, j)] = _parse_matrix(rows, rank, rank, compile_expr,
                                            f"{where} transition {key}")
    bundle = BundleRep(cover, rank, transitions, name=name,
                       default_identity=not transitions)
    return bundle, chart_names


def _resolve_bundle(decl, doc, where, kind) -> tuple[BundleRep, list]:
    _known_keys(_typed(decl, dict, where, "the declaration"),
                _DECLARATION_KEYS[kind], where)
    ref = _declared(decl.get("bundle"), doc.bundles, f"{where}: unknown bundle")
    return doc.bundles[ref], doc.chart_names[ref]


def _parse_form(name, decl, doc, compile_expr) -> FormField:
    where = f"form {name}"
    bundle, chart_names = _resolve_bundle(decl, doc, where, "form")
    d = bundle.rank
    n_upper = d * (d + 1) // 2
    uppers = []
    upper_decl = _typed(decl.get("upper") or {}, dict, where, "upper")
    for chart_name in chart_names:
        if chart_name not in upper_decl:
            raise UnresolvedReference(f"{where}: missing entries for chart "
                                      f"{chart_name!r}")
        entries = _typed(upper_decl[chart_name], list, where, "entries")
        if len(entries) != n_upper:
            raise DimensionMismatch(
                f"{where}: chart {chart_name!r} needs {n_upper} upper entries")
        uppers.append([compile_expr(e, f"{where} chart {chart_name} entry {k}")
                       for k, e in enumerate(entries)])
    form = FormField.from_upper(bundle, uppers, name=name)
    return form


def _parse_section(name, decl, doc, compile_expr) -> SectionRep:
    where = f"section {name}"
    bundle, chart_names = _resolve_bundle(decl, doc, where, "section")
    values = []
    value_decl = _typed(decl.get("values") or {}, dict, where, "values")
    for chart_name in chart_names:
        if chart_name not in value_decl:
            raise UnresolvedReference(f"{where}: missing values for chart "
                                      f"{chart_name!r}")
        entries = _typed(value_decl[chart_name], list, where, "values")
        if len(entries) != bundle.rank:
            raise DimensionMismatch(f"{where}: values must have length "
                                    f"{bundle.rank}")
        values.append(tuple((compile_expr(e, f"{where} chart {chart_name} entry {k}"),)
                            for k, e in enumerate(entries)))
    return SectionRep(bundle, values)


def _parse_witness(name, decl, doc, compile_expr) -> MorphismField:
    where = f"witness {name}"
    _known_keys(_typed(decl, dict, where, "the declaration"),
                _DECLARATION_KEYS["witness"], where)
    source_ref, target_ref = (
        _declared(decl.get(key), doc.bundles, f"{where}: unknown {key} bundle")
        for key in ("source", "target"))
    source = doc.bundles[source_ref]
    target = doc.bundles[target_ref]
    chart_names = doc.chart_names[source_ref]
    if chart_names != doc.chart_names[target_ref]:
        raise UnresolvedReference(f"{where}: source and target must share charts")
    fields = []
    field_decl = _typed(decl.get("fields") or {}, dict, where, "fields")
    for chart_name in chart_names:
        if chart_name not in field_decl:
            raise UnresolvedReference(f"{where}: missing field for chart "
                                      f"{chart_name!r}")
        fields.append(_parse_matrix(field_decl[chart_name], target.rank,
                                    source.rank, compile_expr,
                                    f"{where} chart {chart_name}"))
    return MorphismField(source, target, fields)


def _check_task(task, doc) -> dict:
    if not isinstance(task, dict) or "op" not in task:
        raise SpecParseError("tasks are objects with an 'op' key")
    op = task["op"]
    if not isinstance(op, str) or op not in _TASK_REFS:
        raise SpecParseError(f"unknown task op {op!r}")
    for key in _TASK_REFS[op]:
        if key not in task:
            raise SpecParseError(f"task {op}: missing {key!r}")
    _known_keys(task, ("op", "label", *_TASK_REFS[op],
                       *_TASK_OPTIONAL_REFS.get(op, ())), f"task {op}")
    if ("source_form" in task) != ("target_form" in task):
        raise SpecParseError(f"task {op}: source_form and target_form go together")
    if not isinstance(task.get("label", ""), str):
        raise SpecParseError(f"task {op}: label must be a string")
    for key, table in (("bundle", doc.bundles), ("form", doc.forms),
                       ("witness", doc.witnesses),
                       ("source_form", doc.forms), ("target_form", doc.forms)):
        if key in task:
            _declared(task[key], table, f"task {op}: unknown {key}")
    return dict(task)

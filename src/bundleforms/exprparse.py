"""Infix parser for the expression vocabulary.

Grammar: numbers (integers, decimals), variables x0..x{n-1} (t is an alias
for the cylinder coordinate), + - * / ^ with the usual precedence, unary
minus, parentheses, and the functions sqrt, abs, min, max, clamp.  The
quotient operator builds a guarded quotient; ^ takes a nonnegative integer
literal.  Parentheses, function arguments and unary minus nest at most
MAX_NESTING deep; deeper input is a `SpecParseError` at its column, since
the descent below recurses once per level.
"""

from __future__ import annotations

import re

from . import expr as ex
from .errors import SpecParseError

_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

# operators and function names -> node classes; a function takes its
# class's arity of arguments
_NODES = {"+": ex.Add, "-": ex.Sub, "*": ex.Mul, "/": ex.Div,
          "sqrt": ex.Sqrt, "abs": ex.Abs, "clamp": ex.Clamp,
          "min": ex.Min, "max": ex.Max}

MAX_NESTING = 128


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise SpecParseError(
                    f"unexpected character {text[pos]!r}", column=pos + 1)
            if m.lastgroup != "ws":
                kind = m.lastgroup
                value = m.group()
                if kind == "op" and value == "**":
                    value = "^"
                self.items.append((kind, value, pos))
            pos = m.end()
        self.index = 0
        self.depth = 0      # nesting levels open around the next token

    def peek(self):
        if self.index < len(self.items):
            return self.items[self.index]
        return (None, None, len(self.text))

    def next(self):
        out = self.peek()
        self.index += 1
        return out

    def expect(self, value: str):
        kind, got, pos = self.next()
        if got != value:
            raise SpecParseError(f"expected {value!r}, got {got!r}",
                                 column=pos + 1)


def parse_expression(text: str, dim: int | None = None,
                     t_index: int | None = None) -> ex.Expr:
    """Parse one expression; dim bounds variable indices when given."""
    tokens = _Tokens(text)
    out = _parse_sum(tokens, dim, t_index)
    kind, value, pos = tokens.peek()
    if kind is not None:
        raise SpecParseError(f"trailing input {value!r}", column=pos + 1)
    return out


def _parse_sum(tk, dim, t_index):
    left = _parse_product(tk, dim, t_index)
    while tk.peek()[1] in ("+", "-"):
        _, op, _ = tk.next()
        right = _parse_product(tk, dim, t_index)
        left = _NODES[op](left, right)
    return left


def _parse_product(tk, dim, t_index):
    left = _parse_unary(tk, dim, t_index)
    while tk.peek()[1] in ("*", "/"):
        _, op, _ = tk.next()
        right = _parse_unary(tk, dim, t_index)
        left = _NODES[op](left, right)
    return left


def _parse_unary(tk, dim, t_index):
    _, value, pos = tk.peek()
    if tk.depth > MAX_NESTING:
        raise SpecParseError(f"expression nests deeper than {MAX_NESTING} "
                             "levels", column=pos + 1)
    tk.depth += 1
    if value == "-":
        tk.next()
        out = ex.Sub(ex.Const(0.0), _parse_unary(tk, dim, t_index))
    else:
        out = _parse_power(tk, dim, t_index)
    tk.depth -= 1
    return out


def _parse_power(tk, dim, t_index):
    base = _parse_atom(tk, dim, t_index)
    if tk.peek()[1] == "^":
        tk.next()
        kind, value, pos = tk.next()
        negative = value == "-"
        if negative:
            kind, value, pos = tk.next()
        if kind != "num" or "." in value:
            raise SpecParseError("exponent must be an integer literal",
                                 column=pos + 1)
        k = int(value)
        if negative:
            raise SpecParseError("negative exponents are not supported; "
                                 "use a quotient", column=pos + 1)
        if k == 0:
            return ex.Const(1.0)
        return ex.Pow(base, k)
    return base


def _parse_atom(tk, dim, t_index):
    kind, value, pos = tk.next()
    if kind == "num":
        return ex.Const(float(value))
    if value == "(":
        inner = _parse_sum(tk, dim, t_index)
        tk.expect(")")
        return inner
    if kind == "ident":
        if value in _NODES:
            node = _NODES[value]
            tk.expect("(")
            args = [_parse_sum(tk, dim, t_index)]
            for _ in range(node.arity - 1):
                tk.expect(",")
                args.append(_parse_sum(tk, dim, t_index))
            tk.expect(")")
            return node(*args)
        if value == "t":
            if t_index is None:
                raise SpecParseError(
                    "t is only available on cylinder bases", column=pos + 1)
            return ex.Var(t_index)
        m = re.fullmatch(r"x(\d+)", value)
        if m:
            index = int(m.group(1))
            if dim is not None and index >= dim:
                raise SpecParseError(
                    f"variable x{index} exceeds dimension {dim}",
                    column=pos + 1)
            return ex.Var(index)
        raise SpecParseError(f"unknown identifier {value!r}", column=pos + 1)
    raise SpecParseError(f"unexpected token {value!r}", column=pos + 1)

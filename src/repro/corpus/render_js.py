"""Lower the corpus IR to JavaScript source text."""

from __future__ import annotations

from typing import List

from .ir import (
    BOOL,
    MAP_STR_INT,
    STRING,
    Append,
    Assign,
    Aug,
    Bin,
    Break,
    CallFree,
    CallLocal,
    Decl,
    Expr,
    ExprStmt,
    FileSpec,
    ForEach,
    ForRange,
    Function,
    If,
    Incr,
    Index,
    Len,
    Lit,
    MapGet,
    MapHas,
    MapPut,
    NewCollection,
    Not,
    Return,
    Stmt,
    StrCat,
    Throw,
    Var,
    While,
)

_INDENT = "  "


def render_expr(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.slot.name
    if isinstance(expr, Lit):
        return _literal(expr)
    if isinstance(expr, Bin):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, Not):
        return f"!{render_expr(expr.operand)}"
    if isinstance(expr, CallFree):
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, CallLocal):
        args = ", ".join(render_expr(a) for a in expr.args)
        first, *rest = expr.name_subtokens
        name = first + "".join(part.capitalize() for part in rest)
        return f"{name}({args})"
    if isinstance(expr, Len):
        return f"{render_expr(expr.operand)}.length"
    if isinstance(expr, Index):
        return f"{render_expr(expr.collection)}[{render_expr(expr.index)}]"
    if isinstance(expr, MapGet):
        return f"{render_expr(expr.map)}[{render_expr(expr.key)}]"
    if isinstance(expr, MapHas):
        return f"{render_expr(expr.map)}.hasOwnProperty({render_expr(expr.key)})"
    if isinstance(expr, StrCat):
        return f"({render_expr(expr.left)} + {render_expr(expr.right)})"
    if isinstance(expr, NewCollection):
        return "{}" if expr.type == MAP_STR_INT else "[]"
    raise TypeError(f"unknown expression {expr!r}")


def _literal(lit: Lit) -> str:
    if lit.value is None:
        return "null"
    if lit.type == BOOL:
        return "true" if lit.value else "false"
    if lit.type == STRING:
        return '"' + str(lit.value) + '"'
    return repr(lit.value)


def render_stmt(stmt: Stmt, depth: int) -> List[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Decl):
        if stmt.init is None:
            return [f"{pad}var {stmt.slot.name};"]
        return [f"{pad}var {stmt.slot.name} = {render_expr(stmt.init)};"]
    if isinstance(stmt, Assign):
        return [f"{pad}{render_expr(stmt.target)} = {render_expr(stmt.value)};"]
    if isinstance(stmt, Aug):
        return [f"{pad}{render_expr(stmt.target)} {stmt.op}= {render_expr(stmt.value)};"]
    if isinstance(stmt, Incr):
        return [f"{pad}{render_expr(stmt.target)}++;"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({render_expr(stmt.cond)}) {{"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.orelse:
                lines.extend(render_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while ({render_expr(stmt.cond)}) {{"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ForRange):
        name = stmt.slot.name
        header = (
            f"{pad}for (var {name} = 0; {name} < {render_expr(stmt.stop)}; {name}++) {{"
        )
        lines = [header]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ForEach):
        lines = [f"{pad}for (var {stmt.slot.name} of {render_expr(stmt.iterable)}) {{"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {render_expr(stmt.value)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{render_expr(stmt.expr)};"]
    if isinstance(stmt, Break):
        return [f"{pad}break;"]
    if isinstance(stmt, Append):
        return [f"{pad}{render_expr(stmt.collection)}.push({render_expr(stmt.value)});"]
    if isinstance(stmt, MapPut):
        return [
            f"{pad}{render_expr(stmt.map)}[{render_expr(stmt.key)}] = "
            f"{render_expr(stmt.value)};"
        ]
    if isinstance(stmt, Throw):
        return [f'{pad}throw new Error("{stmt.message}");']
    raise TypeError(f"unknown statement {stmt!r}")


def render_function(fn: Function) -> str:
    params = ", ".join(p.name for p in fn.params)
    lines = [f"function {fn.camel_name()}({params}) {{"]
    for stmt in fn.body:
        lines.extend(render_stmt(stmt, 1))
    lines.append("}")
    return "\n".join(lines)


def render_file(spec: FileSpec) -> str:
    """Render a file spec to a JavaScript module."""
    chunks = [render_function(fn) for fn in spec.functions]
    return "\n\n".join(chunks) + "\n"

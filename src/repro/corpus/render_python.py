"""Lower the corpus IR to Python source text."""

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

_INDENT = "    "

_OP_MAP = {"&&": "and", "||": "or"}


def render_expr(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.slot.name
    if isinstance(expr, Lit):
        return _literal(expr)
    if isinstance(expr, Bin):
        op = _OP_MAP.get(expr.op, expr.op)
        return f"({render_expr(expr.left)} {op} {render_expr(expr.right)})"
    if isinstance(expr, Not):
        return f"not {render_expr(expr.operand)}"
    if isinstance(expr, CallFree):
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, CallLocal):
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"{'_'.join(expr.name_subtokens)}({args})"
    if isinstance(expr, Len):
        return f"len({render_expr(expr.operand)})"
    if isinstance(expr, Index):
        return f"{render_expr(expr.collection)}[{render_expr(expr.index)}]"
    if isinstance(expr, MapGet):
        return f"{render_expr(expr.map)}[{render_expr(expr.key)}]"
    if isinstance(expr, MapHas):
        return f"({render_expr(expr.key)} in {render_expr(expr.map)})"
    if isinstance(expr, StrCat):
        return f"({render_expr(expr.left)} + {render_expr(expr.right)})"
    if isinstance(expr, NewCollection):
        return "{}" if expr.type == MAP_STR_INT else "[]"
    raise TypeError(f"unknown expression {expr!r}")


def _literal(lit: Lit) -> str:
    if lit.value is None:
        return "None"
    if lit.type == BOOL:
        return "True" if lit.value else "False"
    if lit.type == STRING:
        return '"' + str(lit.value) + '"'
    return repr(lit.value)


def render_stmt(stmt: Stmt, depth: int) -> List[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Decl):
        init = "None" if stmt.init is None else render_expr(stmt.init)
        return [f"{pad}{stmt.slot.name} = {init}"]
    if isinstance(stmt, Assign):
        return [f"{pad}{render_expr(stmt.target)} = {render_expr(stmt.value)}"]
    if isinstance(stmt, Aug):
        return [f"{pad}{render_expr(stmt.target)} {stmt.op}= {render_expr(stmt.value)}"]
    if isinstance(stmt, Incr):
        return [f"{pad}{render_expr(stmt.target)} += 1"]
    if isinstance(stmt, If):
        lines = [f"{pad}if {render_expr(stmt.cond)}:"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        if not stmt.body:
            lines.append(f"{pad}{_INDENT}pass")
        if stmt.orelse:
            lines.append(f"{pad}else:")
            for inner in stmt.orelse:
                lines.extend(render_stmt(inner, depth + 1))
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while {render_expr(stmt.cond)}:"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        if not stmt.body:
            lines.append(f"{pad}{_INDENT}pass")
        return lines
    if isinstance(stmt, ForRange):
        lines = [f"{pad}for {stmt.slot.name} in range({render_expr(stmt.stop)}):"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        if not stmt.body:
            lines.append(f"{pad}{_INDENT}pass")
        return lines
    if isinstance(stmt, ForEach):
        lines = [f"{pad}for {stmt.slot.name} in {render_expr(stmt.iterable)}:"]
        for inner in stmt.body:
            lines.extend(render_stmt(inner, depth + 1))
        if not stmt.body:
            lines.append(f"{pad}{_INDENT}pass")
        return lines
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [f"{pad}return"]
        return [f"{pad}return {render_expr(stmt.value)}"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{render_expr(stmt.expr)}"]
    if isinstance(stmt, Break):
        return [f"{pad}break"]
    if isinstance(stmt, Append):
        return [f"{pad}{render_expr(stmt.collection)}.append({render_expr(stmt.value)})"]
    if isinstance(stmt, MapPut):
        return [
            f"{pad}{render_expr(stmt.map)}[{render_expr(stmt.key)}] = "
            f"{render_expr(stmt.value)}"
        ]
    if isinstance(stmt, Throw):
        return [f'{pad}raise ValueError("{stmt.message}")']
    raise TypeError(f"unknown statement {stmt!r}")


def render_function(fn: Function) -> str:
    params = ", ".join(p.name for p in fn.params)
    lines = [f"def {fn.snake_name()}({params}):"]
    body_lines: List[str] = []
    for stmt in fn.body:
        body_lines.extend(render_stmt(stmt, 1))
    if not body_lines:
        body_lines = [f"{_INDENT}pass"]
    return "\n".join(lines + body_lines)


def render_file(spec: FileSpec) -> str:
    """Render a file spec to a Python module."""
    chunks = [render_function(fn) for fn in spec.functions]
    return "\n\n\n".join(chunks) + "\n"

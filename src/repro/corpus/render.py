"""Lower the corpus IR to JavaScript, Java, Python or C# source text.

One walk serves all four languages: everything a language spells its
own way (indentation, statement terminator, block style, type names,
literals, per-node templates, name styles, function header and file
wrapper) lives in its :class:`Syntax` record, and the walk only fills
those templates in.  Java's imports are the type tags the walk meets
while it renders a file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .ir import (
    BOOL,
    DOUBLE,
    INT,
    LIST_INT,
    LIST_STRING,
    MAP_STR_INT,
    OBJECT,
    STRING,
    VOID,
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
    VarSlot,
    While,
    camel,
    custom_simple_name,
    expr_type,
    is_custom,
    pascal,
    snake,
)


@dataclass(frozen=True)
class Syntax:
    """How one language spells the IR; read by the walk, never branched on."""

    indent: str
    #: Statement terminator.
    end: str
    #: Block header suffix, the line between a body and its else branch,
    #: and the closing line ("" for none).
    block_open: str
    block_else: str
    block_close: str
    #: The one line of an empty body ("" for none).
    empty_body: str
    null: str
    true: str
    false: str
    #: Style of a function's name, at its definition and at a local call.
    name_style: Callable[[Sequence[str]], str]
    #: Templates of the nodes a language spells its own way, keyed by
    #: kind: ``incr``, ``if``, ``while``, ``for_range``, ``for_each``,
    #: ``not``, ``len`` and ``len_string`` (a string's length),
    #: ``index``, ``map_get``, ``map_has``, ``map_put``, ``append``,
    #: ``throw``, ``free_call`` (``{Name}`` is the capitalised name),
    #: ``decl`` and ``decl_bare`` (no initialiser).
    nodes: Dict[str, str]
    #: Constructor of an empty collection, keyed by type tag.
    new: Dict[str, str]
    #: Function header; functions sit ``fn_depth`` levels deep.
    fn_header: str
    param: str
    fn_depth: int = 0
    #: Type names of the typed languages, keyed by type tag.
    types: Dict[str, str] = field(default_factory=dict)
    #: IR operators spelled otherwise.
    ops: Dict[str, str] = field(default_factory=dict)
    #: File text is ``fn_sep.join([file_head, *functions, file_tail])``,
    #: leaving out an empty head or tail.
    file_head: str = ""
    file_tail: str = ""
    fn_sep: str = "\n\n"
    #: Imports a type tag needs, the import of a custom type, and the
    #: line that imports one name.
    imports: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    custom_import: str = ""
    import_line: str = ""


#: Node templates JavaScript, Java and C# share; each overrides its own.
_C_NODES = {
    "incr": "{target}++",
    "if": "if ({cond})",
    "while": "while ({cond})",
    "for_range": "for ({type} {name} = 0; {name} < {stop}; {name}++)",
    "not": "!{operand}",
    "index": "{collection}[{index}]",
    "map_get": "{map}[{key}]",
    "map_put": "{map}[{key}] = {value}",
    "free_call": "{name}({args})",
    "decl": "{type} {name} = {init}",
    "decl_bare": "{type} {name}",
}

_BRACES = {"block_open": " {", "block_else": "} else {", "block_close": "}", "empty_body": ""}

SYNTAX: Dict[str, Syntax] = {
    "javascript": Syntax(
        indent="  ",
        end=";",
        **_BRACES,
        null="null",
        true="true",
        false="false",
        name_style=camel,
        nodes={
            **_C_NODES,
            "for_range": "for (var {name} = 0; {name} < {stop}; {name}++)",
            "for_each": "for (var {name} of {iterable})",
            "len": "{operand}.length",
            "len_string": "{operand}.length",
            "map_has": "{map}.hasOwnProperty({key})",
            "append": "{collection}.push({value})",
            "throw": 'throw new Error("{message}")',
            "decl": "var {name} = {init}",
            "decl_bare": "var {name}",
        },
        new={MAP_STR_INT: "{}", LIST_INT: "[]", LIST_STRING: "[]"},
        fn_header="function {name}({params})",
        param="{name}",
    ),
    "java": Syntax(
        indent="    ",
        end=";",
        **_BRACES,
        null="null",
        true="true",
        false="false",
        name_style=camel,
        nodes={
            **_C_NODES,
            "for_each": "for ({type} {name} : {iterable})",
            "len": "{operand}.size()",
            "len_string": "{operand}.length()",
            "index": "{collection}.get({index})",
            "map_get": "{map}.get({key})",
            "map_has": "{map}.containsKey({key})",
            "map_put": "{map}.put({key}, {value})",
            "append": "{collection}.add({value})",
            "throw": 'throw new IllegalArgumentException("{message}")',
        },
        new={
            MAP_STR_INT: "new HashMap<String, Integer>()",
            LIST_INT: "new ArrayList<Integer>()",
            LIST_STRING: "new ArrayList<String>()",
        },
        fn_header="public {type} {name}({params})",
        param="{type} {name}",
        fn_depth=1,
        types={
            INT: "int",
            DOUBLE: "double",
            BOOL: "boolean",
            STRING: "String",
            LIST_INT: "List<Integer>",
            LIST_STRING: "List<String>",
            MAP_STR_INT: "Map<String, Integer>",
            VOID: "void",
            OBJECT: "Object",
        },
        file_head="package com.{project}.app;\n\n{imports}public class {class_name} {{",
        file_tail="}",
        imports={
            LIST_INT: ("java.util.List", "java.util.ArrayList"),
            LIST_STRING: ("java.util.List", "java.util.ArrayList"),
            MAP_STR_INT: ("java.util.Map", "java.util.HashMap"),
        },
        # Custom classes qualify with a project-dependent package, so the
        # same simple name denotes different full types across projects
        # (the full-type task's ambiguity source).
        custom_import="com.{project}.net.{name}",
        import_line="import {};\n",
    ),
    "python": Syntax(
        indent="    ",
        end="",
        block_open=":",
        block_else="else:",
        block_close="",
        empty_body="pass",
        null="None",
        true="True",
        false="False",
        name_style=snake,
        nodes={
            "incr": "{target} += 1",
            "if": "if {cond}",
            "while": "while {cond}",
            "for_range": "for {name} in range({stop})",
            "for_each": "for {name} in {iterable}",
            "not": "not {operand}",
            "len": "len({operand})",
            "len_string": "len({operand})",
            "index": "{collection}[{index}]",
            "map_get": "{map}[{key}]",
            "map_has": "({key} in {map})",
            "map_put": "{map}[{key}] = {value}",
            "append": "{collection}.append({value})",
            "throw": 'raise ValueError("{message}")',
            "free_call": "{name}({args})",
            "decl": "{name} = {init}",
            "decl_bare": "{name} = None",
        },
        new={MAP_STR_INT: "{}", LIST_INT: "[]", LIST_STRING: "[]"},
        fn_header="def {name}({params})",
        param="{name}",
        ops={"&&": "and", "||": "or"},
        fn_sep="\n\n\n",
    ),
    "csharp": Syntax(
        indent="    ",
        end=";",
        **_BRACES,
        null="null",
        true="true",
        false="false",
        name_style=pascal,
        nodes={
            **_C_NODES,
            "for_each": "foreach ({type} {name} in {iterable})",
            "len": "{operand}.Count",
            "len_string": "{operand}.Length",
            "map_has": "{map}.ContainsKey({key})",
            "append": "{collection}.Add({value})",
            "throw": 'throw new ArgumentException("{message}")',
            # Free functions become static calls on a Helpers class so the
            # source is structurally idiomatic C#.
            "free_call": "Helpers.{Name}({args})",
        },
        new={
            MAP_STR_INT: "new Dictionary<string, int>()",
            LIST_INT: "new List<int>()",
            LIST_STRING: "new List<string>()",
        },
        fn_header="public {type} {name}({params})",
        param="{type} {name}",
        fn_depth=2,
        types={
            INT: "int",
            DOUBLE: "double",
            BOOL: "bool",
            STRING: "string",
            LIST_INT: "List<int>",
            LIST_STRING: "List<string>",
            MAP_STR_INT: "Dictionary<string, int>",
            VOID: "void",
            OBJECT: "object",
        },
        file_head=(
            "using System;\nusing System.Collections.Generic;\n\n"
            "namespace {Project}.App {{\n    public class {class_name} {{"
        ),
        file_tail="    }\n}",
    ),
}


class _Walk:
    """One rendering pass; remembers the type tags it met (for imports)."""

    def __init__(self, language: str):
        self.syntax = SYNTAX[language]
        self.types: Set[str] = set()

    def type_name(self, tag: str) -> str:
        self.types.add(tag)
        if is_custom(tag):
            return custom_simple_name(tag)
        return self.syntax.types.get(tag, tag)

    def slot(self, slot: VarSlot) -> Dict[str, str]:
        return {"type": self.type_name(slot.type), "name": slot.name}

    def fill(self, kind: str, **values: str) -> str:
        return self.syntax.nodes[kind].format(**values)

    # -- expressions ---------------------------------------------------

    def expr(self, expr: Expr) -> str:
        return _EXPR[type(expr)](self, expr)

    def args(self, args: List[Expr]) -> str:
        return ", ".join(self.expr(arg) for arg in args)

    def literal(self, lit: Lit) -> str:
        syntax = self.syntax
        if lit.value is None:
            return syntax.null
        if lit.type == BOOL:
            return syntax.true if lit.value else syntax.false
        if lit.type == STRING:
            return '"' + str(lit.value) + '"'
        if lit.type == DOUBLE:
            text = repr(float(lit.value))
            return text if "." in text or "e" in text else text + ".0"
        return repr(lit.value)

    def free_call(self, call: CallFree) -> str:
        # The call's value has the return type, so Java imports it.
        self.types.add(call.return_type)
        name = call.name
        return self.fill(
            "free_call", name=name, Name=name[:1].upper() + name[1:], args=self.args(call.args)
        )

    def new_collection(self, new: NewCollection) -> str:
        self.types.add(new.type)
        return self.syntax.new[new.type]

    def length(self, length: Len) -> str:
        kind = "len_string" if expr_type(length.operand) == STRING else "len"
        return self.fill(kind, operand=self.expr(length.operand))

    # -- statements ----------------------------------------------------

    def stmt(self, stmt: Stmt, depth: int, out: List[str]) -> None:
        block = _BLOCK.get(type(stmt))
        if block is None:
            syntax = self.syntax
            out.append(syntax.indent * depth + _SIMPLE[type(stmt)](self, stmt) + syntax.end)
        else:
            header, body, orelse = block(self, stmt)
            self.block(header, body, depth, out, orelse)

    def block(
        self, header: str, body: List[Stmt], depth: int, out: List[str], orelse: Sequence[Stmt] = ()
    ) -> None:
        syntax = self.syntax
        pad = syntax.indent * depth
        out.append(pad + header + syntax.block_open)
        self.body(body, depth + 1, out)
        if orelse:
            out.append(pad + syntax.block_else)
            self.body(orelse, depth + 1, out)
        if syntax.block_close:
            out.append(pad + syntax.block_close)

    def body(self, stmts: List[Stmt], depth: int, out: List[str]) -> None:
        for stmt in stmts:
            self.stmt(stmt, depth, out)
        if not stmts and self.syntax.empty_body:
            out.append(self.syntax.indent * depth + self.syntax.empty_body)

    # -- functions -----------------------------------------------------

    def function(self, fn: Function) -> str:
        syntax = self.syntax
        params = ", ".join(syntax.param.format(**self.slot(param)) for param in fn.params)
        header = syntax.fn_header.format(
            type=self.type_name(fn.return_type), name=syntax.name_style(fn.name_subtokens),
            params=params,
        )
        out: List[str] = []
        self.block(header, fn.body, syntax.fn_depth, out)
        return "\n".join(out)

    def imports(self, project: str) -> str:
        syntax = self.syntax
        names: Set[str] = set()
        for tag in self.types:
            if not is_custom(tag):
                names.update(syntax.imports.get(tag, ()))
            elif syntax.custom_import:
                simple = custom_simple_name(tag)
                names.add(syntax.custom_import.format(project=project, name=simple))
        text = "".join(syntax.import_line.format(name) for name in sorted(names))
        return text + "\n" if text else ""


_EXPR: Dict[type, Callable[[_Walk, object], str]] = {
    Var: lambda walk, expr: expr.slot.name,
    Lit: _Walk.literal,
    Bin: lambda walk, expr: (
        f"({walk.expr(expr.left)} {walk.syntax.ops.get(expr.op, expr.op)} {walk.expr(expr.right)})"
    ),
    Not: lambda walk, expr: walk.fill("not", operand=walk.expr(expr.operand)),
    CallFree: _Walk.free_call,
    CallLocal: lambda walk, expr: (
        f"{walk.syntax.name_style(expr.name_subtokens)}({walk.args(expr.args)})"
    ),
    Len: _Walk.length,
    Index: lambda walk, expr: walk.fill(
        "index", collection=walk.expr(expr.collection), index=walk.expr(expr.index)
    ),
    MapGet: lambda walk, expr: walk.fill(
        "map_get", map=walk.expr(expr.map), key=walk.expr(expr.key)
    ),
    MapHas: lambda walk, expr: walk.fill(
        "map_has", map=walk.expr(expr.map), key=walk.expr(expr.key)
    ),
    StrCat: lambda walk, expr: f"({walk.expr(expr.left)} + {walk.expr(expr.right)})",
    NewCollection: _Walk.new_collection,
}

#: Statements with a body, as (header, body, else branch).
_BLOCK: Dict[type, Callable[[_Walk, object], Tuple[str, List[Stmt], Sequence[Stmt]]]] = {
    If: lambda walk, stmt: (walk.fill("if", cond=walk.expr(stmt.cond)), stmt.body, stmt.orelse),
    While: lambda walk, stmt: (walk.fill("while", cond=walk.expr(stmt.cond)), stmt.body, ()),
    ForRange: lambda walk, stmt: (
        walk.fill("for_range", **walk.slot(stmt.slot), stop=walk.expr(stmt.stop)), stmt.body, ()
    ),
    ForEach: lambda walk, stmt: (
        walk.fill("for_each", **walk.slot(stmt.slot), iterable=walk.expr(stmt.iterable)),
        stmt.body,
        (),
    ),
}

#: One-line statements, without indent and terminator.
_SIMPLE: Dict[type, Callable[[_Walk, object], str]] = {
    Decl: lambda walk, stmt: (
        walk.fill("decl_bare", **walk.slot(stmt.slot))
        if stmt.init is None
        else walk.fill("decl", **walk.slot(stmt.slot), init=walk.expr(stmt.init))
    ),
    Assign: lambda walk, stmt: f"{walk.expr(stmt.target)} = {walk.expr(stmt.value)}",
    Aug: lambda walk, stmt: f"{walk.expr(stmt.target)} {stmt.op}= {walk.expr(stmt.value)}",
    Incr: lambda walk, stmt: walk.fill("incr", target=walk.expr(stmt.target)),
    Return: lambda walk, stmt: (
        "return" if stmt.value is None else f"return {walk.expr(stmt.value)}"
    ),
    ExprStmt: lambda walk, stmt: walk.expr(stmt.expr),
    Break: lambda walk, stmt: "break",
    Append: lambda walk, stmt: walk.fill(
        "append", collection=walk.expr(stmt.collection), value=walk.expr(stmt.value)
    ),
    MapPut: lambda walk, stmt: walk.fill(
        "map_put", map=walk.expr(stmt.map), key=walk.expr(stmt.key), value=walk.expr(stmt.value)
    ),
    Throw: lambda walk, stmt: walk.fill("throw", message=stmt.message),
}


def render_expr(expr: Expr, language: str) -> str:
    return _Walk(language).expr(expr)


def render_stmt(stmt: Stmt, language: str, depth: int = 0) -> List[str]:
    out: List[str] = []
    _Walk(language).stmt(stmt, depth, out)
    return out


def render_function(fn: Function, language: str) -> str:
    return _Walk(language).function(fn)


def render_file(spec: FileSpec, language: str) -> str:
    """Render a file spec to one source file of ``language``."""
    walk = _Walk(language)
    functions = [walk.function(fn) for fn in spec.functions]
    syntax = walk.syntax
    head = syntax.file_head.format(
        project=spec.project,
        Project=spec.project.capitalize(),
        class_name=spec.class_name or "".join(part.capitalize() for part in spec.module.split("_")),
        imports=walk.imports(spec.project),
    )
    parts = [head, *functions, syntax.file_tail]
    return syntax.fn_sep.join(part for part in parts if part) + "\n"

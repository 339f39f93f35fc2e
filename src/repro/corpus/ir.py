"""Language-independent program IR used by the corpus generator.

Semantic templates (``templates.py``) build functions in this IR; the
per-language renderers (``render_*.py``) lower it to concrete source
text, which the corresponding frontend then parses back.  The IR is
deliberately tiny: just enough structure to express the naming patterns
the paper's tasks learn (flags, counters, accumulators, searches,
builders, handlers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------

#: Abstract type tags, lowered per language by the renderers.
INT = "int"
DOUBLE = "double"
BOOL = "bool"
STRING = "string"
LIST_INT = "list<int>"
LIST_STRING = "list<string>"
MAP_STR_INT = "map<string,int>"
VOID = "void"
OBJECT = "object"

#: Custom project types: ``custom:<SimpleName>``.  The Java/C# renderers
#: qualify the simple name with a *project-dependent* package, so the
#: same simple name maps to different full types across projects -- the
#: ambiguity that makes the paper's full-type task nontrivial
#: (``com.mysql.jdbc.Connection`` vs ``org.apache.http.Connection``).
CUSTOM_PREFIX = "custom:"


def custom_type(simple_name: str) -> str:
    return CUSTOM_PREFIX + simple_name


def is_custom(type_tag: str) -> bool:
    return type_tag.startswith(CUSTOM_PREFIX)


def custom_simple_name(type_tag: str) -> str:
    if not is_custom(type_tag):
        raise ValueError(f"not a custom type tag: {type_tag}")
    return type_tag[len(CUSTOM_PREFIX):]


ALL_TYPES = (INT, DOUBLE, BOOL, STRING, LIST_INT, LIST_STRING, MAP_STR_INT, VOID, OBJECT)


def element_type(collection_type: str) -> str:
    """Element type of a collection tag."""
    if collection_type == LIST_INT:
        return INT
    if collection_type == LIST_STRING:
        return STRING
    if collection_type == MAP_STR_INT:
        return INT
    raise ValueError(f"not a collection type: {collection_type}")


# ----------------------------------------------------------------------
# Variables
# ----------------------------------------------------------------------


@dataclass
class VarSlot:
    """A named variable (local or parameter) in a generated function."""

    name: str
    type: str
    kind: str = "local"  # "local" | "param"


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass
class Var:
    slot: VarSlot


@dataclass
class Lit:
    value: Union[int, float, bool, str, None]
    type: str


@dataclass
class Bin:
    op: str  # + - * / % == != < > <= >= && ||
    left: "Expr"
    right: "Expr"


@dataclass
class Not:
    operand: "Expr"


@dataclass
class CallFree:
    """Call to a free/domain function, e.g. ``someCondition()``."""

    name: str
    args: List["Expr"] = field(default_factory=list)
    return_type: str = OBJECT


@dataclass
class CallLocal:
    """Call to a method defined in the same file.

    Renderers style the name per language (camelCase for JS/Java,
    snake_case for Python, PascalCase for C#); these are the invocation
    sites the method-naming task's *external paths* come from.
    """

    name_subtokens: Tuple[str, ...]
    args: List["Expr"] = field(default_factory=list)
    return_type: str = VOID


@dataclass
class Len:
    """Collection/string length; lowered per language."""

    operand: "Expr"


@dataclass
class Index:
    collection: "Expr"
    index: "Expr"


@dataclass
class MapGet:
    map: "Expr"
    key: "Expr"


@dataclass
class MapHas:
    map: "Expr"
    key: "Expr"


@dataclass
class StrCat:
    left: "Expr"
    right: "Expr"


@dataclass
class NewCollection:
    type: str  # LIST_INT / LIST_STRING / MAP_STR_INT


Expr = Union[
    Var, Lit, Bin, Not, CallFree, CallLocal, Len, Index, MapGet, MapHas, StrCat,
    NewCollection,
]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass
class Decl:
    slot: VarSlot
    init: Optional[Expr] = None


@dataclass
class Assign:
    target: Expr  # Var or Index
    value: Expr


@dataclass
class Aug:
    target: Var
    op: str  # + - *
    value: Expr


@dataclass
class Incr:
    target: Var


@dataclass
class If:
    cond: Expr
    body: List["Stmt"]
    orelse: List["Stmt"] = field(default_factory=list)


@dataclass
class While:
    cond: Expr
    body: List["Stmt"]


@dataclass
class ForRange:
    """``for (int i = 0; i < stop; i++)`` and per-language equivalents."""

    slot: VarSlot
    stop: Expr
    body: List["Stmt"]


@dataclass
class ForEach:
    slot: VarSlot
    iterable: Expr
    body: List["Stmt"]


@dataclass
class Return:
    value: Optional[Expr] = None


@dataclass
class ExprStmt:
    expr: Expr


@dataclass
class Break:
    pass


@dataclass
class Append:
    """Append to a list; lowered to push/add/append/Add."""

    collection: Expr
    value: Expr


@dataclass
class MapPut:
    map: Expr
    key: Expr
    value: Expr


@dataclass
class Throw:
    message: str


Stmt = Union[
    Decl, Assign, Aug, Incr, If, While, ForRange, ForEach, Return, ExprStmt, Break,
    Append, MapPut, Throw,
]


# ----------------------------------------------------------------------
# Functions / files
# ----------------------------------------------------------------------


@dataclass
class Function:
    """One generated function/method."""

    #: Method name as subtokens, e.g. ("count", "items") -> countItems.
    name_subtokens: Tuple[str, ...]
    params: List[VarSlot]
    body: List[Stmt]
    return_type: str = VOID
    #: Template that produced this function (for analysis/ablation).
    template: str = ""

    def camel_name(self) -> str:
        first, *rest = self.name_subtokens
        return first + "".join(part.capitalize() for part in rest)

    def pascal_name(self) -> str:
        return "".join(part.capitalize() for part in self.name_subtokens)

    def snake_name(self) -> str:
        return "_".join(self.name_subtokens)


@dataclass
class FileSpec:
    """One generated source file (a class with methods, or a script)."""

    project: str
    module: str
    functions: List[Function]
    class_name: str = ""


def expr_type(expr: Expr) -> str:
    """Static type of an IR expression (used by the renderers)."""
    if isinstance(expr, Var):
        return expr.slot.type
    if isinstance(expr, Lit):
        return expr.type
    if isinstance(expr, Bin):
        if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return BOOL
        left = expr_type(expr.left)
        right = expr_type(expr.right)
        if STRING in (left, right):
            return STRING
        if DOUBLE in (left, right):
            return DOUBLE
        return INT
    if isinstance(expr, Not):
        return BOOL
    if isinstance(expr, (CallFree, CallLocal)):
        return expr.return_type
    if isinstance(expr, Len):
        return INT
    if isinstance(expr, Index):
        return element_type(expr_type(expr.collection))
    if isinstance(expr, MapGet):
        return element_type(expr_type(expr.map))
    if isinstance(expr, MapHas):
        return BOOL
    if isinstance(expr, StrCat):
        return STRING
    if isinstance(expr, NewCollection):
        return expr.type
    raise TypeError(f"unknown expression {expr!r}")


def default_value(type_tag: str) -> Expr:
    """A literal/constructor of the given type (used for caller stubs)."""
    if type_tag == INT:
        return Lit(0, INT)
    if type_tag == DOUBLE:
        return Lit(0.0, DOUBLE)
    if type_tag == BOOL:
        return Lit(True, BOOL)
    if type_tag == STRING:
        return Lit("x", STRING)
    if type_tag in (LIST_INT, LIST_STRING, MAP_STR_INT):
        return NewCollection(type_tag)
    return Lit(None, OBJECT)


def all_slots(fn: Function) -> List[VarSlot]:
    """Every distinct variable slot of a function (params + locals)."""
    seen: List[VarSlot] = []

    def expr_slots(expr: Expr) -> None:
        if isinstance(expr, Var):
            if expr.slot not in seen:
                seen.append(expr.slot)
        elif isinstance(expr, (Bin, StrCat)):
            expr_slots(expr.left)
            expr_slots(expr.right)
        elif isinstance(expr, Not):
            expr_slots(expr.operand)
        elif isinstance(expr, Len):
            expr_slots(expr.operand)
        elif isinstance(expr, Index):
            expr_slots(expr.collection)
            expr_slots(expr.index)
        elif isinstance(expr, (MapGet, MapHas)):
            expr_slots(expr.map)
            expr_slots(expr.key)
        elif isinstance(expr, (CallFree, CallLocal)):
            for arg in expr.args:
                expr_slots(arg)

    def stmt_slots(stmt: Stmt) -> None:
        if isinstance(stmt, Decl):
            if stmt.slot not in seen:
                seen.append(stmt.slot)
            if stmt.init is not None:
                expr_slots(stmt.init)
        elif isinstance(stmt, Assign):
            expr_slots(stmt.target)
            expr_slots(stmt.value)
        elif isinstance(stmt, Aug):
            expr_slots(stmt.target)
            expr_slots(stmt.value)
        elif isinstance(stmt, Incr):
            expr_slots(stmt.target)
        elif isinstance(stmt, If):
            expr_slots(stmt.cond)
            for s in stmt.body:
                stmt_slots(s)
            for s in stmt.orelse:
                stmt_slots(s)
        elif isinstance(stmt, While):
            expr_slots(stmt.cond)
            for s in stmt.body:
                stmt_slots(s)
        elif isinstance(stmt, ForRange):
            if stmt.slot not in seen:
                seen.append(stmt.slot)
            expr_slots(stmt.stop)
            for s in stmt.body:
                stmt_slots(s)
        elif isinstance(stmt, ForEach):
            if stmt.slot not in seen:
                seen.append(stmt.slot)
            expr_slots(stmt.iterable)
            for s in stmt.body:
                stmt_slots(s)
        elif isinstance(stmt, Return) and stmt.value is not None:
            expr_slots(stmt.value)
        elif isinstance(stmt, ExprStmt):
            expr_slots(stmt.expr)
        elif isinstance(stmt, Append):
            expr_slots(stmt.collection)
            expr_slots(stmt.value)
        elif isinstance(stmt, MapPut):
            expr_slots(stmt.map)
            expr_slots(stmt.key)
            expr_slots(stmt.value)

    for param in fn.params:
        if param not in seen:
            seen.append(param)
    for stmt in fn.body:
        stmt_slots(stmt)
    return seen

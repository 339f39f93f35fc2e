"""Rule-based Java variable naming (the paper's exact heuristics).

From Sec. 5.3.1, the baseline predicts names from pattern heuristics and
training-corpus statistics:

* ``for (int i = ...) {``            -> the classic loop-index name
* ``this.<fieldName> = <fieldName>`` -> setter-parameter naming
* ``catch (... e) {``                -> exception naming
* ``void set<FieldName>(... x)``     -> parameter named after the field
* otherwise: derive from the declared type (``HttpClient client``).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.ast_model import Ast, Node
from ..tasks.variable_naming import element_groups

#: Fallback names per primitive type (corpus statistics stand-ins).
_PRIMITIVE_NAMES = {
    "int": "i",
    "long": "l",
    "double": "d",
    "float": "f",
    "boolean": "flag",
    "char": "c",
    "byte": "b",
    "short": "s",
}


def _declared_type_name(occurrence: Node) -> Optional[str]:
    """Simple type name at an element's declaration site, if visible."""
    node = occurrence
    parent = node.parent
    if parent is None:
        return None
    if parent.kind in ("VariableDeclarator",):
        decl = parent.parent
        if decl is not None and decl.children:
            return _type_to_name(decl.children[0])
    if parent.kind == "Parameter":
        return _type_to_name(parent.children[0])
    return None


def _type_to_name(type_node: Node) -> Optional[str]:
    if type_node.kind == "PrimitiveType":
        return type_node.value
    if type_node.kind == "ClassType":
        return type_node.value
    if type_node.kind == "GenericType" and type_node.children:
        return _type_to_name(type_node.children[0])
    if type_node.kind == "ArrayType" and type_node.children:
        inner = _type_to_name(type_node.children[0])
        return None if inner is None else inner + "s"
    return None


def _is_for_loop_index(occurrence: Node) -> bool:
    """``for (int i = 0; ...)`` -- declarator directly in a ForStmt head."""
    node = occurrence
    declarator = node.parent
    if declarator is None or declarator.kind != "VariableDeclarator":
        return False
    decl = declarator.parent
    if decl is None or decl.kind != "VariableDeclarationExpr":
        return False
    return decl.parent is not None and decl.parent.kind == "ForStmt"


def _is_catch_param(occurrence: Node) -> bool:
    param = occurrence.parent
    return (
        param is not None
        and param.kind == "Parameter"
        and param.parent is not None
        and param.parent.kind == "CatchClause"
    )


def _setter_field_name(occurrence: Node) -> Optional[str]:
    """Parameter of a ``setFoo`` method -> ``foo``."""
    param = occurrence.parent
    if param is None or param.kind != "Parameter":
        return None
    method = param.parent
    if method is None or method.kind != "MethodDeclaration":
        return None
    method_name = method.children[1].value or ""
    if method_name.startswith("set") and len(method_name) > 3:
        field = method_name[3:]
        return field[0].lower() + field[1:]
    return None


def rule_based_predictions(ast: Ast) -> Dict[str, Optional[str]]:
    """binding -> predicted name for every renameable element."""
    predictions: Dict[str, Optional[str]] = {}
    for binding, occurrences in element_groups(ast).items():
        declaration = occurrences[0]
        prediction: Optional[str] = None
        if _is_for_loop_index(declaration):
            prediction = "i"
        elif _is_catch_param(declaration):
            prediction = "e"
        else:
            setter_name = _setter_field_name(declaration)
            if setter_name is not None:
                prediction = setter_name
            else:
                type_name = _declared_type_name(declaration)
                if type_name in _PRIMITIVE_NAMES:
                    prediction = _PRIMITIVE_NAMES[type_name]
                elif type_name:
                    prediction = type_name[0].lower() + type_name[1:]
        predictions[binding] = prediction
    return predictions

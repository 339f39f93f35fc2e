"""Local type inference for the Java frontend.

The paper's full-type task (Sec. 5.3.3) predicts the *fully qualified*
type of expressions (``com.mysql.jdbc.Connection``, not ``Connection``)
and evaluates only on expressions "that could be solved by a global type
inference engine".  This module plays that oracle role for our corpus:
it resolves simple type names to fully-qualified names via the file's
imports plus a built-in ``java.lang``/``java.util`` table, and propagates
types through expressions with standard Java rules (numeric promotion,
string concatenation, boolean operators, collection generics).

Inferred types are attached as ``meta["type"]`` to expression nodes; the
type-prediction task reads them as ground truth and as the evaluation
filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ...core.ast_model import Node

#: Well-known classes resolvable without an import statement (java.lang)
#: or via the standard imports our corpus emits.
BUILTIN_TYPES: Dict[str, str] = {
    "String": "java.lang.String",
    "Object": "java.lang.Object",
    "Integer": "java.lang.Integer",
    "Long": "java.lang.Long",
    "Double": "java.lang.Double",
    "Float": "java.lang.Float",
    "Boolean": "java.lang.Boolean",
    "Character": "java.lang.Character",
    "Byte": "java.lang.Byte",
    "Short": "java.lang.Short",
    "Math": "java.lang.Math",
    "System": "java.lang.System",
    "StringBuilder": "java.lang.StringBuilder",
    "Exception": "java.lang.Exception",
    "RuntimeException": "java.lang.RuntimeException",
    "IllegalArgumentException": "java.lang.IllegalArgumentException",
    "IllegalStateException": "java.lang.IllegalStateException",
    "Thread": "java.lang.Thread",
    "Runnable": "java.lang.Runnable",
    "List": "java.util.List",
    "ArrayList": "java.util.ArrayList",
    "LinkedList": "java.util.LinkedList",
    "Map": "java.util.Map",
    "HashMap": "java.util.HashMap",
    "TreeMap": "java.util.TreeMap",
    "Set": "java.util.Set",
    "HashSet": "java.util.HashSet",
    "TreeSet": "java.util.TreeSet",
    "Iterator": "java.util.Iterator",
    "Collection": "java.util.Collection",
    "Collections": "java.util.Collections",
    "Arrays": "java.util.Arrays",
    "Optional": "java.util.Optional",
    "Random": "java.util.Random",
    "Scanner": "java.util.Scanner",
    "Objects": "java.util.Objects",
    "IOException": "java.io.IOException",
    "File": "java.io.File",
    "BufferedReader": "java.io.BufferedReader",
    "FileReader": "java.io.FileReader",
    "PrintWriter": "java.io.PrintWriter",
    "InputStream": "java.io.InputStream",
    "OutputStream": "java.io.OutputStream",
}

_PRIMITIVES = {"int", "long", "double", "float", "boolean", "char", "byte", "short", "void"}

#: Return types of well-known instance methods, keyed by the *erased* full
#: receiver type.  ``"T"``/``"K"``/``"V"`` denote the receiver's generic
#: arguments; ``"T?"`` on a List means element type.
_METHOD_RETURNS: Dict[str, Dict[str, str]] = {
    "java.lang.String": {
        "length": "int",
        "charAt": "char",
        "substring": "java.lang.String",
        "toLowerCase": "java.lang.String",
        "toUpperCase": "java.lang.String",
        "trim": "java.lang.String",
        "replace": "java.lang.String",
        "concat": "java.lang.String",
        "split": "java.lang.String[]",
        "indexOf": "int",
        "isEmpty": "boolean",
        "equals": "boolean",
        "startsWith": "boolean",
        "endsWith": "boolean",
        "contains": "boolean",
        "hashCode": "int",
        "toString": "java.lang.String",
    },
    "java.lang.StringBuilder": {
        "append": "java.lang.StringBuilder",
        "toString": "java.lang.String",
        "length": "int",
        "reverse": "java.lang.StringBuilder",
    },
    "java.util.List": {
        "get": "T",
        "size": "int",
        "isEmpty": "boolean",
        "contains": "boolean",
        "add": "boolean",
        "remove": "T",
        "indexOf": "int",
        "iterator": "java.util.Iterator<T>",
    },
    "java.util.Set": {
        "size": "int",
        "isEmpty": "boolean",
        "contains": "boolean",
        "add": "boolean",
        "iterator": "java.util.Iterator<T>",
    },
    "java.util.Map": {
        "get": "V",
        "put": "V",
        "containsKey": "boolean",
        "containsValue": "boolean",
        "size": "int",
        "isEmpty": "boolean",
        "remove": "V",
        "keySet": "java.util.Set<K>",
    },
    "java.util.Iterator": {"next": "T", "hasNext": "boolean"},
    "java.util.Optional": {"get": "T", "isPresent": "boolean", "orElse": "T"},
    "java.util.Random": {
        "nextInt": "int",
        "nextDouble": "double",
        "nextBoolean": "boolean",
        "nextLong": "long",
    },
    "java.util.Scanner": {
        "nextInt": "int",
        "nextLine": "java.lang.String",
        "next": "java.lang.String",
        "hasNext": "boolean",
        "hasNextInt": "boolean",
    },
    "java.io.BufferedReader": {"readLine": "java.lang.String"},
    "java.io.File": {
        "getName": "java.lang.String",
        "getPath": "java.lang.String",
        "exists": "boolean",
        "isDirectory": "boolean",
        "length": "long",
    },
    "java.lang.Object": {"toString": "java.lang.String", "hashCode": "int", "equals": "boolean"},
}

#: Aliases: concrete collections share the interface method tables.
_METHOD_TABLE_ALIASES = {
    "java.util.ArrayList": "java.util.List",
    "java.util.LinkedList": "java.util.List",
    "java.util.HashSet": "java.util.Set",
    "java.util.TreeSet": "java.util.Set",
    "java.util.HashMap": "java.util.Map",
    "java.util.TreeMap": "java.util.Map",
}

#: Static method return types (receiver is a class name).
_STATIC_RETURNS: Dict[str, Dict[str, str]] = {
    "java.lang.Math": {
        "abs": "int",
        "max": "int",
        "min": "int",
        "sqrt": "double",
        "pow": "double",
        "floor": "double",
        "ceil": "double",
        "random": "double",
    },
    "java.lang.String": {"valueOf": "java.lang.String", "format": "java.lang.String"},
    "java.lang.Integer": {"parseInt": "int", "valueOf": "java.lang.Integer"},
    "java.lang.Double": {"parseDouble": "double", "valueOf": "java.lang.Double"},
    "java.lang.Boolean": {"parseBoolean": "boolean"},
    "java.util.Arrays": {"asList": "java.util.List", "toString": "java.lang.String"},
    "java.util.Objects": {"equals": "boolean", "hashCode": "int"},
    "java.util.Collections": {"emptyList": "java.util.List", "sort": "void"},
}


class TypeEnvironment:
    """Per-file type resolution context."""

    def __init__(self, package: str, imports: Dict[str, str], local_classes: Dict[str, str]):
        self.package = package
        self.imports = imports
        self.local_classes = local_classes

    def resolve(self, simple_name: str) -> Optional[str]:
        """Fully qualify a simple type name; None when unknown."""
        if simple_name in _PRIMITIVES:
            return simple_name
        if "." in simple_name:  # already qualified
            return simple_name
        if simple_name in self.imports:
            return self.imports[simple_name]
        if simple_name in self.local_classes:
            return self.local_classes[simple_name]
        if simple_name in BUILTIN_TYPES:
            return BUILTIN_TYPES[simple_name]
        return None


def _erase(full_type: str) -> str:
    """Erase generic arguments: ``java.util.List<...>`` -> ``java.util.List``."""
    idx = full_type.find("<")
    return full_type if idx < 0 else full_type[:idx]


def _generic_args(full_type: str) -> List[str]:
    """Top-level generic arguments of a parameterised type."""
    idx = full_type.find("<")
    if idx < 0 or not full_type.endswith(">"):
        return []
    inner = full_type[idx + 1 : -1]
    args: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in inner:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        args.append("".join(current).strip())
    return args


def type_node_to_name(node: Node, env: TypeEnvironment) -> Optional[str]:
    """Convert a parsed type node into a fully-qualified type string."""
    if node.kind == "PrimitiveType":
        return node.value
    if node.kind == "ClassType":
        return env.resolve(node.value or "")
    if node.kind == "GenericType":
        base = type_node_to_name(node.children[0], env)
        if base is None:
            return None
        args = []
        for child in node.children[1:]:
            arg = type_node_to_name(child, env)
            if arg is None:
                return None
            args.append(arg)
        return f"{base}<{', '.join(args)}>" if args else base
    if node.kind == "ArrayType":
        inner = type_node_to_name(node.children[0], env)
        return None if inner is None else f"{inner}[]"
    return None


def resolve_full_type(simple_name: str, imports: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Public helper: fully qualify a simple type name."""
    env = TypeEnvironment("", imports or {}, {})
    return env.resolve(simple_name)


def _collect_environment(root: Node) -> TypeEnvironment:
    package = ""
    imports: Dict[str, str] = {}
    local_classes: Dict[str, str] = {}
    for child in root.children:
        if child.kind == "PackageDeclaration":
            package = child.children[0].value or ""
        elif child.kind == "ImportDeclaration":
            fqn = child.children[0].value or ""
            simple = fqn.rsplit(".", 1)[-1]
            if simple != "*":
                imports[simple] = fqn
        elif child.kind in ("ClassDeclaration", "InterfaceDeclaration"):
            name = child.children[0].value or ""
            local_classes[name] = f"{package}.{name}" if package else name
    return TypeEnvironment(package, imports, local_classes)


def _collect_members(root: Node, env: TypeEnvironment) -> Dict[str, Dict[str, str]]:
    """Per-class member type tables: fields and method return types."""
    members: Dict[str, Dict[str, str]] = {}
    for class_node in root.children:
        if class_node.kind not in ("ClassDeclaration", "InterfaceDeclaration"):
            continue
        class_name = class_node.children[0].value or ""
        table: Dict[str, str] = {}
        for member in class_node.children:
            if member.kind == "FieldDeclaration":
                field_type = type_node_to_name(member.children[0], env)
                if field_type:
                    for declarator in member.find("VariableDeclarator"):
                        table[f"field:{declarator.children[0].value}"] = field_type
            elif member.kind == "MethodDeclaration":
                ret = type_node_to_name(member.children[0], env)
                name = member.children[1].value or ""
                if ret:
                    table[f"method:{name}"] = ret
        members[class_name] = table
    return members


class _TypeInferrer:
    def __init__(self, env: TypeEnvironment, members: Dict[str, Dict[str, str]]):
        self.env = env
        self.members = members

    def infer_method(self, class_name: str, method: Node) -> None:
        locals_: Dict[str, str] = {}
        table = self.members.get(class_name, {})

        def declared_type(node: Node) -> Optional[str]:
            return type_node_to_name(node, self.env)

        # One walk with an explicit stack (no frame per tree level):
        # declarations on the way down; a node's expression type once its
        # children are typed -- at once for a leaf, else at the 1-tuple
        # left under its children.
        stack: List[Union[Node, Tuple[Node]]] = [method]
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                node = node[0]
            else:
                if node.kind == "Parameter":
                    t = declared_type(node.children[0])
                    if t:
                        locals_[node.children[1].value or ""] = t
                        node.children[1].meta["type"] = t
                elif node.kind == "VariableDeclarationExpr":
                    t = declared_type(node.children[0])
                    if t:
                        for declarator in node.children:
                            if declarator.kind == "VariableDeclarator":
                                locals_[declarator.children[0].value or ""] = t
                                declarator.children[0].meta["type"] = t
                if node.children:
                    stack.append((node,))
                    stack.extend(reversed(node.children))
                    continue
            t = self.expression_type(node, locals_, table)
            if t is not None:
                node.meta["type"] = t

    # ------------------------------------------------------------------
    def expression_type(
        self, node: Node, locals_: Dict[str, str], table: Dict[str, str]
    ) -> Optional[str]:
        kind = node.kind
        if kind == "NameExpr":
            name = node.value or ""
            if name in locals_:
                return locals_[name]
            return table.get(f"field:{name}")
        if kind == "IntegerLiteral":
            return "long" if (node.value or "").rstrip("lL") != node.value else "int"
        if kind == "DoubleLiteral":
            return "double"
        if kind == "StringLiteral":
            return "java.lang.String"
        if kind == "CharLiteral":
            return "char"
        if kind == "BooleanLiteral":
            return "boolean"
        if kind == "ObjectCreationExpr":
            return type_node_to_name(node.children[0], self.env)
        if kind == "ArrayCreationExpr":
            base = type_node_to_name(node.children[0], self.env)
            return f"{base}[]" if base else None
        if kind == "CastExpr":
            return type_node_to_name(node.children[0], self.env)
        if kind == "InstanceOfExpr":
            return "boolean"
        if kind == "ConditionalExpr" and len(node.children) == 3:
            t1 = node.children[1].meta.get("type")
            t2 = node.children[2].meta.get("type")
            return t1 if t1 == t2 else t1 or t2
        if kind == "ArrayAccessExpr":
            arr = node.children[0].meta.get("type")
            if arr and arr.endswith("[]"):
                return arr[:-2]
            return None
        if kind.startswith("AssignExpr"):
            return node.children[0].meta.get("type")
        if kind.startswith("PostfixExpr") or kind in ("UnaryExpr++", "UnaryExpr--"):
            return node.children[0].meta.get("type")
        if kind == "UnaryExpr!":
            return "boolean"
        if kind in ("UnaryExpr-", "UnaryExpr+", "UnaryExpr~"):
            return node.children[0].meta.get("type")
        if kind.startswith("BinaryExpr"):
            op = kind[len("BinaryExpr") :]
            left = node.children[0].meta.get("type")
            right = node.children[1].meta.get("type")
            if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return "boolean"
            if op == "+" and ("java.lang.String" in (left, right)):
                return "java.lang.String"
            return _numeric_promote(left, right)
        if kind == "MethodCallExpr":
            return self._method_call_type(node, table)
        if kind == "FieldAccessExpr":
            receiver = node.children[0]
            member = node.children[1].value or ""
            if receiver.kind == "ThisExpr":
                return table.get(f"field:{member}")
            rtype = receiver.meta.get("type")
            if rtype and rtype.endswith("[]") and member == "length":
                return "int"
            return None
        if kind == "ThisExpr":
            return None  # the enclosing class type; not needed by the task
        return None

    def _method_call_type(self, node: Node, table: Dict[str, str]) -> Optional[str]:
        children = node.children
        # Unscoped call: first child is the SimpleName.
        if children[0].kind == "SimpleName":
            return table.get(f"method:{children[0].value}")
        receiver, name_node = children[0], children[1]
        method = name_node.value or ""
        if receiver.kind == "ThisExpr":
            return table.get(f"method:{method}")
        # Static call on a known class name.
        if receiver.kind == "NameExpr" and receiver.meta.get("type") is None:
            fqn = self.env.resolve(receiver.value or "")
            if fqn and fqn in _STATIC_RETURNS:
                return _STATIC_RETURNS[fqn].get(method)
            return None
        rtype = receiver.meta.get("type")
        if rtype is None:
            return None
        erased = _erase(rtype)
        erased = _METHOD_TABLE_ALIASES.get(erased, erased)
        returns = _METHOD_RETURNS.get(erased)
        if returns is None or method not in returns:
            return None
        ret = returns[method]
        args = _generic_args(rtype)
        if ret == "T":
            return args[0] if args else "java.lang.Object"
        if ret == "K":
            return args[0] if args else "java.lang.Object"
        if ret == "V":
            return args[1] if len(args) > 1 else "java.lang.Object"
        if "<T>" in ret:
            return ret.replace("<T>", f"<{args[0]}>" if args else "")
        if "<K>" in ret:
            return ret.replace("<K>", f"<{args[0]}>" if args else "")
        return ret


def _numeric_promote(left: Optional[str], right: Optional[str]) -> Optional[str]:
    order = ("double", "float", "long", "int", "short", "char", "byte")
    for t in order:
        if left == t or right == t:
            return t
    return None


def infer_types(root: Node) -> None:
    """Annotate every typeable expression of a compilation unit."""
    env = _collect_environment(root)
    members = _collect_members(root, env)
    inferrer = _TypeInferrer(env, members)
    for class_node in root.children:
        if class_node.kind not in ("ClassDeclaration", "InterfaceDeclaration"):
            continue
        class_name = class_node.children[0].value or ""
        for member in class_node.children:
            if member.kind in ("MethodDeclaration", "ConstructorDeclaration"):
                inferrer.infer_method(class_name, member)

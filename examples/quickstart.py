"""Quickstart: AST paths on the paper's running example (Figs. 1-2).

Parses the JavaScript snippet of Fig. 1a, prints its AST, extracts
path-contexts, and shows the two paths the paper highlights -- including
how the abstraction ladder of Sec. 5.6 coarsens them.

Run:  python examples/quickstart.py
"""

from repro import extract_path_contexts, parse_source
from repro.core.abstractions import ABSTRACTION_LADDER, get_abstraction
from repro.core.paths import path_between

FIG1 = """
var d = false;
while (!d) {
  if (someCondition()) {
    d = true;
  }
}
"""


def main() -> None:
    ast = parse_source("javascript", FIG1)

    print("=== AST (UglifyJS-style kinds) ===")
    print(ast.root.pretty())

    print("\n=== The paper's two highlighted paths ===")
    d_occurrences = [leaf for leaf in ast.leaves if leaf.value == "d"]
    p1 = path_between(d_occurrences[1], d_occurrences[2])
    print(f"p1 (d in while-cond -> d in assignment): {p1.encode()}")
    print(f"    length={p1.length}, width={p1.width}")

    true_leaf = next(leaf for leaf in ast.leaves if leaf.kind == "True")
    p4 = path_between(d_occurrences[2], true_leaf)
    print(f"p4 (d -> true):                          {p4.encode()}")

    print("\n=== All path-contexts with max_length=7, max_width=3 ===")
    for context in extract_path_contexts(ast, max_length=7, max_width=3):
        print(f"  {context}")

    print("\n=== The abstraction ladder on p1 (Sec. 5.6) ===")
    for name in ABSTRACTION_LADDER:
        alpha = get_abstraction(name)
        print(f"  {name:>16}: {alpha(p1)}")


if __name__ == "__main__":
    main()

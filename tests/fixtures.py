"""Shared source snippets for the test suite.

A plain helper module (not a conftest) so test files can import the
snippets by name without relying on conftest import semantics --
``from conftest import X`` breaks when another rootdir directory (e.g.
``benchmarks/``) contributes its own ``conftest.py`` to ``sys.path``
first.
"""

FIG1_JS = """
var d = false;
while (!d) {
  if (someCondition()) {
    d = true;
  }
}
"""

FIG4_JS = "var item = array[i];"

FIG5_JS = "var a, b, c, d;"

COUNT_JAVA = """
package com.example.app;
import java.util.List;

public class Counter {
    private int total;

    public int count(List<Integer> values, int value) {
        int c = 0;
        for (int r : values) {
            if (r == value) {
                c++;
            }
        }
        return c;
    }
}
"""

SH3_PYTHON = '''
def sh3(cmd):
    process = popen(cmd)
    retcode = process.returncode
    if retcode:
        raise CalledProcessError(retcode, cmd)
    return retcode
'''

COUNT_CSHARP = """
using System;
using System.Collections.Generic;

namespace Demo.App {
    public class Counter {
        public int Count(List<int> values, int value) {
            int c = 0;
            foreach (int r in values) {
                if (r == value) {
                    c++;
                }
            }
            return c;
        }
    }
}
"""


def states_equal(a, b) -> bool:
    """Whether two learner ``state_dict()`` snapshots are exactly equal.

    Dicts need the same keys, lists and tuples the same length, arrays
    the same dtype and shape and the same bytes (so ``-0.0 != 0.0``),
    and every other value the same type and ``repr``.
    """
    import numpy as np

    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(states_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(states_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return repr(a) == repr(b)


def crf_artifact_round_trip(model, path):
    """Pack a bare CRF model into a pigeon-model/1 artifact and load it back."""
    from repro.api import CrfLearner
    from repro.artifacts import ModelArtifact, restore_learner, write_state_artifact

    learner = CrfLearner()
    learner.model = model
    write_state_artifact(str(path), {}, "crf", learner.state_dict())
    learner = CrfLearner()
    restore_learner(learner, ModelArtifact.open(str(path), verify_payload=True))
    return learner.model


#: Plain-file stdlib modules present in CPython 3.10 through 3.13.
STDLIB_MODULES = (
    "bisect",
    "calendar",
    "colorsys",
    "copy",
    "fnmatch",
    "genericpath",
    "glob",
    "heapq",
    "posixpath",
    "shlex",
    "string",
    "textwrap",
)
#: Definitions per module, and their longest length in lines (the
#: all-pairs extraction oracle is quadratic in a definition's terminals,
#: the scalar CRF oracle linear in its factors).
DEFINITIONS_PER_MODULE = 4
MAX_DEFINITION_LINES = 40


def stdlib_definitions():
    """Source texts of the first top-level definitions of each pinned
    stdlib module, skipping modules this interpreter lacks."""
    import ast
    import os
    import sysconfig

    root = sysconfig.get_paths()["stdlib"]
    texts = []
    for module in STDLIB_MODULES:
        path = os.path.join(root, module + ".py")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lines = source.splitlines(keepends=True)
        taken = 0
        for node in ast.parse(source).body:
            if taken == DEFINITIONS_PER_MODULE:
                break
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            text = "".join(lines[node.lineno - 1 : node.end_lineno])
            if text.count("\n") > MAX_DEFINITION_LINES:
                continue
            texts.append(text)
            taken += 1
    return texts

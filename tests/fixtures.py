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


def crf_artifact_round_trip(model, path):
    """Pack a bare CRF model into a pigeon-model/1 artifact and load it back."""
    from repro.api import CrfLearner
    from repro.artifacts import ModelArtifact, restore_learner, write_state_artifact

    write_state_artifact(str(path), {}, "crf", {"model": model.to_dict()})
    learner = CrfLearner()
    restore_learner(learner, ModelArtifact.open(str(path), verify_payload=True))
    return learner.model

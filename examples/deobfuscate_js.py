"""Deobfuscate minified JavaScript (the paper's headline use case).

Trains PIGEON's CRF on a generated JavaScript corpus, then predicts names
for a program whose variables were stripped to single letters -- the
scenario of Figs. 1/7/8.  Also prints the top-k candidate suggestions
(Table 4a) enabled by the paper's Nice2Predict extension.

Run:  python examples/deobfuscate_js.py
"""

import os
import tempfile

from repro.api import Pipeline
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig

STRIPPED = """
function f(a, b) {
  var d = false;
  while (!d) {
    if (someCondition()) {
      d = true;
    }
  }
  var c = 0;
  for (var v of a) {
    if (v == b) {
      c++;
    }
  }
  return c;
}
"""


def main() -> None:
    print("Generating training corpus...")
    files = generate_corpus(
        CorpusConfig(language="javascript", n_projects=16, files_per_project=(5, 9), seed=8)
    )
    kept, removed = deduplicate(files)
    print(f"  {len(kept)} files after removing {removed} duplicates")

    pipeline = Pipeline(
        language="javascript",
        task="variable_naming",
        learner="crf",
        training={"epochs": 5},
    )
    stats = pipeline.train([f.source for f in kept])
    print(
        f"Trained on {stats.files_trained} files "
        f"({stats.elements_trained} elements, {stats.parameters} parameters, "
        f"{stats.train_seconds:.1f}s)"
    )

    print("\n=== Stripped program ===")
    print(STRIPPED)

    print("=== Predicted names ===")
    predictions = pipeline.predict(STRIPPED)
    for element, name in sorted(predictions.items()):
        print(f"  {element:>14} -> {name}")

    print("\n=== Top-5 candidates per element (Table 4a style) ===")
    for element, ranked in sorted(pipeline.suggest(STRIPPED, k=5).items()):
        names = ", ".join(name for name, _score in ranked)
        print(f"  {element:>14}: {names}")

    print("\n=== Save / reload the trained pipeline (pigeon-model/1 artifact) ===")
    model_path = os.path.join(tempfile.mkdtemp(), "deobfuscator.bin")
    pipeline.save(model_path)
    reloaded = Pipeline.load(model_path)
    assert reloaded.predict(STRIPPED) == predictions
    print(f"  saved to {model_path}; reloaded predictions identical")


if __name__ == "__main__":
    main()

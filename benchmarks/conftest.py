"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper: it runs the
full experiment once (under ``benchmark.pedantic`` so pytest-benchmark
reports its wall time), prints the same rows/series the paper reports,
and appends the table to ``benchmarks/results/`` for EXPERIMENTS.md.

Corpora and parsed ASTs are generated once per language and shared across
benchmark modules via session-scoped fixtures.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from collections import defaultdict
from functools import lru_cache

import pytest

from repro.api import Pipeline, RunSpec
from repro.corpus.generator import CorpusConfig, CorpusFile
from repro.corpus.splits import split_corpus
from repro.eval.harness import PreparedData, evaluate_views, prepare_language_data
from repro.lang.base import parse_source
from repro.learning.crf import TrainingConfig

# The bit-identity oracles the perf gates time against live with the
# tests (``tests/oracles/``); appended, so they import as ``oracles``
# without shadowing anything of the benchmarks' own.
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

#: Where benchmark artifacts (tables, BENCH_*.json) land.  Defaults to
#: the gitignored ``benchmarks/results/``; CI (and anyone who wants the
#: artifacts out of the tree entirely) points ``PIGEON_BENCH_RESULTS``
#: elsewhere.  Every benchmark writes through :func:`results_dir` /
#: :func:`emit` / :func:`emit_json` -- never directly into the repo.
RESULTS_DIR = os.environ.get(
    "PIGEON_BENCH_RESULTS", os.path.join(os.path.dirname(__file__), "results")
)


def results_dir() -> str:
    """The (created) benchmark output directory."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def emit_json(name: str, payload: dict) -> str:
    """Persist one machine-readable benchmark report (``<name>.json``).

    The ``BENCH_*.json`` files written here are what CI uploads as
    artifacts and what ``benchmarks/compare_bench.py`` gates against the
    committed baselines.
    """
    from repro.resilience.atomicio import atomic_write_bytes

    path = os.path.join(results_dir(), f"{name}.json")
    # Atomic commit: a crashed benchmark run never leaves a torn report
    # for compare_bench.py (or a baseline promotion) to misread.
    atomic_write_bytes(
        path, (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    )
    return path

#: Benchmark corpus per language: large enough for paper-like shapes,
#: small enough that the whole suite runs in minutes.
BENCH_CORPUS = {
    "javascript": CorpusConfig(language="javascript", n_projects=24, files_per_project=(5, 9), seed=4),
    "java": CorpusConfig(language="java", n_projects=18, files_per_project=(4, 8), seed=2),
    "python": CorpusConfig(language="python", n_projects=18, files_per_project=(4, 8), seed=6),
    "csharp": CorpusConfig(language="csharp", n_projects=18, files_per_project=(4, 8), seed=10),
}

#: Training configuration shared by the table benchmarks.
BENCH_TRAINING = TrainingConfig(epochs=5)

#: Lighter configuration for the multi-run sweep figures.
SWEEP_TRAINING = TrainingConfig(epochs=4)


def spec(data: PreparedData, training: TrainingConfig = BENCH_TRAINING, **fields) -> RunSpec:
    """A registry cell on ``data``'s language under a full TrainingConfig."""
    return RunSpec(
        language=data.language, training=dataclasses.asdict(training), **fields
    )


def evaluate_graphs(data, build, *, name, training=BENCH_TRAINING, **fields):
    """Score a bespoke graph builder through the harness's one engine.

    For rows whose features are not a registered representation
    (UnuglifyJS relations, token n-grams, internal-only method paths).
    ``build(pipeline, file, ast)`` must build its graph in
    ``pipeline.space`` (or through ``pipeline.service``), the space the
    pipeline's learner trains and scores in.
    """
    pipeline = Pipeline(spec(data, training, **fields))

    def views(pairs):
        return [build(pipeline, f, ast) for f, ast in pairs]

    return evaluate_views(pipeline, views(data.train), views(data.test), name=name)


@lru_cache(maxsize=None)
def _prepare(language: str) -> PreparedData:
    return prepare_language_data(language, BENCH_CORPUS[language])


@pytest.fixture(scope="session")
def js_data() -> PreparedData:
    return _prepare("javascript")


@pytest.fixture(scope="session")
def java_data() -> PreparedData:
    return _prepare("java")


@pytest.fixture(scope="session")
def python_data() -> PreparedData:
    return _prepare("python")


@pytest.fixture(scope="session")
def csharp_data() -> PreparedData:
    return _prepare("csharp")


# ----------------------------------------------------------------------
# Module-sized corpora: each project's files concatenated into one unit
# (hundreds of terminals instead of tens), the granularity where the
# paper's corpora live.  The table benchmarks run their headline cell at
# this granularity too, next to the file-sized rows.
# ----------------------------------------------------------------------

_MODULE_EXTENSIONS = {"javascript": "js", "java": "java", "python": "py", "csharp": "cs"}


def concat_module_sources(language: str, sources: list) -> str:
    """Concatenate one project's files into a single parsable unit.

    Java and C# keep their compilation-unit layout: one package
    declaration / hoisted deduplicated imports (``using`` directives)
    first, then every file's type declarations.
    """
    if language == "java":
        package, imports, bodies = None, [], []
        for source in sources:
            body = []
            for line in source.splitlines():
                stripped = line.strip()
                if stripped.startswith("package "):
                    package = package or line
                elif stripped.startswith("import "):
                    if line not in imports:
                        imports.append(line)
                else:
                    body.append(line)
            bodies.append("\n".join(body).strip("\n"))
        head = ([package, ""] if package else []) + imports + [""]
        return "\n".join(head) + "\n" + "\n\n".join(bodies)
    if language == "csharp":
        usings, bodies = [], []
        for source in sources:
            body = []
            for line in source.splitlines():
                if line.startswith("using ") and line.rstrip().endswith(";"):
                    if line not in usings:
                        usings.append(line)
                else:
                    body.append(line)
            bodies.append("\n".join(body).strip("\n"))
        return "\n".join(usings) + "\n\n" + "\n\n".join(bodies)
    return "\n\n".join(sources)


def module_sized(data: PreparedData) -> PreparedData:
    """A prepared corpus re-cut at module granularity (one file/project)."""
    projects = defaultdict(list)
    for file in data.split.train + data.split.validation + data.split.test:
        projects[file.project].append(file)
    extension = _MODULE_EXTENSIONS[data.language]
    files = [
        CorpusFile(
            project=project,
            path=f"{project}/module.{extension}",
            source=concat_module_sources(data.language, [f.source for f in group]),
            language=data.language,
        )
        for project, group in projects.items()
    ]
    return PreparedData(
        language=data.language,
        split=split_corpus(files, seed=23),
        asts={f.path: parse_source(data.language, f.source) for f in files},
    )


@lru_cache(maxsize=None)
def _prepare_modules(language: str) -> PreparedData:
    return module_sized(_prepare(language))


@pytest.fixture(scope="session")
def js_module_data() -> PreparedData:
    return _prepare_modules("javascript")


@pytest.fixture(scope="session")
def java_module_data() -> PreparedData:
    return _prepare_modules("java")


def emit(name: str, text: str) -> None:
    """Print a result table and persist it in the results directory."""
    print()
    print(text)
    with open(os.path.join(results_dir(), f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

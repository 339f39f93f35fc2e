"""Experiment harness: the machinery behind every table and figure.

Orchestrates corpus generation, parsing, training and evaluation for
each (language, task, representation, learner) cell, plus the parameter
sweeps of Figs. 10-12.  All entry points are deterministic under their
seeds, so the benchmark suite reproduces identical numbers across runs.

Cells are enumerated from the plugin registries
(:func:`compatible_specs`) and evaluated through the same
:class:`~repro.api.Pipeline` the public API uses
(:func:`evaluate_spec`), so a newly registered language, task,
representation or learner joins the experiment matrix without touching
this module.  The lower half of the module keeps the callable-based
engine (:func:`evaluate_crf` / :func:`evaluate_w2v`) that the parameter
sweeps and ablations drive with custom builders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..api import ParsedProgram, Pipeline, RunSpec, UnsupportedSpecError
from ..api.learners import learners as learner_registry
from ..api.representations import representations as representation_registry
from ..api.tasks import tasks as task_registry
from ..core.ast_model import Ast
from ..core.extraction import ExtractionConfig, PathExtractor
from ..core.service import CorpusExtraction, ExtractionService
from ..corpus import deduplicate, generate_corpus, split_corpus
from ..corpus.generator import CorpusConfig, CorpusFile
from ..corpus.splits import CorpusSplit
from ..lang.base import parse_source, supported_languages
from ..learning.crf import CrfModel, CrfTrainer, TrainingConfig
from ..learning.crf.graph import CrfGraph
from ..learning.crf.inference import map_inference
from ..learning.word2vec import ContextPredictor, SgnsConfig, train_sgns
from ..tasks.method_naming import build_method_graph
from ..tasks.type_prediction import build_type_graph
from ..tasks.variable_naming import build_crf_graph, element_contexts
from .metrics import AccuracyCounter, SubtokenF1Counter

GraphBuilder = Callable[[CorpusFile, Ast], CrfGraph]
ContextProvider = Callable[[CorpusFile, Ast], Dict[str, Tuple[str, List[str]]]]


@dataclass
class ExperimentResult:
    """One cell of a results table."""

    name: str
    accuracy: float  # percent
    n: int
    f1: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    extract_seconds: float = 0.0
    train_seconds: float = 0.0
    predict_seconds: float = 0.0
    parameters: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return f"{self.name}: {self.accuracy:.1f}% (n={self.n})"


@dataclass
class PreparedData:
    """A generated, deduplicated, split, parsed corpus for one language."""

    language: str
    split: CorpusSplit
    asts: Dict[str, Ast]
    removed_duplicates: int = 0

    def pairs(self, files: Sequence[CorpusFile]) -> List[Tuple[CorpusFile, Ast]]:
        return [(f, self.asts[f.path]) for f in files]

    @property
    def train(self) -> List[Tuple[CorpusFile, Ast]]:
        return self.pairs(self.split.train)

    @property
    def validation(self) -> List[Tuple[CorpusFile, Ast]]:
        return self.pairs(self.split.validation)

    @property
    def test(self) -> List[Tuple[CorpusFile, Ast]]:
        return self.pairs(self.split.test)


def prepare_language_data(
    language: str,
    corpus_config: Optional[CorpusConfig] = None,
    split_seed: int = 23,
) -> PreparedData:
    """Generate, dedup, split and parse a corpus for one language."""
    config = corpus_config or CorpusConfig(language=language)
    if config.language != language:
        config = CorpusConfig(**{**config.__dict__, "language": language})
    files = generate_corpus(config)
    kept, removed = deduplicate(files)
    split = split_corpus(kept, seed=split_seed)
    asts = {f.path: parse_source(language, f.source) for f in kept}
    return PreparedData(language=language, split=split, asts=asts, removed_duplicates=removed)


def extract_corpus(
    data: PreparedData,
    config: Optional[ExtractionConfig] = None,
    workers: int = 1,
) -> CorpusExtraction:
    """Index a prepared corpus through the :class:`ExtractionService`.

    Every file's path-contexts are interned into one shared vocab;
    ``workers > 1`` fans the parse+extract out over a process pool.  The
    result carries corpus-wide throughput stats (what ``pigeon extract``
    and the extraction benchmark report).
    """
    service = ExtractionService(config=config)
    files = (
        list(data.split.train) + list(data.split.validation) + list(data.split.test)
    )
    return service.index_sources(
        [f.source for f in files], data.language, workers=workers
    )


# ----------------------------------------------------------------------
# Registry-driven cells
# ----------------------------------------------------------------------


def compatible_specs(
    languages: Optional[Iterable[str]] = None,
    tasks: Optional[Iterable[str]] = None,
    representations: Optional[Iterable[str]] = None,
    learners: Optional[Iterable[str]] = None,
    **spec_fields,
) -> List[RunSpec]:
    """Every valid (language, task, representation, learner) cell.

    Each axis defaults to *everything currently registered*, so plugins
    added by user code appear in the matrix automatically.  Invalid
    combinations (a Java-only task under Python, a contexts-only
    representation with a graph learner, ...) are filtered by the same
    validation :class:`~repro.api.Pipeline` applies.  Extra keyword
    arguments (``extraction=...``, ``training=...``) are copied into
    every spec.
    """
    cells = []
    for language, task, representation, learner in product(
        tuple(languages) if languages is not None else supported_languages(),
        tuple(tasks) if tasks is not None else task_registry.names(),
        tuple(representations) if representations is not None else representation_registry.names(),
        tuple(learners) if learners is not None else learner_registry.names(),
    ):
        spec = RunSpec(
            language=language,
            task=task,
            representation=representation,
            learner=learner,
            **{k: dict(v) for k, v in spec_fields.items()},
        )
        try:
            Pipeline(spec)
        except UnsupportedSpecError:
            continue
        cells.append(spec)
    return cells


def _programs(language: str, pairs: Sequence[Tuple[CorpusFile, Ast]]) -> List[ParsedProgram]:
    return [
        ParsedProgram(language=language, source=f.source, ast=ast, name=f.path)
        for f, ast in pairs
    ]


def _view_gold(view) -> Dict[str, str]:
    """element key -> gold label, for either feature view."""
    if isinstance(view, CrfGraph):
        return {node.key: node.gold for node in view.unknowns}
    return {key: gold for key, (gold, _tokens) in view.items()}


def evaluate_spec(
    spec: RunSpec,
    data: PreparedData,
    name: Optional[str] = None,
    with_f1: bool = False,
    eval_files: Optional[Sequence[CorpusFile]] = None,
) -> ExperimentResult:
    """Train and evaluate one registry cell on a prepared corpus.

    The generic replacement for per-cell glue: builds the cell's
    :class:`~repro.api.Pipeline`, trains it on ``data.train``, and
    scores exact match (optionally subtoken F1) on ``data.test`` (or
    ``eval_files``).
    """
    if spec.language != data.language:
        raise ValueError(
            f"spec is for language {spec.language!r} but data is {data.language!r}"
        )
    pipeline = Pipeline(spec)

    t0 = time.perf_counter()
    train_views = [pipeline.view(p) for p in _programs(spec.language, data.train)]
    eval_pairs = data.pairs(eval_files) if eval_files is not None else data.test
    test_views = [pipeline.view(p) for p in _programs(spec.language, eval_pairs)]
    extract_seconds = time.perf_counter() - t0

    learner_stats = pipeline.fit_views(train_views)

    t0 = time.perf_counter()
    accuracy = AccuracyCounter()
    f1 = SubtokenF1Counter()
    for view in test_views:
        predictions = pipeline.learner.predict(view)
        for key, gold in _view_gold(view).items():
            accuracy.add(predictions.get(key), gold)
            if with_f1:
                f1.add(predictions.get(key), gold)
    predict_seconds = time.perf_counter() - t0

    return ExperimentResult(
        name=name or spec.cell(),
        accuracy=accuracy.as_percent(),
        n=accuracy.total,
        f1=100.0 * f1.f1 if with_f1 else 0.0,
        precision=100.0 * f1.precision if with_f1 else 0.0,
        recall=100.0 * f1.recall if with_f1 else 0.0,
        extract_seconds=extract_seconds,
        train_seconds=learner_stats.train_seconds,
        predict_seconds=predict_seconds,
        parameters=learner_stats.parameters,
    )


def evaluate_cells(
    specs: Iterable[RunSpec],
    data: Mapping[str, PreparedData],
    with_f1: bool = False,
) -> List[ExperimentResult]:
    """Evaluate a batch of cells; ``data`` maps language -> corpus."""
    return [
        evaluate_spec(spec, data[spec.language], with_f1=with_f1) for spec in specs
    ]


# ----------------------------------------------------------------------
# CRF evaluation
# ----------------------------------------------------------------------


def evaluate_crf(
    data: PreparedData,
    train_builder: GraphBuilder,
    test_builder: Optional[GraphBuilder] = None,
    training_config: Optional[TrainingConfig] = None,
    name: str = "crf",
    with_f1: bool = False,
    eval_files: Optional[Sequence[CorpusFile]] = None,
) -> ExperimentResult:
    """Train a CRF with one graph builder and evaluate exact match."""
    test_builder = test_builder or train_builder

    t0 = time.perf_counter()
    train_graphs = [train_builder(f, ast) for f, ast in data.train]
    eval_pairs = data.pairs(eval_files) if eval_files is not None else data.test
    test_graphs = [test_builder(f, ast) for f, ast in eval_pairs]
    extract_seconds = time.perf_counter() - t0

    trainer = CrfTrainer(training_config or TrainingConfig())
    model, stats = trainer.train(train_graphs)

    t0 = time.perf_counter()
    accuracy = AccuracyCounter()
    f1 = SubtokenF1Counter()
    compiled = model.compile()
    for graph in test_graphs:
        assignment = map_inference(compiled, graph)
        for i, node in enumerate(graph.unknowns):
            accuracy.add(assignment[i], node.gold)
            if with_f1:
                f1.add(assignment[i], node.gold)
    predict_seconds = time.perf_counter() - t0

    return ExperimentResult(
        name=name,
        accuracy=accuracy.as_percent(),
        n=accuracy.total,
        f1=100.0 * f1.f1 if with_f1 else 0.0,
        precision=100.0 * f1.precision if with_f1 else 0.0,
        recall=100.0 * f1.recall if with_f1 else 0.0,
        extract_seconds=extract_seconds,
        train_seconds=stats.train_seconds,
        predict_seconds=predict_seconds,
        parameters=stats.parameters,
    )


def path_graph_builder(
    max_length: int = 7,
    max_width: int = 3,
    abstraction: str = "full",
    downsample_p: float = 1.0,
    seed: int = 17,
) -> GraphBuilder:
    """The standard AST-paths graph builder for variable naming."""
    extractor = PathExtractor(
        ExtractionConfig(
            max_length=max_length,
            max_width=max_width,
            abstraction=abstraction,
            downsample_p=downsample_p,
            seed=seed,
        )
    )

    def build(file: CorpusFile, ast: Ast) -> CrfGraph:
        return build_crf_graph(ast, extractor, name=file.path)

    return build


def method_graph_builder(
    max_length: int = 12,
    max_width: int = 4,
    abstraction: str = "full",
    use_external: bool = True,
) -> GraphBuilder:
    """Graph builder for the method-naming task."""
    extractor = PathExtractor(
        ExtractionConfig(
            max_length=max_length, max_width=max_width, abstraction=abstraction
        )
    )

    def build(file: CorpusFile, ast: Ast) -> CrfGraph:
        return build_method_graph(ast, extractor, name=file.path, use_external=use_external)

    return build


def type_graph_builder(
    max_length: int = 4, max_width: int = 1, abstraction: str = "full"
) -> GraphBuilder:
    """Graph builder for the full-type task (Java)."""
    extractor = PathExtractor(
        ExtractionConfig(
            max_length=max_length, max_width=max_width, abstraction=abstraction
        )
    )

    def build(file: CorpusFile, ast: Ast) -> CrfGraph:
        return build_type_graph(ast, extractor, name=file.path)

    return build


# ----------------------------------------------------------------------
# word2vec evaluation
# ----------------------------------------------------------------------


def evaluate_w2v(
    data: PreparedData,
    provider: ContextProvider,
    sgns_config: Optional[SgnsConfig] = None,
    name: str = "word2vec",
) -> ExperimentResult:
    """Train SGNS on (name, context) pairs and evaluate Eq. (4)."""
    t0 = time.perf_counter()
    pairs: List[Tuple[str, str]] = []
    for file, ast in data.train:
        for _binding, (gold, tokens) in provider(file, ast).items():
            for token in tokens:
                pairs.append((gold, token))
    extract_seconds = time.perf_counter() - t0

    model, stats = train_sgns(pairs, sgns_config or SgnsConfig())
    predictor = ContextPredictor(model)

    t0 = time.perf_counter()
    accuracy = AccuracyCounter()
    for file, ast in data.test:
        for _binding, (gold, tokens) in provider(file, ast).items():
            accuracy.add(predictor.predict(tokens), gold)
    predict_seconds = time.perf_counter() - t0

    return ExperimentResult(
        name=name,
        accuracy=accuracy.as_percent(),
        n=accuracy.total,
        extract_seconds=extract_seconds,
        train_seconds=stats.train_seconds,
        predict_seconds=predict_seconds,
        parameters=len(model.words) * model.dim + len(model.contexts) * model.dim,
        extra={"pairs": float(stats.pairs)},
    )


def path_context_provider(
    max_length: int = 7, max_width: int = 3
) -> ContextProvider:
    """The AST-paths context provider for word2vec."""
    extractor = PathExtractor(
        ExtractionConfig(max_length=max_length, max_width=max_width, abstraction="full")
    )

    def provide(file: CorpusFile, ast: Ast) -> Dict[str, Tuple[str, List[str]]]:
        return element_contexts(ast, extractor)

    return provide


# ----------------------------------------------------------------------
# Parameter sweeps (Figs. 10-12)
# ----------------------------------------------------------------------


def grid_search(
    data: PreparedData,
    lengths: Iterable[int] = (3, 4, 5, 6, 7),
    widths: Iterable[int] = (1, 2, 3),
    training_config: Optional[TrainingConfig] = None,
    on_validation: bool = True,
) -> List[ExperimentResult]:
    """Accuracy for each (max_length, max_width) combination (Fig. 10)."""
    results = []
    eval_files = data.split.validation if on_validation else data.split.test
    for width in widths:
        for length in lengths:
            result = evaluate_crf(
                data,
                path_graph_builder(max_length=length, max_width=width),
                training_config=training_config,
                name=f"length={length},width={width}",
                eval_files=eval_files,
            )
            result.extra["max_length"] = float(length)
            result.extra["max_width"] = float(width)
            results.append(result)
    return results


def downsampling_sweep(
    data: PreparedData,
    keep_probabilities: Iterable[float] = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    max_length: int = 7,
    max_width: int = 3,
    training_config: Optional[TrainingConfig] = None,
) -> List[ExperimentResult]:
    """Accuracy and training time vs keep-probability p (Fig. 11).

    Downsampling applies to *training* extraction only; evaluation always
    uses the full path set, exactly as in Sec. 5.5.
    """
    results = []
    full_builder = path_graph_builder(max_length=max_length, max_width=max_width)
    for p in keep_probabilities:
        train_builder = path_graph_builder(
            max_length=max_length, max_width=max_width, downsample_p=p
        )
        result = evaluate_crf(
            data,
            train_builder,
            test_builder=full_builder,
            training_config=training_config,
            name=f"p={p:.1f}",
        )
        result.extra["keep_probability"] = p
        results.append(result)
    return results


def abstraction_sweep(
    data: PreparedData,
    abstractions: Iterable[str] = (
        "no-path",
        "top",
        "first-last",
        "first-top-last",
        "forget-order",
        "no-arrows",
        "full",
    ),
    max_length: int = 7,
    max_width: int = 3,
    training_config: Optional[TrainingConfig] = None,
) -> List[ExperimentResult]:
    """Accuracy vs training time per abstraction level (Fig. 12)."""
    results = []
    for abstraction in abstractions:
        result = evaluate_crf(
            data,
            path_graph_builder(
                max_length=max_length, max_width=max_width, abstraction=abstraction
            ),
            training_config=training_config,
            name=abstraction,
        )
        result.extra["abstraction_index"] = float(len(results))
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Non-CRF baselines
# ----------------------------------------------------------------------


def evaluate_prediction_map(
    data: PreparedData,
    predict_file: Callable[[CorpusFile, Ast], Dict[str, Optional[str]]],
    gold_map: Callable[[Ast], Dict[str, str]],
    name: str,
) -> ExperimentResult:
    """Evaluate a per-file {element -> prediction} function (rule-based,
    naive type, ...) against a per-file {element -> gold} map."""
    t0 = time.perf_counter()
    accuracy = AccuracyCounter()
    for file, ast in data.test:
        predictions = predict_file(file, ast)
        golds = gold_map(ast)
        for key, gold in golds.items():
            accuracy.add(predictions.get(key), gold)
    predict_seconds = time.perf_counter() - t0
    return ExperimentResult(
        name=name,
        accuracy=accuracy.as_percent(),
        n=accuracy.total,
        predict_seconds=predict_seconds,
    )

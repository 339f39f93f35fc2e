"""Experiment harness: the machinery behind every table and figure.

Orchestrates corpus generation, parsing, training and evaluation for
each (language, task, representation, learner) cell, plus the parameter
sweeps of Figs. 10-12.  All entry points are deterministic under their
seeds, so the benchmark suite reproduces identical numbers across runs.

There is one evaluation engine.  Every cell is a
:class:`~repro.api.RunSpec` run through the same
:class:`~repro.api.Pipeline` the public API uses: :func:`evaluate_spec`
builds the pipeline and its views, and :func:`evaluate_views` -- the
only function here that fits a learner -- trains and scores them.  The
sweeps vary the spec's ``extraction``; rows whose features are not a
registered representation (UnuglifyJS relations, token n-grams,
internal-only method paths) build their graphs in ``pipeline.space``
and call :func:`evaluate_views` directly.  Cells are enumerated from the
plugin registries (:func:`compatible_specs`), so a newly registered
language, task, representation or learner joins the experiment matrix
without touching this module.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..api import ParsedProgram, Pipeline, RunSpec, UnsupportedSpecError
from ..api.learners import learners as learner_registry
from ..api.representations import representations as representation_registry
from ..api.tasks import tasks as task_registry
from ..core.ast_model import Ast
from ..corpus import deduplicate, generate_corpus, split_corpus
from ..corpus.generator import CorpusConfig, CorpusFile
from ..corpus.splits import CorpusSplit
from ..lang.base import parse_source, supported_languages
from ..learning.crf import TrainingConfig
from ..learning.crf.graph import CrfGraph
from .metrics import AccuracyCounter, SubtokenF1Counter


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


def build_views(pipeline: Pipeline, pairs: Sequence[Tuple[CorpusFile, Ast]]) -> List:
    """The feature view ``pipeline``'s learner consumes, per (file, AST) pair."""
    return [
        pipeline.view(
            ParsedProgram(language=pipeline.spec.language, source=f.source, ast=ast, name=f.path)
        )
        for f, ast in pairs
    ]


def _view_gold(view) -> Dict[str, str]:
    """element key -> gold label, for either feature view."""
    if isinstance(view, CrfGraph):
        return {node.key: node.gold for node in view.unknowns}
    return {key: gold for key, (gold, _tokens) in view.items()}


def evaluate_views(
    pipeline: Pipeline,
    train_views: Sequence,
    test_views: Sequence,
    *,
    name: str,
    with_f1: bool = False,
) -> ExperimentResult:
    """Fit ``pipeline``'s learner on ``train_views`` and score ``test_views``.

    The one place the harness trains and scores: every table, figure and
    ablation ends here.  Views may come from :func:`build_views` or from
    an ad-hoc builder (UnuglifyJS relations, n-grams, ...), but a graph
    view must intern into ``pipeline.space`` -- ids from another space
    would score silently wrong, so they raise :class:`ValueError`.
    """
    for view in (*train_views, *test_views):
        if isinstance(view, CrfGraph) and view.space is not pipeline.space:
            raise ValueError(
                f"view {view.name!r} was built in a different FeatureSpace than "
                f"the pipeline it is scored with ({pipeline.spec.cell()}); build "
                f"it in pipeline.space"
            )
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

    extra: Dict[str, float] = {}
    if train_views and not isinstance(train_views[0], CrfGraph):
        # Contexts views: word2vec fits one (name, context) pair per token.
        extra["pairs"] = float(
            sum(len(tokens) for view in train_views for _gold, tokens in view.values())
        )
    return ExperimentResult(
        name=name,
        accuracy=accuracy.as_percent(),
        n=accuracy.total,
        f1=100.0 * f1.f1 if with_f1 else 0.0,
        precision=100.0 * f1.precision if with_f1 else 0.0,
        recall=100.0 * f1.recall if with_f1 else 0.0,
        train_seconds=learner_stats.train_seconds,
        predict_seconds=predict_seconds,
        parameters=learner_stats.parameters,
        extra=extra,
    )


def evaluate_spec(
    spec: RunSpec,
    data: PreparedData,
    name: Optional[str] = None,
    with_f1: bool = False,
    eval_files: Optional[Sequence[CorpusFile]] = None,
) -> ExperimentResult:
    """Train and evaluate one registry cell on a prepared corpus.

    Builds the cell's :class:`~repro.api.Pipeline`, its views of
    ``data.train`` and ``data.test`` (or ``eval_files``), and scores them
    with :func:`evaluate_views` (exact match, optionally subtoken F1).
    """
    if spec.language != data.language:
        raise ValueError(
            f"spec is for language {spec.language!r} but data is {data.language!r}"
        )
    pipeline = Pipeline(spec)

    t0 = time.perf_counter()
    train_views = build_views(pipeline, data.train)
    eval_pairs = data.pairs(eval_files) if eval_files is not None else data.test
    test_views = build_views(pipeline, eval_pairs)
    extract_seconds = time.perf_counter() - t0

    result = evaluate_views(
        pipeline, train_views, test_views, name=name or spec.cell(), with_f1=with_f1
    )
    result.extract_seconds = extract_seconds
    return result


# ----------------------------------------------------------------------
# Parameter sweeps (Figs. 10-12)
# ----------------------------------------------------------------------


def _path_spec(
    data: PreparedData, training_config: Optional[TrainingConfig], **extraction
) -> RunSpec:
    """The variable-naming AST-paths CRF cell under ``extraction``."""
    return RunSpec(
        language=data.language,
        extraction=extraction,
        training=dataclasses.asdict(training_config) if training_config else {},
    )


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
            result = evaluate_spec(
                _path_spec(data, training_config, max_length=length, max_width=width),
                data,
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
    uses the full path set, exactly as in Sec. 5.5: the test views come
    from a full-path pipeline bound to the training pipeline's space.
    """
    results = []
    for p in keep_probabilities:
        pipeline = Pipeline(
            _path_spec(
                data, training_config,
                max_length=max_length, max_width=max_width, downsample_p=p,
            )
        )
        full = Pipeline(
            _path_spec(data, training_config, max_length=max_length, max_width=max_width)
        )
        full.representation.bind_space(pipeline.space)
        result = evaluate_views(
            pipeline,
            build_views(pipeline, data.train),
            build_views(full, data.test),
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
        result = evaluate_spec(
            _path_spec(
                data, training_config,
                max_length=max_length, max_width=max_width, abstraction=abstraction,
            ),
            data,
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

"""Shard building: slice a corpus, build each slice in its own space.

The builder's one invariant makes the whole subsystem deterministic:
**a shard is built exactly the way a sequential run would have processed
its files**, just against a fresh shard-local
:class:`~repro.core.interning.FeatureSpace`.  Views are produced by the
same :class:`~repro.api.Pipeline` code path ``Pipeline.train()`` uses
(same parse, same extraction, same factor construction, same program
names), so the shard-local vocab records the complete intern-call
sequence of that slice.  Shards are therefore independent -- each one
can be built on a different core or a different machine -- and the
first-seen merge (:mod:`repro.shards.merge`) reassembles the exact
global id assignment of a single-process run.

Fan-out uses a ``multiprocessing`` pool with one task per shard.
Workers write the shard files themselves and return only summaries, so
nothing corpus-sized ever crosses a process boundary.  Any pool failure
(sandboxed environment, unpicklable config) falls back to building the
same shards sequentially -- byte-identical files either way.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.extraction import ExtractionConfig, PathExtractor
from ..core.interning import FeatureSpace
from ..learning.crf.graph import CrfGraph
from ..resilience.atomicio import (
    fsync_directory,
    read_stamped_json,
    write_stamped_json,
)
from ..resilience.checkpoint import corpus_fingerprint
from .format import (
    _SET_KEYS,
    CONTEXTS_KIND,
    GRAPH_KIND,
    TRIPLES_KIND,
    ShardError,
    ShardMismatchError,
    ShardReader,
    ShardWriter,
)

#: File-name template for shard files (index-padded so listings sort).
SHARD_NAME = "{prefix}-{index:05d}.shard.json"

#: The build journal (``--resume`` provenance).  Deliberately does NOT
#: match the ``*.shard.json`` glob, so an in-progress build directory
#: still opens as a plain shard set once complete.
JOURNAL_NAME = "shard-build.journal.json"
JOURNAL_FORMAT = "pigeon-shard-journal/1"


def plan_shards(n_files: int, shard_size: int) -> List[Tuple[int, int]]:
    """Split ``n_files`` into contiguous ``[start, end)`` slices."""
    if shard_size < 1:
        raise ShardError(f"shard_size must be >= 1, got {shard_size}")
    if n_files < 1:
        raise ShardError("cannot shard an empty corpus")
    return [
        (start, min(start + shard_size, n_files))
        for start in range(0, n_files, shard_size)
    ]


def parse_partition(text: str) -> Tuple[int, int]:
    """Parse a ``"i/n"`` partition designator (1-based) into ``(i, n)``.

    ``"2/4"`` means: of the full shard plan, build only the shards
    assigned to the second of four partitions.  Every partition computes
    the *same* global plan from the same corpus, so shard indices (and
    file names) stay global -- ``gather_shards`` just collects them.
    """
    index_text, sep, total_text = text.partition("/")
    try:
        index, total = int(index_text), int(total_text)
    except ValueError:
        index = total = 0
    if not sep or total < 1 or not (1 <= index <= total):
        raise ShardError(
            f"bad partition {text!r}; expected i/n with 1 <= i <= n (e.g. 2/4)"
        )
    return index, total


def partition_plan(n_shards: int, partition: Tuple[int, int]) -> List[int]:
    """The global shard indices one partition builds (round-robin).

    Round-robin (shard ``s`` goes to partition ``s mod n``) balances
    partitions to within one shard of each other even when the corpus
    does not divide evenly.
    """
    index, total = partition
    return [s for s in range(n_shards) if s % total == index - 1]


def extraction_meta(config: ExtractionConfig) -> Dict[str, object]:
    """The JSON-able fingerprint of an extraction config.

    Callable abstractions and leaf filters cannot be serialized (or
    compared across processes); they are recorded as opaque markers so a
    mismatch is still caught.
    """
    return {
        "max_length": config.max_length,
        "max_width": config.max_width,
        "include_semi_paths": config.include_semi_paths,
        "semi_path_min_length": config.semi_path_min_length,
        "downsample_p": config.downsample_p,
        "seed": config.seed,
        "abstraction": (
            config.abstraction
            if isinstance(config.abstraction, str)
            else "<callable>"
        ),
        "leaf_filter": None if config.leaf_filter is None else "<callable>",
    }


@dataclass
class ShardBuildResult:
    """What one shard-building run produced."""

    out_dir: str
    paths: List[str] = field(default_factory=list)
    files: int = 0
    elements: int = 0
    record_paths: int = 0
    seconds: float = 0.0
    workers: int = 1
    #: Set on partitioned builds: ("i/n", total shards in the full plan).
    partition: Optional[str] = None
    planned_shards: int = 0
    #: Set on ``--resume`` builds: how many shards verified and skipped.
    resumed: bool = False
    skipped: int = 0

    @property
    def shards(self) -> int:
        return len(self.paths)

    def summary(self) -> dict:
        """JSON-ready stats (what ``pigeon shard build`` prints)."""
        report = {
            "out_dir": self.out_dir,
            "shards": self.shards,
            "files": self.files,
            "elements": self.elements,
            "paths": self.record_paths,
            "seconds": round(self.seconds, 4),
            "files_per_second": (
                round(self.files / self.seconds, 1) if self.seconds > 0 else 0.0
            ),
            "workers": self.workers,
        }
        if self.partition is not None:
            report["partition"] = self.partition
            report["planned_shards"] = self.planned_shards
        if self.resumed:
            report["skipped"] = self.skipped
        return report


# ----------------------------------------------------------------------
# View encoding (inverse of repro.shards.corpus.decode_*)
# ----------------------------------------------------------------------


def encode_graph(graph: CrfGraph) -> dict:
    """Serialize one CRF graph with its (shard-local) integer ids."""
    return {
        "name": graph.name,
        "nodes": [
            [
                node.key,
                node.gold,
                [[f.rel, f.label] for f in node.known],
                [[e.rel, e.other] for e in node.edges],
                list(node.unary),
            ]
            for node in graph.unknowns
        ],
    }


def encode_contexts(view: dict, name: str = "") -> dict:
    """Serialize one element->(gold, tokens) map with its local ids."""
    return {
        "name": name,
        "elements": [
            [binding, gold, [[rel, vid] for rel, vid in tokens]]
            for binding, (gold, tokens) in view.items()
        ],
    }


def _view_counts(record: dict, kind: str) -> Tuple[int, int]:
    """(elements, paths) of one encoded record, for the shard meta."""
    if kind == GRAPH_KIND:
        nodes = record["nodes"]
        return len(nodes), sum(
            len(known) + len(edges) + len(unary)
            for _k, _g, known, edges, unary in nodes
        )
    elements = record["elements"]
    return len(elements), sum(len(tokens) for _b, _g, tokens in elements)


# ----------------------------------------------------------------------
# Spec-driven view shards (what training consumes)
# ----------------------------------------------------------------------


def _build_view_shard(
    spec_dict: dict,
    sources: Sequence[str],
    start_index: int,
    shard_index: int,
    out_path: str,
    kind: str,
    base_meta: dict,
) -> dict:
    """Build + write one view shard; returns its summary counts.

    Runs in a worker process (or inline on the sequential path).  The
    fresh :class:`~repro.api.Pipeline` gives this shard its own private
    feature space; program names use the *global* file index so decoded
    views match an in-memory run exactly.
    """
    from ..api import Pipeline, RunSpec  # local import: workers pay it once

    pipeline = Pipeline(RunSpec.from_dict(spec_dict))
    writer = ShardWriter(
        out_path, dict(base_meta, shard_index=shard_index, start_file=start_index)
    )
    elements = 0
    record_paths = 0
    for offset, source in enumerate(sources):
        program = pipeline.parse(source, name=f"train:{start_index + offset}")
        view = pipeline.view(program)
        if kind == GRAPH_KIND:
            record = encode_graph(view)
        else:
            record = encode_contexts(view, name=program.name)
        n_elements, n_paths = _view_counts(record, kind)
        elements += n_elements
        record_paths += n_paths
        writer.add_record(record)
    writer.meta["elements"] = elements
    writer.meta["paths"] = record_paths
    writer.finish(pipeline.space)
    return {"path": out_path, "files": len(sources), "elements": elements, "paths": record_paths}


def build_spec_shards(
    spec,
    sources: Sequence[str],
    out_dir: str,
    shard_size: int = 32,
    workers: int = 1,
    prefix: str = "corpus",
    partition: Optional[Tuple[int, int]] = None,
    resume: bool = False,
) -> ShardBuildResult:
    """Shard a corpus into training-ready view shards for one spec.

    ``spec`` is a :class:`~repro.api.RunSpec`; the shard kind follows the
    spec's learner view (``crf`` -> graph records, ``word2vec`` ->
    context records).  With ``workers > 1`` each shard is built by its
    own process; ids are deterministic either way because every shard
    owns a private vocabulary.

    ``partition=(i, n)`` builds only the i-th (1-based) of n round-robin
    slices of the full shard plan -- shard indices, file names and
    contents stay exactly what a full build would produce, so n machines
    each building one partition and :func:`gather_shards` collecting the
    outputs yields a byte-identical shard set.

    ``resume=True`` re-enters an interrupted build: the directory's
    journal (written before any shard) is checked against this
    invocation's corpus/spec/arguments, digest-verified completed shards
    are skipped, and only missing or torn shards are rebuilt -- the
    finished directory is byte-identical to a from-scratch build.
    """
    from ..api import Pipeline
    from ..api.protocols import GRAPH_VIEW

    pipeline = Pipeline(spec)  # validates the cell before any work
    if pipeline.space is None:
        raise ShardError(
            f"representation {spec.representation!r} has no feature space; "
            f"sharding needs an interning (path-based) representation"
        )
    kind = GRAPH_KIND if pipeline.learner.consumes == GRAPH_VIEW else CONTEXTS_KIND
    base_meta = {
        "kind": kind,
        "language": spec.language,
        "spec": spec.to_dict(),
        "extraction": extraction_meta(pipeline.service.config),
    }

    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    _prepare_journal(
        out_dir,
        {
            "format": JOURNAL_FORMAT,
            "kind": kind,
            "language": spec.language,
            "spec": spec.to_dict(),
            "extraction": base_meta["extraction"],
            "corpus": corpus_fingerprint(sources),
            "files": len(sources),
            "shard_size": shard_size,
            "prefix": prefix,
            "partition": None if partition is None else f"{partition[0]}/{partition[1]}",
        },
        resume,
    )
    tasks = [
        (
            spec.to_dict(),
            list(sources[start:end]),
            start,
            shard_index,
            os.path.join(out_dir, SHARD_NAME.format(prefix=prefix, index=shard_index)),
            kind,
            base_meta,
        )
        for shard_index, (start, end) in enumerate(plan_shards(len(sources), shard_size))
    ]
    tasks, planned = _partition_tasks(tasks, partition, index_position=3)
    skipped: List[dict] = []
    if resume:
        _clean_temp_files(out_dir)
        tasks, skipped = _filter_completed(
            tasks, base_meta, index_position=3, sources_position=1, path_position=4
        )
    summaries, used_workers = _run_shard_tasks(_build_view_shard, tasks, workers)
    result = _collect(
        out_dir,
        sorted(skipped + summaries, key=lambda s: s["path"]),
        started,
        used_workers,
        partition,
        planned,
    )
    result.resumed = resume
    result.skipped = len(skipped)
    return result


# ----------------------------------------------------------------------
# Raw extraction-output shards (ExtractionService.index_to_shards)
# ----------------------------------------------------------------------


def _build_triples_shard(
    config: ExtractionConfig,
    language: str,
    sources: Sequence[str],
    start_index: int,
    shard_index: int,
    out_path: str,
    base_meta: dict,
) -> dict:
    """Build + write one raw-triples shard (worker or inline)."""
    from ..lang.base import parse_source  # local import: avoid a cycle

    extractor = PathExtractor(config, space=FeatureSpace())
    writer = ShardWriter(
        out_path, dict(base_meta, shard_index=shard_index, start_file=start_index)
    )
    record_paths = 0
    nodes = 0
    for offset, source in enumerate(sources):
        ast = parse_source(language, source)
        triples = [list(triple) for triple in extractor.extract(ast).triples()]
        nodes += ast.size()
        record_paths += len(triples)
        writer.add_record(
            {"name": f"file:{start_index + offset}", "nodes": ast.size(), "triples": triples}
        )
    writer.meta["paths"] = record_paths
    writer.meta["nodes"] = nodes
    writer.finish(extractor.space)
    return {"path": out_path, "files": len(sources), "elements": 0, "paths": record_paths}


def build_triples_shards(
    sources: Sequence[str],
    language: str,
    config: ExtractionConfig,
    out_dir: str,
    shard_size: int = 32,
    workers: int = 1,
    prefix: str = "extract",
    partition: Optional[Tuple[int, int]] = None,
    resume: bool = False,
) -> ShardBuildResult:
    """Shard raw extraction output (the service-level entry point)."""
    base_meta = {
        "kind": TRIPLES_KIND,
        "language": language,
        "spec": None,
        "extraction": extraction_meta(config),
    }
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    _prepare_journal(
        out_dir,
        {
            "format": JOURNAL_FORMAT,
            "kind": TRIPLES_KIND,
            "language": language,
            "spec": None,
            "extraction": base_meta["extraction"],
            "corpus": corpus_fingerprint(sources),
            "files": len(sources),
            "shard_size": shard_size,
            "prefix": prefix,
            "partition": None if partition is None else f"{partition[0]}/{partition[1]}",
        },
        resume,
    )
    tasks = [
        (
            config,
            language,
            list(sources[start:end]),
            start,
            shard_index,
            os.path.join(out_dir, SHARD_NAME.format(prefix=prefix, index=shard_index)),
            base_meta,
        )
        for shard_index, (start, end) in enumerate(plan_shards(len(sources), shard_size))
    ]
    tasks, planned = _partition_tasks(tasks, partition, index_position=4)
    skipped: List[dict] = []
    if resume:
        _clean_temp_files(out_dir)
        tasks, skipped = _filter_completed(
            tasks, base_meta, index_position=4, sources_position=2, path_position=5
        )
    summaries, used_workers = _run_shard_tasks(_build_triples_shard, tasks, workers)
    result = _collect(
        out_dir,
        sorted(skipped + summaries, key=lambda s: s["path"]),
        started,
        used_workers,
        partition,
        planned,
    )
    result.resumed = resume
    result.skipped = len(skipped)
    return result


# ----------------------------------------------------------------------
# Resume machinery (the build journal)
# ----------------------------------------------------------------------


def _prepare_journal(out_dir: str, payload: dict, resume: bool) -> str:
    """Write (or, on resume, verify) the build journal for ``out_dir``.

    The journal is written atomically *before any shard*, so a resumed
    invocation can prove it describes the same build -- same corpus
    fingerprint, spec, extraction, shard size and partition -- before
    trusting any shard file it finds.  A disagreement raises
    :class:`ShardMismatchError` naming the keys that changed.
    """
    path = os.path.join(out_dir, JOURNAL_NAME)
    payload = json.loads(json.dumps(payload))  # normalise tuples etc.
    if resume and os.path.exists(path):
        recorded = read_stamped_json(
            path,
            require_digest=True,
            hint="delete the journal (and the directory) to rebuild from scratch",
        )
        if recorded != payload:
            changed = sorted(
                key
                for key in set(recorded) | set(payload)
                if recorded.get(key) != payload.get(key)
            )
            raise ShardMismatchError(
                f"cannot resume into {out_dir!r}: the build journal "
                f"disagrees with this invocation on {', '.join(changed)}; "
                f"re-run with the original arguments or rebuild from scratch"
            )
        return path
    write_stamped_json(path, payload)
    return path


def _clean_temp_files(out_dir: str) -> None:
    """Remove orphaned atomic-write temp files left by a killed build."""
    for name in os.listdir(out_dir):
        if name.startswith(".") and name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(out_dir, name))
            except OSError:
                pass


def _verify_completed_shard(
    path: str, shard_index: int, expected_files: int, expected_meta: dict
) -> Optional[dict]:
    """A skip-summary for ``path`` if it is a complete, matching shard."""
    if not os.path.exists(path):
        return None
    try:
        reader = ShardReader(path)
        if reader.shard_index != shard_index or reader.files != expected_files:
            return None
        for key in _SET_KEYS:
            if reader.meta.get(key) != expected_meta.get(key):
                return None
        reader.verify()
    except ShardError:
        return None  # torn or foreign file -> rebuild it
    return {
        "path": path,
        "files": reader.files,
        "elements": int(reader.meta.get("elements", 0)),  # type: ignore[arg-type]
        "paths": int(reader.meta.get("paths", 0)),  # type: ignore[arg-type]
        "skipped": True,
    }


def _filter_completed(
    tasks: List[tuple],
    base_meta: dict,
    *,
    index_position: int,
    sources_position: int,
    path_position: int,
) -> Tuple[List[tuple], List[dict]]:
    """Partition tasks into (still to build, verified-complete summaries)."""
    expected_meta = json.loads(json.dumps(base_meta))
    remaining: List[tuple] = []
    skipped: List[dict] = []
    for task in tasks:
        summary = _verify_completed_shard(
            task[path_position],
            task[index_position],
            len(task[sources_position]),
            expected_meta,
        )
        if summary is None:
            remaining.append(task)
        else:
            skipped.append(summary)
    return remaining, skipped


# ----------------------------------------------------------------------
# Shared fan-out machinery
# ----------------------------------------------------------------------


def _partition_tasks(
    tasks: List[tuple], partition: Optional[Tuple[int, int]], index_position: int
) -> Tuple[List[tuple], int]:
    """Keep only this partition's shard tasks; returns (tasks, full-plan size)."""
    planned = len(tasks)
    if partition is None:
        return tasks, planned
    index, total = partition
    if not (1 <= index <= total):
        raise ShardError(f"bad partition ({index}, {total}); need 1 <= i <= n")
    mine = set(partition_plan(planned, partition))
    return [task for task in tasks if task[index_position] in mine], planned


def _run_shard_tasks(
    build_fn, tasks: List[tuple], workers: int
) -> Tuple[List[dict], int]:
    """One task per shard, over a process pool when asked (and possible).

    Only *pool availability* problems (sandboxed environment, task
    payloads that cannot pickle) fall back to a sequential build; a
    genuine build failure inside a worker -- an unparsable source, a
    shard that cannot be written -- propagates immediately instead of
    being retried sequentially just to fail again.
    """
    n_workers = max(1, int(workers))
    if n_workers > 1 and len(tasks) > 1:
        n_workers = min(n_workers, len(tasks))
        try:
            import multiprocessing
            import pickle

            context = multiprocessing.get_context()
            pool = context.Pool(processes=n_workers)
        except Exception:
            pool = None  # no subprocesses here (sandbox) -> sequential
        if pool is not None:
            with pool:
                try:
                    return pool.starmap(build_fn, tasks), n_workers
                except (pickle.PicklingError, AttributeError, TypeError):
                    # Unpicklable task payloads surface as any of these
                    # (PicklingError, "Can't pickle local object", ...).
                    # A genuine build failure that happens to share the
                    # type is retried sequentially and raises its real
                    # error there; other exception types (parse errors,
                    # OSError, ShardError) propagate immediately.
                    pass
    return [build_fn(*task) for task in tasks], 1


def _collect(
    out_dir: str,
    summaries: List[dict],
    started: float,
    workers: int,
    partition: Optional[Tuple[int, int]] = None,
    planned: int = 0,
) -> ShardBuildResult:
    result = ShardBuildResult(out_dir=out_dir, workers=max(1, int(workers)))
    for summary in summaries:
        result.paths.append(summary["path"])
        result.files += summary["files"]
        result.elements += summary["elements"]
        result.record_paths += summary["paths"]
    result.seconds = time.perf_counter() - started
    if partition is not None:
        result.partition = f"{partition[0]}/{partition[1]}"
        result.planned_shards = planned
    return result


# ----------------------------------------------------------------------
# Gathering partitioned builds back into one shard set
# ----------------------------------------------------------------------


def gather_shards(partition_dirs: Sequence[str], out_dir: str) -> dict:
    """Collect partitioned shard builds into one validated shard set.

    Copies every ``*.shard.json`` from each partition directory into
    ``out_dir`` (file names carry the global shard index, so a clash
    means two partitions built the same shard -- an error, not a merge),
    then opens the assembled directory as a :class:`ShardSet`, whose
    validation proves the partitions are complete and compatible: shard
    indices form exactly ``0..n-1`` and every header agrees on
    kind/spec/extraction.  Returns the gathered set's summary.

    The assembly is staged: shards are copied into a hidden staging
    directory next to ``out_dir`` and validated *there*; only a set that
    passes is renamed into place.  A failed gather (overlapping or
    incomplete partitions, torn shards) removes the staging directory
    and leaves no half-gathered store on disk.
    """
    from .format import ShardSet

    if not partition_dirs:
        raise ShardError("pass at least one partition directory to gather")
    out_dir = os.fspath(out_dir)
    gathered: Dict[str, str] = {}  # shard file name -> source partition dir
    for partition_dir in partition_dirs:
        if not os.path.isdir(partition_dir):
            raise ShardError(f"partition directory {partition_dir!r} does not exist")
        names = sorted(
            name
            for name in os.listdir(partition_dir)
            if name.endswith(".shard.json")
        )
        if not names:
            raise ShardError(f"no shard files in partition {partition_dir!r}")
        for name in names:
            previous = gathered.get(name)
            if previous is not None:
                raise ShardError(
                    f"shard {name!r} appears in both {previous!r} and "
                    f"{partition_dir!r}; partitions must be disjoint"
                )
            gathered[name] = partition_dir
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ShardError(
            f"gather output directory {out_dir!r} already exists and is "
            f"not empty; remove it (or gather somewhere else) first"
        )
    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".gather-", dir=parent)
    try:
        for name, partition_dir in sorted(gathered.items()):
            shutil.copyfile(
                os.path.join(partition_dir, name), os.path.join(staging, name)
            )
        shard_set = ShardSet.open(staging)  # completeness + agreement checks
        summary = shard_set.summary()
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if os.path.isdir(out_dir):
        os.rmdir(out_dir)  # empty (checked above); replaced by the rename
    os.rename(staging, out_dir)
    fsync_directory(parent)
    summary["out_dir"] = out_dir
    summary["partitions"] = len(partition_dirs)
    return summary

"""Command-line interface for PIGEON.

Usage::

    python -m repro.cli languages [--json]        # supported languages
    python -m repro.cli cells [--json]            # valid registry cells
    python -m repro.cli extract [files...]        # corpus-scale extraction
                                                  # stats (optionally --workers N;
                                                  # --show prints every context)
    python -m repro.cli shard build --out DIR ... # persist a corpus as shards
    python -m repro.cli shard build --out DIR --partition 2/4 ...
                                                  # build one machine's slice
                                                  # of the shard plan
    python -m repro.cli shard gather DIR... --out DIR
                                                  # collect partition outputs
                                                  # into one validated set
    python -m repro.cli shard info DIR            # inspect/verify a shard set
    python -m repro.cli shard merge DIR           # merge shard vocabs
    python -m repro.cli train --model m.bin ...   # train + save a pipeline as
                                                  # a pigeon-model/1 artifact
    python -m repro.cli train --model m.bin --shards DIR
                                                  # stream a sharded corpus
                                                  # through training instead
    python -m repro.cli model pack IN OUT --prune-min-count N
                                                  # prune a saved model into
                                                  # a new artifact
    python -m repro.cli model info PATH           # header, sections, sizes,
                                                  # prune provenance
    python -m repro.cli model verify PATH         # full integrity check
    python -m repro.cli predict --model m.bin <file> [--top K]
    python -m repro.cli predict --server URL <file>
                                                  # thin client against a
                                                  # running prediction server
    python -m repro.cli serve --model m.bin       # async batched HTTP server
    python -m repro.cli fleet serve --model m.bin --replicas 3
                                                  # consistent-hash router over
                                                  # N shared-nothing replicas
    python -m repro.cli fleet stats [URL]         # merged fleet statistics
    python -m repro.cli fleet reload [URL]        # rolling drain-restart
    python -m repro.cli rename <file> [...]       # deobfuscate (trains on a
                                                  # generated corpus first)
    python -m repro.cli experiment <language>     # run a mini experiment

The CLI is a thin veneer over :class:`repro.api.Pipeline` and the
experiment harness; anything it does is available programmatically.
``train`` and ``predict`` emit JSON on stdout so the commands compose
with tooling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import ExtractionConfig, supported_languages
from .core.service import ExtractionService
from .api import Pipeline, RunSpec
from .corpus import deduplicate, generate_corpus
from .corpus.generator import CorpusConfig
from .eval.harness import compatible_specs, evaluate_spec, prepare_language_data

_EXTENSION_LANGUAGES = {
    ".js": "javascript",
    ".java": "java",
    ".py": "python",
    ".cs": "csharp",
}


def _guess_language(path: str, explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    extension = os.path.splitext(path)[1]
    language = _EXTENSION_LANGUAGES.get(extension)
    if language is None:
        raise SystemExit(
            f"cannot infer language of {path!r}; pass --language explicitly"
        )
    return language


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def cmd_languages(args: argparse.Namespace) -> int:
    names = supported_languages()
    if args.json:
        print(json.dumps(list(names)))
    else:
        for language in names:
            print(language)
    return 0


def cmd_cells(args: argparse.Namespace) -> int:
    specs = compatible_specs(
        languages=[args.language] if args.language else None,
        tasks=[args.task] if args.task else None,
    )
    if args.json:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
    else:
        for spec in specs:
            print(spec.cell())
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    if args.files:
        language = _guess_language(args.files[0], args.language)
        sources = [_read(path) for path in args.files]
    else:
        if not args.language:
            raise SystemExit("pass files or --language to generate a corpus")
        language = args.language
        print(f"Extracting a generated {language} corpus...", file=sys.stderr)
        files = generate_corpus(
            CorpusConfig(language=language, n_projects=args.projects, seed=args.seed)
        )
        kept, _removed = deduplicate(files)
        sources = [f.source for f in kept]

    service = ExtractionService(
        config=ExtractionConfig(
            max_length=args.max_length,
            max_width=args.max_width,
            include_semi_paths=args.semi_paths,
        )
    )
    result = service.index_sources(sources, language, workers=args.workers)
    if args.show:
        space = result.space
        for file_contexts in result.contexts:
            for start_id, rel_id, end_id in file_contexts:
                print(
                    f"⟨{space.values.value(start_id)}, "
                    f"{space.paths.value(rel_id)}, "
                    f"{space.values.value(end_id)}⟩"
                )
    summary = dict(result.summary(), language=language)
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"{summary['files']} files, {summary['paths']} path-contexts, "
            f"{summary['unique_paths']} unique paths, "
            f"{summary['unique_values']} unique values"
        )
        print(
            f"{summary['nodes']} nodes in {summary['seconds']:.2f}s "
            f"({summary['nodes_per_second']:.0f} nodes/s, "
            f"workers={summary['workers']})"
        )
    return 0


def _training_sources(
    args: argparse.Namespace, language: str, action: str = "Training on"
) -> List[str]:
    if args.files:
        return [_read(path) for path in args.files]
    print(f"{action} a generated {language} corpus...", file=sys.stderr)
    files = generate_corpus(
        CorpusConfig(language=language, n_projects=args.projects, seed=args.seed)
    )
    kept, _removed = deduplicate(files)
    return [f.source for f in kept]


def cmd_shard_build(args: argparse.Namespace) -> int:
    from .shards import build_spec_shards, parse_partition

    partition = parse_partition(args.partition) if args.partition else None
    if args.files:
        language = _guess_language(args.files[0], args.language)
    elif args.language:
        language = args.language
    else:
        raise SystemExit("pass files or --language to generate a corpus")
    # The same corpus-sourcing policy as 'pigeon train': anything else
    # would break the bit-identity between the two commands' models.
    sources = _training_sources(args, language, action="Sharding")

    if args.kind == "triples":
        config_kwargs = {}
        if args.max_length is not None:
            config_kwargs["max_length"] = args.max_length
        if args.max_width is not None:
            config_kwargs["max_width"] = args.max_width
        service = ExtractionService(config=ExtractionConfig(**config_kwargs))
        result = service.index_to_shards(
            sources, language, args.out,
            shard_size=args.shard_size, workers=args.workers,
            partition=partition, resume=args.resume,
        )
    else:
        extraction = {}
        if args.max_length is not None:
            extraction["max_length"] = args.max_length
        if args.max_width is not None:
            extraction["max_width"] = args.max_width
        spec = RunSpec(
            language=language,
            task=args.task,
            representation=args.representation,
            learner=args.learner,
            extraction=extraction,
        )
        result = build_spec_shards(
            spec, sources, args.out,
            shard_size=args.shard_size, workers=args.workers,
            partition=partition, resume=args.resume,
        )
    summary = dict(result.summary(), language=language, kind=args.kind)
    if args.json:
        print(json.dumps(summary))
    else:
        partition_note = (
            f" (partition {summary['partition']} of a "
            f"{summary['planned_shards']}-shard plan)"
            if "partition" in summary
            else ""
        )
        print(
            f"{summary['shards']} shards, {summary['files']} files, "
            f"{summary['paths']} path records -> {args.out}{partition_note}"
        )
        resumed_note = (
            f", {summary['skipped']} verified shards skipped"
            if "skipped" in summary
            else ""
        )
        print(
            f"built in {summary['seconds']:.2f}s "
            f"({summary['files_per_second']:.0f} files/s, "
            f"workers={summary['workers']}{resumed_note})"
        )
    return 0


def cmd_shard_gather(args: argparse.Namespace) -> int:
    from .shards import gather_shards

    summary = gather_shards(args.partitions, args.out)
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"gathered {summary['shards']} shards from "
            f"{summary['partitions']} partitions -> {args.out} "
            f"({summary['files']} files, {summary['paths']} path records; "
            f"indices complete, headers agree)"
        )
    return 0


def cmd_shard_info(args: argparse.Namespace) -> int:
    from .shards import ShardSet

    shard_set = ShardSet.open(args.shards)
    if args.verify:
        for reader in shard_set:
            reader.verify()
    summary = shard_set.summary()
    if args.json:
        summary["verified"] = bool(args.verify)
        summary["spec"] = shard_set.spec_dict
        summary["shard_files"] = [
            {"path": r.path, "shard_index": r.shard_index, "files": r.files}
            for r in shard_set
        ]
        print(json.dumps(summary, indent=2))
    else:
        spec = shard_set.spec_dict
        cell = (
            f"{spec['language']}/{spec['task']}/{spec['representation']}/{spec['learner']}"
            if spec
            else f"{summary['language']} (raw extraction)"
        )
        verified = " (digests verified)" if args.verify else ""
        print(
            f"{summary['shards']} {summary['kind']} shards for {cell}: "
            f"{summary['files']} files, {summary['paths']} path records{verified}"
        )
        for reader in shard_set:
            print(
                f"  shard {reader.shard_index:>3}  {reader.files:>5} files  "
                f"{reader.meta.get('paths', 0):>8} paths  {reader.path}"
            )
    return 0


def cmd_shard_merge(args: argparse.Namespace) -> int:
    from .shards import ShardSet, VocabMerger, save_manifest

    shard_set = ShardSet.open(args.shards)
    merged = VocabMerger().merge(shard_set)
    summary = merged.summary()
    if args.out:
        save_manifest(args.out, shard_set, merged)
        summary["manifest"] = args.out
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"merged {summary['shards']} shards: {summary['unique_paths']} "
            f"unique paths, {summary['unique_values']} unique values"
            + (f" -> {args.out}" if args.out else "")
        )
    return 0


def _checkpoint_args(args: argparse.Namespace):
    """Resolve --checkpoint/--resume into (path, resume) for train()."""
    checkpoint = args.checkpoint
    resume = False
    if args.resume:
        if checkpoint and checkpoint != args.resume:
            raise SystemExit(
                "error: --checkpoint and --resume name different files; "
                "--resume CKPT already implies checkpointing to CKPT"
            )
        checkpoint = args.resume
        resume = True
    return checkpoint, resume


def cmd_train(args: argparse.Namespace) -> int:
    if args.shards:
        return _train_from_shards(args)
    if args.merged:
        raise SystemExit("--merged applies to --shards training only")
    if not args.language:
        raise SystemExit("pass --language (or --shards DIR, which carries it)")
    extraction = {}
    if args.max_length is not None:
        extraction["max_length"] = args.max_length
    if args.max_width is not None:
        extraction["max_width"] = args.max_width
    # --epochs lands in both option dicts; each learner reads its own
    # (crf -> training, word2vec -> sgns, third-party -> its choice).
    spec = RunSpec(
        language=args.language,
        task=args.task or "variable_naming",
        representation=args.representation or "ast-paths",
        learner=args.learner or "crf",
        extraction=extraction,
        training={"epochs": args.epochs},
        sgns={"epochs": args.epochs},
    )
    checkpoint, resume = _checkpoint_args(args)
    pipeline = Pipeline(spec)
    stats = pipeline.train(
        _training_sources(args, args.language),
        checkpoint=checkpoint,
        resume=resume,
    )
    pipeline.save(args.model)
    print(json.dumps(_train_report(args.model, spec, stats)))
    return 0


def _train_from_shards(args: argparse.Namespace) -> int:
    """``pigeon train --shards DIR``: stream a sharded corpus through
    training.  The spec rides in the shard headers, so only training
    hyper-parameters (``--epochs``) are taken from the command line."""
    from .shards import ShardSet

    if args.files:
        raise SystemExit("pass --shards DIR or training files, not both")
    if args.max_length is not None or args.max_width is not None:
        raise SystemExit(
            "error: extraction limits ride in the shard headers; rebuild "
            "the shards with 'pigeon shard build --max-length/--max-width' "
            "instead of passing them to train --shards"
        )
    shard_set = ShardSet.open(args.shards)
    spec_dict = shard_set.spec_dict
    if spec_dict is None:
        raise SystemExit(
            f"error: shards in {args.shards!r} are raw extraction shards "
            f"(kind {shard_set.kind!r}); training needs view shards from "
            f"'pigeon shard build'"
        )
    spec_dict["training"] = {"epochs": args.epochs}
    spec_dict["sgns"] = {"epochs": args.epochs}
    spec = RunSpec.from_dict(spec_dict)
    # Any explicitly given axis must agree with what the shards were
    # built for -- silently training a different cell would be worse
    # than an error.
    for axis in ("language", "task", "representation", "learner"):
        given = getattr(args, axis)
        built = getattr(spec, axis)
        if given is not None and given != built:
            raise SystemExit(
                f"error: shards were built for {axis} {built!r}, "
                f"not {given!r}"
            )
    checkpoint, resume = _checkpoint_args(args)
    pipeline = Pipeline(spec)
    stats = pipeline.train(
        shards=shard_set, merged=args.merged, checkpoint=checkpoint, resume=resume
    )
    pipeline.save(args.model)
    print(json.dumps(_train_report(args.model, spec, stats, shards=len(shard_set))))
    return 0


def _train_report(
    model: str,
    spec: RunSpec,
    stats,
    shards: Optional[int] = None,
) -> dict:
    report = {
        "model": model,
        "spec": spec.to_dict(),
        "files_trained": stats.files_trained,
        "elements_trained": stats.elements_trained,
        "parameters": stats.parameters,
        "train_seconds": round(stats.train_seconds, 3),
    }
    if shards is not None:
        report["shards"] = shards
    return report


def cmd_model_pack(args: argparse.Namespace) -> int:
    from .artifacts import pack_model

    info = pack_model(
        args.input,
        args.output,
        prune_min_count=args.prune_min_count,
        accuracy_delta_budget=args.accuracy_delta_budget,
    )
    print(json.dumps(info))
    return 0


def cmd_model_info(args: argparse.Namespace) -> int:
    from .artifacts import artifact_info

    info = artifact_info(args.path)
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    spec = info["spec"] or {}
    cell = "/".join(
        str(spec.get(axis, "?"))
        for axis in ("language", "task", "representation", "learner")
    )
    print(
        f"{info['path']}: {info['format']}, cell {cell}, "
        f"{info['file_bytes']} bytes"
    )
    if info["prune"]:
        prune = info["prune"]
        print(
            f"  pruned: min_rel_count={prune.get('min_rel_count')}, "
            f"accuracy_delta_budget={prune.get('accuracy_delta_budget')}"
        )
    for section in info["sections"]:
        shape = "x".join(str(dim) for dim in section["shape"]) or "scalar"
        print(
            f"  {section['name']:<24} {section['dtype']:>6} "
            f"{shape:>12} {section['nbytes']:>10} bytes"
        )
    return 0


def cmd_model_verify(args: argparse.Namespace) -> int:
    from .artifacts import ModelArtifact

    ModelArtifact.open(args.path, verify_payload=True)
    print(f"{args.path}: OK (digests verified)")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    # --fleet is --server pointed at a fleet router; the router speaks
    # the same /predict dialect, so the thin client is identical.
    if args.fleet:
        if args.server:
            raise SystemExit("pass --server or --fleet, not both")
        args.server = args.fleet
    if args.server and args.model:
        raise SystemExit("pass either --model (local) or --server (remote), not both")
    source = _read(args.file)
    if args.server:
        from .serving.client import ServingClient, ServingError

        # Infer the routing language from the file extension like every
        # local subcommand does; an unknown extension stays None and the
        # server resolves it (or reports ambiguity) itself.
        language = args.language or _EXTENSION_LANGUAGES.get(
            os.path.splitext(args.file)[1]
        )
        with ServingClient(args.server) as client:
            try:
                response = client.predict(
                    source,
                    language=language,
                    task=args.task,
                    top=args.top,
                )
            except ServingError as error:
                raise SystemExit(f"error: {error}") from error
        result = dict({"file": args.file}, **response)
    elif args.model:
        pipeline = Pipeline.load(args.model)
        result = {
            "file": args.file,
            "cell": pipeline.spec.cell(),
        }
        if args.top:
            result["suggestions"] = {
                key: [[label, score] for label, score in ranked]
                for key, ranked in pipeline.suggest(source, k=args.top).items()
            }
        else:
            result["predictions"] = pipeline.predict(source)
    else:
        raise SystemExit("pass --model FILE or --server URL")
    print(json.dumps(result, indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serving import ModelHost, PredictionServer

    host = ModelHost(args.model)
    server = PredictionServer(
        host,
        address=args.host,
        port=args.port,
        batch_size=args.batch_size,
        batch_wait_ms=args.batch_wait_ms,
        cache_size=args.cache_size,
    )

    async def _serve() -> None:
        import signal

        await server.start()
        print(
            f"serving {', '.join(host.cells())} on {server.url} "
            f"(batch={server.batcher.batch_size}"
            f"/{args.batch_wait_ms}ms, cache={server.cache.capacity})",
            file=sys.stderr,
        )
        # One machine-readable ready line on stdout: orchestrators (the
        # fleet's subprocess spawner, scripts) learn the bound port --
        # which matters with --port 0 -- without scraping stderr.
        print(
            json.dumps({"ready": True, "url": server.url, "models": host.cells()}),
            flush=True,
        )
        # SIGINT and SIGTERM both mean "drain and leave": without a
        # handler SIGTERM would kill mid-batch, and a shell-backgrounded
        # process may have SIGINT masked entirely.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / non-Unix: Ctrl-C still works
        try:
            await stop.wait()
        finally:
            print("draining in-flight requests...", file=sys.stderr)
            await server.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        _bind_error(error, args.host, args.port)
        raise
    return 0


def _bind_error(error: OSError, host: str, port: int) -> None:
    """Turn a bind failure into a one-line exit, re-raise anything else."""
    import errno

    if error.errno in (errno.EADDRINUSE, errno.EACCES):
        raise SystemExit(
            f"error: cannot bind {host}:{port}: {error.strerror or error} "
            f"(is another server already on that port?)"
        ) from error


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .fleet import FleetRouter, ReplicaSet

    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    if args.in_process:
        replicas = ReplicaSet.in_process(
            args.model,
            args.replicas,
            batch_size=args.batch_size,
            batch_wait_ms=args.batch_wait_ms,
            cache_size=args.cache_size,
        )
    else:
        replicas = ReplicaSet.spawn(
            args.model,
            args.replicas,
            base_port=args.base_port,
        )
    print(
        f"starting {args.replicas} "
        f"{'in-process' if args.in_process else 'subprocess'} replicas...",
        file=sys.stderr,
    )
    replicas.start()
    router = FleetRouter(
        replicas,
        address=args.host,
        port=args.port,
        max_inflight_per_replica=args.max_inflight,
    )

    async def _serve() -> None:
        import signal

        await router.start()
        members = ", ".join(
            f"{replica.name}={replica.url}" for replica in replicas
        )
        print(
            f"fleet router on {router.url} over {len(replicas)} replicas "
            f"({members})",
            file=sys.stderr,
        )
        print(
            json.dumps(
                {
                    "ready": True,
                    "url": router.url,
                    "replicas": {r.name: r.url for r in replicas},
                }
            ),
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            print("stopping the router...", file=sys.stderr)
            await router.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        _bind_error(error, args.host, args.port)
        raise
    finally:
        print("stopping replicas...", file=sys.stderr)
        replicas.stop()
    return 0


def cmd_fleet_stats(args: argparse.Namespace) -> int:
    from .serving.client import ServingClient, ServingError

    with ServingClient(args.url) as client:
        try:
            stats = client.fleet_stats()
        except ServingError as error:
            raise SystemExit(f"error: {error}") from error
    print(json.dumps(stats, indent=2))
    return 0


def cmd_fleet_reload(args: argparse.Namespace) -> int:
    from .serving.client import ServingClient, ServingError

    with ServingClient(args.url, timeout_s=600.0) as client:
        try:
            report = client.fleet_reload(models=args.model or None)
        except ServingError as error:
            raise SystemExit(f"error: {error}") from error
    print(json.dumps(report, indent=2))
    return 0


def cmd_rename(args: argparse.Namespace) -> int:
    language = _guess_language(args.file, args.language)
    if language not in ("javascript", "python"):
        raise SystemExit("rename supports javascript and python (printable languages)")
    print(f"Training on a generated {language} corpus...", file=sys.stderr)
    files = generate_corpus(
        CorpusConfig(language=language, n_projects=args.projects, seed=args.seed)
    )
    kept, _removed = deduplicate(files)
    pipeline = Pipeline(
        RunSpec(language=language, training={"epochs": args.epochs})
    )
    pipeline.train([f.source for f in kept])
    print(pipeline.rename(_read(args.file)))
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    from .translate import Translator

    if args.server and args.model:
        raise SystemExit("pass either --model (local) or --server (remote), not both")
    source = _read(args.file)
    if args.server:
        from .serving.client import ServingClient, ServingError

        language = args.language or _EXTENSION_LANGUAGES.get(
            os.path.splitext(args.file)[1]
        )
        with ServingClient(args.server) as client:
            try:
                result = client.translate(source, args.to, language=language)
            except ServingError as error:
                raise SystemExit(f"error: {error}") from error
    else:
        language = _guess_language(args.file, args.language)
        model = None
        if args.model:
            model = Pipeline.load(args.model)
            if model.spec.language != language:
                raise SystemExit(
                    f"error: model {args.model!r} is trained on "
                    f"{model.spec.language!r}, but {args.file!r} is {language!r}"
                )
        result = Translator(model).translate(source, args.to, language=language)
    translated = result["translated_source"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(translated)
    if args.json:
        print(json.dumps(dict({"file": args.file}, **result), indent=2))
    elif not args.out:
        print(translated, end="" if translated.endswith("\n") else "\n")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    data = prepare_language_data(
        args.language,
        CorpusConfig(language=args.language, n_projects=args.projects, seed=args.seed),
    )
    spec = RunSpec(
        language=args.language,
        extraction={"max_length": args.max_length, "max_width": args.max_width},
        training={"epochs": args.epochs},
    )
    result = evaluate_spec(
        spec, data, name=f"{args.language} AST paths ({args.max_length}/{args.max_width})"
    )
    print(result.summary())
    print(
        f"  extraction {result.extract_seconds:.1f}s, "
        f"training {result.train_seconds:.1f}s, "
        f"{result.parameters} parameters"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pigeon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    languages = sub.add_parser("languages", help="list supported languages")
    languages.add_argument("--json", action="store_true", help="emit a JSON array")
    languages.set_defaults(func=cmd_languages)

    cells = sub.add_parser(
        "cells", help="list every valid (language, task, representation, learner) cell"
    )
    cells.add_argument("--language", default=None)
    cells.add_argument("--task", default=None)
    cells.add_argument("--json", action="store_true", help="emit full RunSpec JSON")
    cells.set_defaults(func=cmd_cells)

    extract = sub.add_parser(
        "extract", help="batch-extract path-contexts and report corpus stats"
    )
    extract.add_argument("files", nargs="*", help="source files (default: generated corpus)")
    extract.add_argument("--language", default=None)
    extract.add_argument("--max-length", type=int, default=7)
    extract.add_argument("--max-width", type=int, default=3)
    extract.add_argument("--semi-paths", action="store_true")
    extract.add_argument("--projects", type=int, default=16)
    extract.add_argument("--seed", type=int, default=8)
    extract.add_argument("--workers", type=int, default=1, help="process-pool fan-out")
    extract.add_argument("--json", action="store_true", help="emit stats as JSON")
    extract.add_argument("--show", action="store_true", help="also print every context")
    extract.set_defaults(func=cmd_extract)

    shard = sub.add_parser(
        "shard",
        help="build, inspect and merge on-disk corpus shards",
        epilog=(
            "examples:\n"
            "  pigeon shard build --language javascript --out shards/ --workers 4\n"
            "  pigeon shard build src/*.js --out shards/ --shard-size 64\n"
            "  pigeon shard info shards/ --verify\n"
            "  pigeon shard merge shards/ --out merged.json\n"
            "  pigeon train --model m.bin --shards shards/\n"
            "\n"
            "shards are independent (build them on as many cores or machines\n"
            "as you like); merging replays their vocabularies in shard order,\n"
            "so training over shards matches in-memory training bit for bit.\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_build = shard_sub.add_parser(
        "build", help="extract a corpus into training-ready shard files"
    )
    shard_build.add_argument(
        "files", nargs="*", help="source files (default: generated corpus)"
    )
    shard_build.add_argument("--out", required=True, help="output shard directory")
    shard_build.add_argument("--language", default=None)
    shard_build.add_argument("--task", default="variable_naming")
    shard_build.add_argument("--representation", default="ast-paths")
    shard_build.add_argument("--learner", default="crf")
    shard_build.add_argument(
        "--kind",
        choices=("view", "triples"),
        default="view",
        help="view = training-ready feature views (default); "
        "triples = raw extraction output",
    )
    shard_build.add_argument("--shard-size", type=int, default=32, help="files per shard")
    shard_build.add_argument("--workers", type=int, default=1, help="one process per shard")
    shard_build.add_argument("--max-length", type=int, default=None)
    shard_build.add_argument("--max-width", type=int, default=None)
    shard_build.add_argument("--projects", type=int, default=16)
    shard_build.add_argument("--seed", type=int, default=8)
    shard_build.add_argument("--json", action="store_true", help="emit stats as JSON")
    shard_build.add_argument(
        "--resume",
        action="store_true",
        help="re-enter an interrupted build: verify the directory's build "
        "journal, skip digest-verified completed shards, rebuild the rest",
    )
    shard_build.add_argument(
        "--partition",
        default=None,
        metavar="I/N",
        help="build only the I-th (1-based) of N round-robin slices of the "
        "full shard plan; shard indices stay global, so partitions built "
        "on different machines gather back into one complete set",
    )
    shard_build.set_defaults(func=cmd_shard_build)

    shard_gather = shard_sub.add_parser(
        "gather",
        help="collect partitioned 'shard build --partition' outputs into "
        "one validated shard set",
    )
    shard_gather.add_argument(
        "partitions", nargs="+", help="partition output directories"
    )
    shard_gather.add_argument("--out", required=True, help="assembled shard directory")
    shard_gather.add_argument("--json", action="store_true")
    shard_gather.set_defaults(func=cmd_shard_gather)

    shard_info = shard_sub.add_parser(
        "info", help="print a shard set's header metadata and counts"
    )
    shard_info.add_argument("shards", help="shard directory (or one shard file)")
    shard_info.add_argument(
        "--verify", action="store_true", help="also check every payload digest"
    )
    shard_info.add_argument("--json", action="store_true")
    shard_info.set_defaults(func=cmd_shard_info)

    shard_merge = shard_sub.add_parser(
        "merge", help="merge shard vocabularies into one global space"
    )
    shard_merge.add_argument("shards", help="shard directory (or one shard file)")
    shard_merge.add_argument(
        "--out", default=None, help="write the merge manifest (global vocab + remaps)"
    )
    shard_merge.add_argument("--json", action="store_true")
    shard_merge.set_defaults(func=cmd_shard_merge)

    train = sub.add_parser("train", help="train a pipeline and save it to a model file")
    train.add_argument("files", nargs="*", help="training files (default: generated corpus)")
    train.add_argument(
        "--model", required=True, help="output model file (pigeon-model/1 artifact)"
    )
    train.add_argument(
        "--shards",
        default=None,
        metavar="DIR",
        help="stream a sharded corpus from 'pigeon shard build' through "
        "training instead of holding every file's features in memory",
    )
    train.add_argument(
        "--merged",
        default=None,
        metavar="FILE",
        help="reuse a merge manifest from 'pigeon shard merge --out' "
        "instead of re-merging the shard vocabularies (--shards only; "
        "provenance is checked against the shard digests)",
    )
    train.add_argument("--language", default=None, choices=supported_languages())
    # None defaults (resolved in cmd_train) so that --shards can tell an
    # explicit, possibly conflicting flag apart from "not given".
    train.add_argument("--task", default=None, help="default: variable_naming")
    train.add_argument("--representation", default=None, help="default: ast-paths")
    train.add_argument("--learner", default=None, help="default: crf")
    train.add_argument("--max-length", type=int, default=None)
    train.add_argument("--max-width", type=int, default=None)
    train.add_argument("--projects", type=int, default=16)
    train.add_argument("--epochs", type=int, default=5)
    train.add_argument("--seed", type=int, default=8)
    train.add_argument(
        "--checkpoint",
        default=None,
        metavar="CKPT",
        help="atomically checkpoint trainer state to CKPT at every epoch",
    )
    train.add_argument(
        "--resume",
        default=None,
        metavar="CKPT",
        help="resume an interrupted run from CKPT (and keep checkpointing "
        "to it); the finished model is bit-identical to an uninterrupted run",
    )
    train.set_defaults(func=cmd_train)

    model = sub.add_parser(
        "model",
        help="inspect, verify, and prune saved model artifacts",
        description="The pigeon-model/1 artifact surface: pack prunes rare "
        "relations into a new artifact, info prints the header and section "
        "table, verify checks every digest.",
    )
    model_sub = model.add_subparsers(dest="model_command", required=True)

    model_pack = model_sub.add_parser(
        "pack", help="prune a saved model into a new artifact"
    )
    model_pack.add_argument("input", help="saved (unpruned) model artifact")
    model_pack.add_argument("output", help="output artifact path")
    model_pack.add_argument(
        "--prune-min-count",
        type=int,
        required=True,
        metavar="N",
        help="drop weights/candidates whose relation was observed fewer "
        "than N times in training, then re-pack the vocab densely",
    )
    model_pack.add_argument(
        "--accuracy-delta-budget",
        type=float,
        default=None,
        metavar="FRAC",
        help="declared ceiling on the pruned model's accuracy drop, "
        "recorded in the artifact header (default: 0.05)",
    )
    model_pack.set_defaults(func=cmd_model_pack)

    model_info = model_sub.add_parser(
        "info", help="print a saved model's header, sections, and sizes"
    )
    model_info.add_argument("path")
    model_info.add_argument("--json", action="store_true", help="emit JSON")
    model_info.set_defaults(func=cmd_model_info)

    model_verify = model_sub.add_parser(
        "verify",
        help="verify a saved model's integrity digests (header + payload)",
    )
    model_verify.add_argument("path")
    model_verify.set_defaults(func=cmd_model_verify)

    predict = sub.add_parser(
        "predict",
        help="predict with a saved model (or against a server), emit JSON",
        epilog=(
            "examples:\n"
            "  pigeon predict --model m.bin program.js\n"
            "  pigeon predict --model m.bin program.js --top 5\n"
            "  pigeon predict --server http://localhost:8017 program.js\n"
            "  pigeon predict --server localhost:8017 --task method_naming f.py\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    predict.add_argument("file")
    predict.add_argument("--model", default=None, help="model file from 'train'")
    predict.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="act as a thin client against a running 'pigeon serve' instance",
    )
    predict.add_argument(
        "--fleet",
        default=None,
        metavar="URL",
        help="act as a thin client against a running 'pigeon fleet serve' "
        "router (same dialect as --server)",
    )
    predict.add_argument(
        "--language", default=None, help="route to this language (--server mode)"
    )
    predict.add_argument(
        "--task", default=None, help="route to this task (--server mode)"
    )
    predict.add_argument(
        "--top", type=_non_negative_int, default=0, help="emit top-K suggestions"
    )
    predict.set_defaults(func=cmd_predict)

    serve = sub.add_parser(
        "serve",
        help="serve saved models over async batched HTTP",
        epilog=(
            "examples:\n"
            "  pigeon train --model m.bin --language javascript\n"
            "  pigeon serve --model m.bin --port 8017\n"
            "  pigeon serve --model vars.bin --model methods.bin\n"
            "  pigeon fleet serve --model m.bin --replicas 4   # more cores\n"
            "\n"
            "  curl -s localhost:8017/healthz\n"
            "  curl -s localhost:8017/stats\n"
            "  curl -s -X POST localhost:8017/predict \\\n"
            "       -d '{\"source\": \"var a = b + 1;\"}'\n"
            "\n"
            "requests are micro-batched (--batch-size / --batch-wait-ms) and\n"
            "responses are cached by AST fingerprint (--cache-size), so\n"
            "duplicate submissions skip extraction and inference entirely.\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument(
        "--model",
        action="append",
        required=True,
        help="saved model file from 'train'; repeat to serve several "
        "(language, task) cells from one server",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8017, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--batch-size", type=int, default=8, help="max requests per micro-batch"
    )
    serve.add_argument(
        "--batch-wait-ms",
        type=float,
        default=2.0,
        help="max milliseconds a batch waits to fill before scoring",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="response-cache entries, keyed on AST fingerprint x task "
        "(0 disables caching)",
    )
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="run and inspect a consistent-hash fleet of serving replicas",
        epilog=(
            "examples:\n"
            "  pigeon fleet serve --model m.bin --replicas 3\n"
            "  pigeon fleet serve --model m.bin --replicas 3 --base-port 8100\n"
            "  pigeon fleet serve --model m.bin --replicas 2 --in-process\n"
            "  pigeon fleet stats http://127.0.0.1:8016\n"
            "  pigeon fleet reload http://127.0.0.1:8016\n"
            "  pigeon predict --fleet http://127.0.0.1:8016 program.js\n"
            "\n"
            "the router hashes each request's AST digest onto a consistent-hash\n"
            "ring of replicas, so repeated programs always hit the replica whose\n"
            "cache already holds their answer; replica caches partition rather\n"
            "than duplicate.  a dead replica's key range fails over to its ring\n"
            "successor; 'fleet reload' drain-restarts one replica at a time.\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_serve = fleet_sub.add_parser(
        "serve", help="spawn N serving replicas behind one router address"
    )
    fleet_serve.add_argument(
        "--model",
        action="append",
        required=True,
        help="saved model file; repeat to serve several cells (every "
        "replica loads every model)",
    )
    fleet_serve.add_argument(
        "--replicas", type=int, default=3, help="number of serving replicas"
    )
    fleet_serve.add_argument("--host", default="127.0.0.1", help="router bind address")
    fleet_serve.add_argument(
        "--port", type=int, default=8016, help="router bind port (0 = ephemeral)"
    )
    fleet_serve.add_argument(
        "--base-port",
        type=int,
        default=None,
        help="first replica port (replica i binds base+i); default: "
        "ephemeral ports",
    )
    fleet_serve.add_argument(
        "--in-process",
        action="store_true",
        help="run replicas as threads in this process instead of "
        "'pigeon serve' subprocesses (shared-nothing either way)",
    )
    fleet_serve.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="admission limit per healthy replica; beyond "
        "replicas x limit the router sheds load with 503 + Retry-After",
    )
    fleet_serve.add_argument(
        "--batch-size", type=int, default=8, help="per-replica micro-batch size"
    )
    fleet_serve.add_argument(
        "--batch-wait-ms", type=float, default=2.0, help="per-replica batch wait"
    )
    fleet_serve.add_argument(
        "--cache-size", type=int, default=1024, help="per-replica response cache"
    )
    fleet_serve.set_defaults(func=cmd_fleet_serve)

    fleet_stats = fleet_sub.add_parser(
        "stats", help="print a running fleet's merged statistics as JSON"
    )
    fleet_stats.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8016", help="router URL"
    )
    fleet_stats.set_defaults(func=cmd_fleet_stats)

    fleet_reload = fleet_sub.add_parser(
        "reload",
        help="rolling drain-restart of every replica (picks up updated "
        "model files; the fleet never drops below N-1 healthy)",
    )
    fleet_reload.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8016", help="router URL"
    )
    fleet_reload.add_argument(
        "--model",
        action="append",
        default=None,
        help="switch replicas to these model files during the roll",
    )
    fleet_reload.set_defaults(func=cmd_fleet_reload)

    rename = sub.add_parser("rename", help="predict names and print renamed source")
    rename.add_argument("file")
    rename.add_argument("--language", default=None)
    rename.add_argument("--projects", type=int, default=16)
    rename.add_argument("--epochs", type=int, default=5)
    rename.add_argument("--seed", type=int, default=8)
    rename.set_defaults(func=cmd_rename)

    translate = sub.add_parser(
        "translate",
        help="translate a source file into another language through the IR",
    )
    translate.add_argument("file")
    translate.add_argument(
        "--to",
        required=True,
        choices=supported_languages(),
        help="target language the translation is rendered in",
    )
    translate.add_argument(
        "--language",
        default=None,
        help="source language (default: inferred from the file extension)",
    )
    translate.add_argument(
        "--model",
        default=None,
        help="saved translate-task model that names the translated identifiers "
        "(omitted: structural translation, original names carry over)",
    )
    translate.add_argument(
        "--server",
        default=None,
        help="translate via a running prediction server instead of locally",
    )
    translate.add_argument(
        "--out", default=None, help="write the translated source to this file"
    )
    translate.add_argument(
        "--json",
        action="store_true",
        help="print the full payload (predictions, identifier counts) as JSON",
    )
    translate.set_defaults(func=cmd_translate)

    experiment = sub.add_parser("experiment", help="run a mini variable-naming experiment")
    experiment.add_argument("language", choices=supported_languages())
    experiment.add_argument("--projects", type=int, default=12)
    experiment.add_argument("--epochs", type=int, default=4)
    experiment.add_argument("--max-length", type=int, default=7)
    experiment.add_argument("--max-width", type=int, default=3)
    experiment.add_argument("--seed", type=int, default=7)
    experiment.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .api import UnsupportedSpecError
    from .registry import UnknownPluginError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownPluginError, UnsupportedSpecError, OSError, ValueError) as error:
        # Configuration and file errors are user mistakes, not crashes:
        # surface the one-line message (which lists known plugin names),
        # not a traceback.
        raise SystemExit(f"error: {error}") from error


if __name__ == "__main__":
    raise SystemExit(main())

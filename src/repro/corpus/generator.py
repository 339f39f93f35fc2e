"""Corpus generation: projects, files, duplication (Sec. 5.2 / Table 1).

The generator is deterministic under a seed.  It emits a list of
:class:`CorpusFile` records, each holding rendered source text that the
language's frontend parses back.  A configurable fraction of files are
byte-for-byte duplicates (GitHub-style), which the dedup pass of
:mod:`repro.corpus.dedup` must filter out before training, mirroring the
paper's duplicate-filtering effort.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .ir import CallLocal, ExprStmt, FileSpec, Function, VOID, default_value
from .templates import DOMAINS, add_distractors, sample_function
from . import render_csharp, render_java, render_js, render_python

_RENDERERS: Dict[str, Callable[[FileSpec], str]] = {
    "javascript": render_js.render_file,
    "java": render_java.render_file,
    "python": render_python.render_file,
    "csharp": render_csharp.render_file,
}

_EXTENSIONS = {"javascript": "js", "java": "java", "python": "py", "csharp": "cs"}

_PROJECT_NAMES = (
    "acme", "nimbus", "quartz", "falcon", "harbor", "lumen", "ember", "cobalt",
    "violet", "mesa", "atlas", "comet", "drift", "pulse", "orbit", "prism",
    "raven", "sonar", "tundra", "vertex",
)

_MODULE_NOUNS = (
    "utils", "core", "helpers", "service", "handler", "manager", "worker",
    "engine", "parser", "loader", "tracker", "builder", "router", "store",
)


@dataclass
class CorpusConfig:
    """Knobs of corpus generation."""

    language: str = "javascript"
    n_projects: int = 12
    files_per_project: Tuple[int, int] = (4, 10)
    functions_per_file: Tuple[int, int] = (2, 5)
    #: Probability that a generated file is an exact duplicate of an
    #: earlier file in the same project (GitHub-style duplication).
    duplicate_prob: float = 0.06
    #: Probability of adding a same-file caller for a generated method
    #: (the external-path source for method naming, Sec. 5.3.2).
    caller_prob: float = 0.5
    seed: int = 7


@dataclass
class CorpusFile:
    """One rendered source file."""

    project: str
    path: str
    source: str
    language: str
    #: The generating spec (None for injected duplicates).
    spec: Optional[FileSpec] = None
    is_duplicate: bool = False


def _make_caller(fn: Function, index: int, rng: random.Random) -> Function:
    """A tiny function invoking ``fn`` -- the source of external paths."""
    args = [default_value(param.type) for param in fn.params]
    body = [ExprStmt(CallLocal(fn.name_subtokens, args, fn.return_type))]
    verb = rng.choice(("run", "invoke", "apply", "use"))
    return Function((verb, *fn.name_subtokens[:1], str(index)), [], body, VOID, template="caller")


def generate_file_spec(
    rng: random.Random, project: str, module: str, config: CorpusConfig, domain: str
) -> FileSpec:
    n_functions = rng.randint(*config.functions_per_file)
    functions: List[Function] = []
    for i in range(n_functions):
        fn = sample_function(rng)
        add_distractors(fn, rng, domain)
        functions.append(fn)
        if rng.random() < config.caller_prob:
            functions.append(_make_caller(fn, i, rng))
    class_name = "".join(part.capitalize() for part in module.split("_"))
    return FileSpec(project=project, module=module, functions=functions, class_name=class_name)


def generate_corpus(config: Optional[CorpusConfig] = None, **overrides) -> List[CorpusFile]:
    """Generate a full multi-project corpus for one language."""
    if config is None:
        config = CorpusConfig()
    if overrides:
        config = CorpusConfig(**{**config.__dict__, **overrides})
    if config.language not in _RENDERERS:
        known = ", ".join(sorted(_RENDERERS))
        raise ValueError(f"unknown language {config.language!r}; known: {known}")

    rng = random.Random(config.seed)
    render = _RENDERERS[config.language]
    ext = _EXTENSIONS[config.language]
    domains = list(DOMAINS)
    files: List[CorpusFile] = []

    for p in range(config.n_projects):
        project = _PROJECT_NAMES[p % len(_PROJECT_NAMES)]
        domain = domains[p % len(domains)]
        n_files = rng.randint(*config.files_per_project)
        project_files: List[CorpusFile] = []
        for f in range(n_files):
            if project_files and rng.random() < config.duplicate_prob:
                # Vendored/committed duplicate, for the dedup pass to find.
                original = rng.choice(project_files)
                dup = CorpusFile(
                    project=project,
                    path=f"{project}/node_modules/{original.path.rsplit('/', 1)[-1]}",
                    source=original.source,
                    language=config.language,
                    spec=None,
                    is_duplicate=True,
                )
                project_files.append(dup)
                continue
            module = f"{rng.choice(_MODULE_NOUNS)}_{p}_{f}"
            spec = generate_file_spec(rng, project, module, config, domain)
            source = render(spec)
            project_files.append(
                CorpusFile(
                    project=project,
                    path=f"{project}/src/{module}.{ext}",
                    source=source,
                    language=config.language,
                    spec=spec,
                )
            )
        files.extend(project_files)
    return files


def corpus_stats(files: List[CorpusFile]) -> Dict[str, float]:
    """Counts reported by the Table 1 benchmark."""
    total_bytes = sum(len(f.source) for f in files)
    return {
        "files": len(files),
        "projects": len({f.project for f in files}),
        "bytes": total_bytes,
        "kib": total_bytes / 1024.0,
        "duplicates": sum(1 for f in files if f.is_duplicate),
    }

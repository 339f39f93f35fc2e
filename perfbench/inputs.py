"""Workload inputs, made from the seed alone.

Two sources feed the workloads:

* **Real code**: the running interpreter's own stdlib.  The module list
  is pinned by name (plain ``.py`` modules present in CPython 3.10 to
  3.13) and split by a stable name hash into training and held-out
  modules.  The unit of work is a module's top-level definition (a
  ``def`` or ``class`` with its decorators): the piece of a file an
  editor sends for the code under the cursor.  Whole modules cost
  superlinearly more and would leave too few requests per run to
  support a p90.  Absent or unparseable modules are skipped and counted.
  The stdlib differs between interpreter versions, so numbers are only
  comparable on one interpreter; :class:`StdlibCorpus` records which.
* **Synthetic JavaScript** from the program's corpus generator: a pinned
  training corpus, pinned served units that the seed deals into rounds
  and orders, and pinned units that ``accuracy`` is measured on.

The program only ever receives the generated source texts.  The gold
names (the identifiers the source was written with) come from the same
frontend parse the program would do, and are kept on the benchmark side.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import os
import platform
import random
import sysconfig
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Plain-file stdlib modules present in CPython 3.10 through 3.13.
STDLIB_MODULES = (
    "abc base64 bdb bisect bz2 calendar cmd code codeop colorsys compileall "
    "contextlib copy copyreg csv dis filecmp fileinput fnmatch fractions "
    "ftplib functools genericpath getopt getpass gettext glob graphlib gzip "
    "hashlib heapq hmac keyword linecache lzma mimetypes modulefinder netrc "
    "ntpath numbers opcode operator pkgutil plistlib poplib posixpath pprint "
    "profile pstats py_compile pyclbr queue quopri random reprlib rlcompleter "
    "runpy sched secrets selectors shelve shlex signal site socket "
    "socketserver stat string stringprep symtable tabnanny tempfile textwrap "
    "timeit token tokenize trace traceback tracemalloc types uuid warnings "
    "wave weakref webbrowser zipapp zipimport"
).split()

#: One name-hash bucket in this many is held out for prediction.
HELD_OUT_BUCKETS = 4

#: Training definitions are taken until their lines reach this budget,
#: which keeps one training job under a second, short enough to be timed
#: between two reference loops (see ``perfbench.meter``).
TRAIN_LINE_BUDGET = 600

#: Definitions longer than this are neither sent nor trained on.  Predict
#: and training cost grow steeply and unevenly with size
#: (pprint.PrettyPrinter, 525 lines, alone costs as much as the 150
#: smallest definitions together), so a few outliers would decide every
#: run's length and its p90.
MAX_UNIT_LINES = 100


@dataclass(frozen=True)
class Unit:
    """One source text sent to the program, with its gold names."""

    name: str
    source: str
    lines: int
    #: element key -> the identifier the source was written with.
    gold: Dict[str, str]


@dataclass
class StdlibCorpus:
    python: str
    modules_used: int
    #: Pinned modules that were absent or did not parse, by name.
    modules_skipped: List[str]
    train: List[Unit]
    held_out: List[Unit]

    def describe(self) -> Dict[str, object]:
        return {
            "python": self.python,
            "modules_used": self.modules_used,
            "modules_skipped": len(self.modules_skipped),
            "train_units": len(self.train),
            "train_lines": sum(u.lines for u in self.train),
            "held_out_units": len(self.held_out),
            "held_out_lines": sum(u.lines for u in self.held_out),
        }


def name_hash(name: str) -> int:
    """A hash of a module name that is stable across processes and runs."""
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")


def gold_names(language: str, source: str) -> Dict[str, str]:
    """element key -> original identifier, for every renameable element."""
    from repro.lang.base import parse_source
    from repro.tasks.variable_naming import element_groups

    groups = element_groups(parse_source(language, source))
    return {key: occurrences[0].value or "" for key, occurrences in groups.items()}


def top_level_definitions(source: str) -> List[Tuple[str, str]]:
    """(name, source text) of each top-level ``def`` / ``class``."""
    lines = source.splitlines(keepends=True)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((node.name, "".join(lines[first - 1 : node.end_lineno])))
    return out


def load_stdlib() -> StdlibCorpus:
    """The pinned stdlib split into training and held-out units."""
    root = sysconfig.get_paths()["stdlib"]
    skipped: List[str] = []
    units: Dict[str, List[Unit]] = {}
    for module in STDLIB_MODULES:
        path = os.path.join(root, module + ".py")
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            units[module] = [
                Unit(f"{module}.{name}", text, text.count("\n"), gold_names("python", text))
                for name, text in top_level_definitions(source)
            ]
        except (OSError, SyntaxError, UnicodeDecodeError, ValueError, RecursionError):
            skipped.append(module)

    held_out: List[Unit] = []
    training_modules: List[List[Unit]] = []
    for module in sorted(units, key=name_hash):
        sized = [u for u in units[module] if u.lines <= MAX_UNIT_LINES]
        if name_hash(module) % HELD_OUT_BUCKETS == 0:
            # Only definitions with something to name are requests.
            held_out.extend(u for u in sized if u.gold)
        else:
            training_modules.append(sized)
    # One definition per training module in turn, so the small corpus
    # spans many modules' naming habits rather than two modules' worth.
    train: List[Unit] = []
    train_lines = 0
    for turn in itertools.zip_longest(*training_modules):
        for unit in turn:
            if unit is not None and train_lines < TRAIN_LINE_BUDGET:
                train.append(unit)
                train_lines += unit.lines
    return StdlibCorpus(
        python=platform.python_version(),
        modules_used=len(units),
        modules_skipped=skipped,
        train=train,
        held_out=held_out,
    )


def shuffled(items: List, seed: int, salt: str) -> List:
    """A copy of ``items`` in an order fixed by ``(seed, salt)``."""
    order = list(items)
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# Synthetic JavaScript
# ----------------------------------------------------------------------
#: The JS model's training corpus: fixed, so every seed serves one model.
JS_TRAIN_SEED = 21
JS_TRAIN_PROJECTS = 6
JS_TRAIN_FILES = 12
#: The generator seeds of the served units and of the units ``accuracy``
#: is measured on.  Both sets are fixed and the seed deals the served
#: units into rounds and orders their sends: with units generated per
#: seed, the p90 (a cache miss, whose cost is the unit's) moved by 18%
#: between seeds and ``accuracy`` by 17%.
JS_SERVED_SEED = 1000
JS_EVAL_SEED = 2000
JS_EVAL_UNITS = 12


def js_training_sources() -> List[str]:
    from repro.corpus import deduplicate, generate_corpus
    from repro.corpus.generator import CorpusConfig

    kept, _removed = deduplicate(
        generate_corpus(
            CorpusConfig(language="javascript", n_projects=JS_TRAIN_PROJECTS, seed=JS_TRAIN_SEED)
        )
    )
    return [f.source for f in kept[:JS_TRAIN_FILES]]


def js_units(generator_seed: int, count: int, files_per_unit: int) -> List[Unit]:
    """``count`` distinct module-sized units.

    Each unit concatenates ``files_per_unit`` generated files plus a
    one-line function naming the unit, so every unit has its own
    structural digest (its own cache key).
    """
    from repro.corpus import deduplicate, generate_corpus
    from repro.corpus.generator import CorpusConfig

    files: List[str] = []
    project_seed = generator_seed
    while len(files) < count * files_per_unit:
        kept, _removed = deduplicate(
            generate_corpus(CorpusConfig(language="javascript", n_projects=2, seed=project_seed))
        )
        files.extend(f.source for f in kept)
        project_seed += 1
    units = []
    for i in range(count):
        source = "\n\n".join(files[i * files_per_unit : (i + 1) * files_per_unit])
        source += f"\nfunction pbUnit{generator_seed}x{i}() {{ return {i}; }}\n"
        units.append(
            Unit(f"js.{generator_seed}.{i}", source, source.count("\n"), gold_names("javascript", source))
        )
    return units


def js_rounds(seed: int, rounds: int, units_per_round: int, files_per_unit: int) -> List[List[Unit]]:
    """The fixed served units, dealt by the seed into ``rounds`` rounds."""
    pool = shuffled(js_units(JS_SERVED_SEED, rounds * units_per_round, files_per_unit), seed, "js")
    return [pool[i * units_per_round : (i + 1) * units_per_round] for i in range(rounds)]


def send_order(seed: int, round_index: int, serving: int, units: int, duplication: int) -> List[int]:
    """The order of one serving of a round: each unit index ``duplication`` times, shuffled.

    Each serving has its own order, so which cache misses overlap (and
    slow each other down) varies within a run instead of being one
    fixed pattern per seed.
    """
    order = [i for i in range(units) for _ in range(duplication)]
    random.Random(f"{seed}:order:{round_index}:{serving}").shuffle(order)
    return order


def js_eval_units(files_per_unit: int) -> List[Unit]:
    """Module-sized JS units the model never trained on, the same for every seed."""
    return js_units(JS_EVAL_SEED, JS_EVAL_UNITS, files_per_unit)

"""Translation benchmark: round-trip accuracy, naming coverage, serving parity.

Trains one small ``translate``-task model for Java and one for Python,
then translates held-out corpus files both ways (Java -> Python and
Python -> Java) and lifts each translation back through the target
frontend.

Measured and emitted as ``BENCH_translate.json``:

* round-trip structural-equivalence rate per direction (the translated
  program, lifted back, must be structurally equivalent to the lifted
  original -- names and static types excluded, data flow and literals
  included);
* the share of translatable identifiers (variables, parameters, methods)
  that carry a CRF-predicted name;
* served-vs-direct parity: ``translate`` responses through the
  prediction server must be bit-identical to direct
  :class:`repro.translate.Translator` output;
* translation throughput (files/s), for trend tracking only.

Gates (this file runs in the CI smoke job):

* round-trip equivalence >= 0.95 for Java -> Python AND Python -> Java;
* >= 90% of translatable identifiers carry a CRF-predicted name;
* served responses bit-identical to direct output (rate == 1.0).
"""

import json
import time

from conftest import emit, emit_json, results_dir
from repro.api import Pipeline, RunSpec
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.lang.base import parse_source
from repro.serving import ModelHost, PredictionServer, ServerThread, ServingClient
from repro.translate import Translator, lift, structurally_equivalent

#: (source language, target language, train corpus, test corpus).
DIRECTIONS = [
    (
        "java",
        "python",
        CorpusConfig(language="java", n_projects=8, seed=31),
        CorpusConfig(language="java", n_projects=3, seed=87),
    ),
    (
        "python",
        "java",
        CorpusConfig(language="python", n_projects=8, seed=32),
        CorpusConfig(language="python", n_projects=3, seed=88),
    ),
]

EPOCHS = 3
#: Sources per direction pushed through the server for the parity gate.
SERVED_SOURCES = 4


def _sources(config):
    kept, _removed = deduplicate(generate_corpus(config))
    return [f.source for f in kept]


def _direction_report(source_language, target_language, model_path, test_sources):
    translator = Translator(Pipeline.load(model_path))
    equivalent = named = total = 0
    started = time.perf_counter()
    for source in test_sources:
        result = translator.translate(source, target_language)
        back = lift(parse_source(target_language, result["translated_source"]))
        original = lift(parse_source(source_language, source))
        equivalent += structurally_equivalent(back.spec, original.spec)
        named += result["identifiers"]["named"]
        total += result["identifiers"]["total"]
    seconds = time.perf_counter() - started
    return {
        "files": len(test_sources),
        "equivalent": equivalent,
        "equivalence_rate": round(equivalent / len(test_sources), 4),
        "identifiers": total,
        "crf_named": named,
        "seconds": round(seconds, 4),
        "files_per_second": round(len(test_sources) / seconds, 1),
    }


def _serving_parity(model_paths, cases):
    """Fraction of served translate responses bit-identical to direct."""
    direct = {}
    for source_language, target_language, model_path, source in cases:
        payload = Translator(Pipeline.load(model_path)).translate(
            source, target_language
        )
        direct[(source_language, target_language, source)] = payload
    identical = 0
    host = ModelHost(sorted(set(model_paths)))
    server = PredictionServer(host, port=0, cache_size=64)
    with ServerThread(server) as url:
        with ServingClient(url) as client:
            for (source_language, target_language, source), expected in direct.items():
                served = client.translate(
                    source, target_language, language=source_language
                )
                subset = {key: served.get(key) for key in expected}
                identical += json.dumps(subset, sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                )
    return identical, len(direct)


def run_all():
    tmp_dir = results_dir()
    reports = {}
    named = total = 0
    parity_cases = []
    model_paths = []
    for source_language, target_language, train_config, test_config in DIRECTIONS:
        pipeline = Pipeline(
            RunSpec(
                language=source_language, task="translate", training={"epochs": EPOCHS}
            )
        )
        pipeline.train(_sources(train_config))
        model_path = f"{tmp_dir}/translate_{source_language}.bin"
        pipeline.save(model_path)
        model_paths.append(model_path)

        test_sources = _sources(test_config)
        report = _direction_report(
            source_language, target_language, model_path, test_sources
        )
        reports[f"{source_language}_to_{target_language}"] = report
        named += report["crf_named"]
        total += report["identifiers"]
        parity_cases.extend(
            (source_language, target_language, model_path, source)
            for source in test_sources[:SERVED_SOURCES]
        )

    identical, served = _serving_parity(model_paths, parity_cases)

    report = {
        "epochs": EPOCHS,
        "roundtrip": {
            key: value["equivalence_rate"] for key, value in reports.items()
        },
        "directions": reports,
        "naming": {
            "identifiers": total,
            "crf_named": named,
            "crf_named_rate": round(named / total, 4),
        },
        "serving": {
            "responses": served,
            "identical": identical,
            "bit_identical": round(identical / served, 4),
        },
    }

    rows = [
        "Translation: round-trip equivalence and CRF naming coverage",
    ]
    for key, value in reports.items():
        rows.append(
            f"{key.replace('_', ' '):<17} {value['equivalent']:>3}/{value['files']:<3}"
            f" equivalent ({value['equivalence_rate']:.0%})  "
            f"{value['crf_named']}/{value['identifiers']} named  "
            f"{value['files_per_second']:.1f} files/s"
        )
    rows.append(
        f"CRF-named identifiers: {named}/{total} "
        f"({report['naming']['crf_named_rate']:.1%})"
    )
    rows.append(f"served bit-identical: {identical}/{served}")
    return "\n".join(rows), report


def test_translate_roundtrip(benchmark):
    table, report = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("translate_roundtrip", table)
    emit_json("BENCH_translate", report)

    # Gate 1: translations survive the round trip in both directions.
    for direction, rate in report["roundtrip"].items():
        assert rate >= 0.95, (
            f"{direction} round-trip equivalence {rate:.2%} fell below 95%"
        )
    # Gate 2: the CRF names (almost) everything translatable.
    assert report["naming"]["crf_named_rate"] >= 0.90, (
        f"only {report['naming']['crf_named_rate']:.2%} of translatable "
        f"identifiers carry a CRF-predicted name"
    )
    # Gate 3: serving adds routing and caching, never different answers.
    assert report["serving"]["bit_identical"] == 1.0, (
        f"{report['serving']['responses'] - report['serving']['identical']} "
        f"served translate responses diverged from direct Translator output"
    )

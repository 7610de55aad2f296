"""The benchmark's traced run wraps ontosearch names from outside; they must exist.

`bench/tracing.py` skips a target it cannot find, and the layer metrics
that depend on it read 0, so a renamed or deleted function would show up
only as a silent zero in the benchmark. These tests load that module
unchanged and check each of its targets, and what it reads of an index:
each space's `df` and the space objects that `cosine_score` receives.
"""

import importlib
import importlib.util
from pathlib import Path

from ontosearch import cli
from ontosearch.cli import parse_corpus
from ontosearch.expand import DocRepresentation, Space
from ontosearch.index import load_index, save_index
from ontosearch.kb import parse_kb
from ontosearch.rank import Model, ModelConfig, represent_document, represent_query, score_query
from ontosearch.synth import generate

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = load_tracing().Tracer()._targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


# (terms, postings) per space of synth.generate(seed=7, n_docs=600); G counts its own
# keywords and every N, C, NC and I term
SYNTH_600_SHAPE = {"KW": (89, 6209), "N": (25, 1432), "C": (10, 1721), "NC": (63, 3654),
                   "I": (12, 700), "G": (173, 12799)}


def test_the_tracer_reads_the_shape_and_names_the_spaces_of_a_built_and_a_loaded_bundle(tmp_path):
    collection = generate(seed=7, n_docs=600)
    kb = parse_kb(collection.kb_text)
    docs = [represent_document(text, kb, doc_id)
            for doc_id, text in parse_corpus(collection.corpus_text).items()]
    query = collection.queries_text.splitlines()[0].split("\t")[1]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        built = cli.build_index(docs)  # the traced build records the shape
        assert tracer.index_shape == SYNTH_600_SHAPE
        save_index(built, tmp_path)
        loaded = load_index(tmp_path)
        tracer._record_shape(loaded)
        assert tracer.index_shape == SYNTH_600_SHAPE
        for bundle in (built, loaded):
            tracer.register_index(bundle)
            assert sorted(tracer.space_names.values()) == sorted(space.value for space in Space)
            tracer.spans.clear()
            for model in Model:
                cfg = ModelConfig(model=model)
                score_query(represent_query(query, kb, cfg), bundle, cfg)
            # a query scores only the entity spaces its bags reach, and no text query reaches C
            # (a recognized mention always has a name), so a hand-made one reaches every space
            reach_all = DocRepresentation({space: {next(iter(bundle.spaces[space].rows)): 1} for space in Space})
            for model in (Model.KW_UNION_NE, Model.KW_PLUS_NE):
                score_query(reach_all, bundle, ModelConfig(model=model))
            # each cosine span is tagged with the name of the space object it scored
            tags = {span[tracing.TAG] for span in tracer.spans if span[tracing.NAME] == "rank.cosine"}
            assert tags == {space.value for space in Space}
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_the_tracer_sees_one_kb_load_per_command_and_one_index_load_per_search(tmp_path):
    # the KB is hashed inside cli.load_kb's span and index.tsv read inside cli.load_index's,
    # so the traced layers still see every read of either file
    collection = generate(seed=7, n_docs=60)
    for name, text in (("kb.tsv", collection.kb_text), ("corpus.tsv", collection.corpus_text),
                       ("queries.tsv", collection.queries_text)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = (
        (["index", "--corpus", tmp_path / "corpus.tsv", "--index-dir", tmp_path / "idx"], 0),
        (["search", "--index-dir", tmp_path / "idx", "--queries", tmp_path / "queries.tsv",
          "--output", tmp_path / "run.txt"], 1),
    )
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, index_loads in commands:
            tracer.spans.clear()
            assert cli.main([argv[0], "--kb", str(tmp_path / "kb.tsv"), *map(str, argv[1:])]) == 0
            names = [span[tracing.NAME] for span in tracer.spans]
            assert names.count("kb.load") == 1
            assert names.count("index.load") == index_loads
        assert tracer.absent == []
    finally:
        tracer.uninstall()

"""Micro-benchmarks of the hot paths over a 6000-document synthetic collection.

They are marked `microbench`, which pyproject.toml deselects by default; run
them with

    PYTHONPATH=src python -m pytest -m microbench tests/test_microbench.py

A `cosine_score` or `rank_documents` round scores or ranks synth's 24 judged
queries once, `rank_documents` under `kw+ne`, where 18 of the 24 have at
least `rank.QUICKSORT_MIN_CANDIDATES` positive scores and take the
quicksort, and under `ne`, where none do; a `represent_query` round
annotates and expands them under one model, and a `search` round
represents, scores and ranks them under one model at k=1000; a `stem`, `tokenize_keywords`, `recognize_entities` or
`represent_document` round analyzes the first 600 documents, and an `expand_document` round expands
their annotations; a `build_index` round indexes all 6000 documents'
counts, and a `save_index` or `load_index` round writes that
index to one `index.tsv` or reads it back; a grown-KB `load_index` round reads
back the index of the grown-KB documents below, whose entity spaces hold
thousands of terms; a grown-KB `recognize_entities`
round analyzes the first 600 documents, half of them extended by a sentence that
names one of 0, 1000 or 5000 generated extra entities, against synth's KB
plus those entities, and a gazetteer round builds that KB's gazetteer;
a `randomization_test` round compares two
models' per-query average precision over those 24 queries with 10k
permutations, and a 67-query round does the same for two seeded lists of
uniform APs, as many queries as one round of `bench/run.py` judges (its
200 judged queries are split over 3 rounds); a `parse_run` round parses
the run file of those 24 queries under all five models at k=1000 (over
50k lines), and a `parse_qrels` round a qrels file that judges each line of that run 1 or 0; an
`average_precision` and `interpolated_curve` round judges the run's
rankings with `cli.judge`, asking for their curves, and averages those
with `mean_curve`, as `eval` does.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np
import pytest

from ontosearch.annotate import DEFAULT_STOPWORDS, _TOKEN, annotate, recognize_entities, tokenize_keywords
from ontosearch.cli import QuerySpec, judge, parse_corpus, parse_queries
from ontosearch.evaluation import (
    average_precision,
    mean_curve,
    parse_qrels,
    parse_run,
    randomization_test,
)
from ontosearch.expand import DocumentCounts, Space, expand_document
from ontosearch.index import IndexBundle, build_index, load_index, save_index
from ontosearch.kb import KnowledgeBase, _compile_gazetteer, parse_kb
from ontosearch.rank import (
    Model,
    ModelConfig,
    cosine_score,
    format_run_lines,
    rank_documents,
    represent_document,
    represent_query,
    score_query,
    search,
)
from ontosearch.stem import stem
from ontosearch.synth import generate

pytestmark = pytest.mark.microbench

N_DOCS = 6000
K = 1000  # TREC pool depth, as in the benchmark's searches
N_ANALYZED = 600
N_PERM = 10_000


class Synth(NamedTuple):
    kb: KnowledgeBase
    idx: IndexBundle
    queries: list[QuerySpec]
    qrels: dict[str, set[str]]
    texts: list[str]  # document texts, in corpus order
    kb_text: str
    reps: list[DocumentCounts]  # what `idx` was built from


@pytest.fixture(scope="module")
def synth():
    collection = generate(seed=7, n_docs=N_DOCS)
    kb = parse_kb(collection.kb_text)
    docs = parse_corpus(collection.corpus_text)
    reps = [represent_document(text, kb, doc_id) for doc_id, text in docs.items()]
    idx = build_index(reps)
    return Synth(kb, idx, parse_queries(collection.queries_text),
                 parse_qrels(collection.qrels_text), list(docs.values()), collection.kb_text, reps)


@pytest.fixture(scope="module")
def run_text(synth):
    """Run file of every judged query under every model, at k=1000."""
    lines = []
    for i, model in enumerate(Model):
        cfg = ModelConfig(model=model, k=K)
        for q in synth.queries:
            ranking = search(q.text, synth.idx, synth.kb, cfg, wh_override=q.wh_override)
            lines += format_run_lines(f"m{i}-{q.query_id}", ranking, model.value)
    return "\n".join(lines) + "\n"


def query_reps(synth, model):
    cfg = ModelConfig(model=model)
    return [represent_query(q.text, synth.kb, cfg, wh_override=q.wh_override) for q in synth.queries]


@pytest.mark.parametrize("space,model", [(Space.KW, Model.KW), (Space.G, Model.KW_PLUS_NE)])
def test_cosine_score(benchmark, synth, space, model):
    sx = synth.idx.spaces[space]
    bags = [rep.space_bags[space] for rep in query_reps(synth, model)]
    scores = benchmark(lambda: [cosine_score(bag, sx) for bag in bags])
    assert sum(map(len, scores)) > 0


@pytest.mark.parametrize("model", [Model.KW_PLUS_NE, Model.NE], ids=["kw+ne", "ne"])
def test_rank_documents_at_k_1000(benchmark, synth, model):
    cfg = ModelConfig(model=model)
    scores = [score_query(rep, synth.idx, cfg) for rep in query_reps(synth, cfg.model)]
    candidates = [int(np.count_nonzero(s.array > 0.0)) for s in scores]
    ranked = benchmark(lambda: [rank_documents(s, K) for s in scores])
    assert [len(r) for r in ranked] == [min(n, K) for n in candidates]


@pytest.mark.parametrize("memoized", [True, False], ids=["memoized", "rules"])
def test_stem(benchmark, synth, memoized):
    """`stem` as indexing calls it, or its uncached rules over the distinct forms."""
    texts = synth.texts[:N_ANALYZED]
    tokens = [m.group().casefold() for text in texts for m in _TOKEN.finditer(text)]
    words = tokens if memoized else sorted(set(tokens))
    fn = stem if memoized else stem.__wrapped__
    stems = benchmark(lambda: [fn(w) for w in words])
    assert len(stems) == len(words)


def test_recognize_entities(benchmark, synth):
    texts = synth.texts[:N_ANALYZED]
    mentions = benchmark(lambda: [recognize_entities(text, synth.kb) for text in texts])
    assert sum(map(len, mentions)) > 0


EXTRA_CLASSES = ("Scientist", "Person", "Organization", "City", "Country", "Festival")
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "vr", "zh")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "io", "ou")
_CODAS = ("", "", "n", "r", "s", "th", "x", "k", "l")


def grown_collection(synth: Synth, n_extra: int, seed: int = 7) -> tuple[KnowledgeBase, list[str]]:
    """Synth's KB plus `n_extra` generated entities, and the analyzed documents.

    Each extra entity has a two-word canonical name and a one-word alias of
    fresh syllable words (used by no other surface and no document); half
    the documents gain a sentence naming one of them.
    """
    rng = random.Random(seed)
    taken = {word.casefold() for text in synth.texts for word in text.split()}
    taken |= {w for surface in synth.kb.name_index for w in surface.split()}

    def fresh() -> str:
        while True:
            word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))
            word += rng.choice(_CODAS)
            if word not in taken:
                taken.add(word)
                return word.capitalize()

    lines, surfaces = [], []
    for i in range(n_extra):
        name, alias = f"{fresh()} {fresh()}", fresh()
        lines.append(f"ENTITY\tExtra.{i}\t{EXTRA_CLASSES[i % len(EXTRA_CLASSES)]}\t{name}\t{alias}\n")
        surfaces.append((name, alias))
    texts = list(synth.texts[:N_ANALYZED])
    if surfaces:
        for i, text in enumerate(texts):
            if rng.random() < 0.5:
                texts[i] = f"{text} Records mention {rng.choice(rng.choice(surfaces))}."
    return parse_kb(synth.kb_text + "".join(lines)), texts


@pytest.mark.parametrize("n_extra", [0, 1000, 5000])
def test_recognize_entities_grown_kb(benchmark, synth, n_extra):
    kb, texts = grown_collection(synth, n_extra)
    mentions = benchmark(lambda: [recognize_entities(text, kb) for text in texts])
    assert sum(map(len, mentions)) > 0


@pytest.mark.parametrize("n_extra", [0, 1000, 5000])
def test_gazetteer_build_grown_kb(benchmark, synth, n_extra):
    kb, _ = grown_collection(synth, n_extra)
    gazetteer = benchmark(lambda: _compile_gazetteer(kb))
    assert len(gazetteer) >= len(kb.name_index) == 25 + 2 * n_extra


def test_tokenize_keywords(benchmark, synth):
    texts = synth.texts[:N_ANALYZED]
    keywords = benchmark(lambda: [tokenize_keywords(text, DEFAULT_STOPWORDS) for text in texts])
    assert sum(len(stems) for stems, _ in keywords) > 0


def test_represent_document(benchmark, synth):
    texts = synth.texts[:N_ANALYZED]
    reps = benchmark(lambda: [represent_document(text, synth.kb, "d") for text in texts])
    assert sum(len(rep.space_bags[Space.G]) for rep in reps) > 0


def test_expand_document(benchmark, synth):
    annotated = [annotate(text, synth.kb) for text in synth.texts[:N_ANALYZED]]
    reps = benchmark(lambda: [expand_document(at, synth.kb, "d") for at in annotated])
    assert sum(len(rep.space_bags[Space.G]) for rep in reps) > 0


def test_build_index(benchmark, synth):
    bundle = benchmark(lambda: build_index(synth.reps))
    assert bundle.spaces[Space.G] == synth.idx.spaces[Space.G]
    assert len(bundle.doc_ids) == N_DOCS


def test_save_index(benchmark, synth, tmp_path):
    benchmark(lambda: save_index(synth.idx, tmp_path))
    assert load_index(tmp_path) == synth.idx


def test_load_index(benchmark, synth, tmp_path):
    save_index(synth.idx, tmp_path)
    loaded = benchmark(lambda: load_index(tmp_path))
    assert loaded == synth.idx


@pytest.mark.parametrize("n_extra", [1000])
def test_load_index_grown_kb(benchmark, synth, tmp_path, n_extra):
    kb, texts = grown_collection(synth, n_extra)
    built = build_index([represent_document(text, kb, f"d{i:03d}") for i, text in enumerate(texts)])
    save_index(built, tmp_path)
    loaded = benchmark(lambda: load_index(tmp_path))
    assert loaded == built


@pytest.mark.parametrize("model", list(Model), ids=[m.value for m in Model])
def test_represent_query(benchmark, synth, model):
    reps = benchmark(lambda: query_reps(synth, model))
    assert len(reps) == len(synth.queries)


@pytest.mark.parametrize("model", list(Model), ids=[m.value for m in Model])
def test_search(benchmark, synth, model):
    cfg = ModelConfig(model=model, k=K)
    rankings = benchmark(lambda: [
        search(q.text, synth.idx, synth.kb, cfg, wh_override=q.wh_override) for q in synth.queries
    ])
    assert sum(map(len, rankings)) > 0


def test_randomization_test_10k_permutations(benchmark, synth):
    def aps(model):
        cfg = ModelConfig(model=model, k=K)
        return [
            average_precision(
                search(q.text, synth.idx, synth.kb, cfg, wh_override=q.wh_override).doc_ids,
                synth.qrels[q.query_id],
            )
            for q in synth.queries
        ]

    aps_a, aps_b = aps(Model.KW), aps(Model.KW_PLUS_NE_WH)
    result = benchmark(lambda: randomization_test(aps_a, aps_b, n_perm=N_PERM, seed=0))
    assert result.n_perm == N_PERM


def test_randomization_test_10k_permutations_at_67_queries(benchmark):
    rng = np.random.default_rng(67)
    aps_a, aps_b = list(rng.uniform(0.0, 1.0, 67)), list(rng.uniform(0.0, 1.0, 67))
    result = benchmark(lambda: randomization_test(aps_a, aps_b, n_perm=N_PERM, seed=0))
    assert result.n_perm == N_PERM


def test_parse_run(benchmark, run_text):
    n_lines = run_text.count("\n")
    assert n_lines >= 50_000
    run = benchmark(lambda: parse_run(run_text))
    assert sum(map(len, run.values())) == n_lines


def test_parse_qrels(benchmark, synth, run_text):
    # a pooled judgment of the run file: each retrieved doc judged 1 or 0
    judged, lines = {}, []
    for query_id, ranking in parse_run(run_text).items():
        relevant = synth.qrels[query_id.split("-", 1)[1]]
        judged[query_id] = {doc_id for doc_id in ranking if doc_id in relevant}
        lines += [f"{query_id} 0 {doc_id} {int(doc_id in relevant)}" for doc_id in ranking]
    qrels_text = "\n".join(lines) + "\n"
    assert len(lines) >= 40_000
    qrels = benchmark(lambda: parse_qrels(qrels_text))
    assert qrels == {query_id: docs for query_id, docs in judged.items() if docs}


def test_average_precision_and_curve(benchmark, synth, run_text):
    run = parse_run(run_text)
    qrels = {query_id: synth.qrels[query_id.split("-", 1)[1]] for query_id in run}

    def judge_with_curves():
        curves = []
        return judge(run, qrels, curves), curves, mean_curve(curves)

    aps, curves, _ = benchmark(judge_with_curves)
    assert len(aps) == len(curves) == len(qrels)

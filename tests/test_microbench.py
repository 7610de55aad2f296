"""Micro-benchmarks of the query hot path over a 6000-document synthetic index.

They are marked `microbench`, which pyproject.toml deselects by default; run
them with

    PYTHONPATH=src python -m pytest -m microbench tests/test_microbench.py

Each benchmark round scores or ranks synth's 24 judged queries once.
"""

from __future__ import annotations

import pytest

from ontosearch.cli import parse_corpus, parse_queries
from ontosearch.expand import Space
from ontosearch.index import build_index
from ontosearch.kb import parse_kb
from ontosearch.rank import (
    Model,
    ModelConfig,
    cosine_score,
    rank_documents,
    represent_document,
    represent_query,
    score_query,
)
from ontosearch.synth import generate

pytestmark = pytest.mark.microbench

N_DOCS = 6000
K = 1000  # TREC pool depth, as in the benchmark's searches


@pytest.fixture(scope="module")
def synth():
    collection = generate(seed=7, n_docs=N_DOCS)
    kb = parse_kb(collection.kb_text)
    docs = parse_corpus(collection.corpus_text)
    idx = build_index(represent_document(text, kb, doc_id) for doc_id, text in docs.items())
    return kb, idx, parse_queries(collection.queries_text)


def query_reps(synth, model):
    kb, _, queries = synth
    cfg = ModelConfig(model=model)
    return [represent_query(q.text, kb, cfg, wh_override=q.wh_override) for q in queries]


@pytest.mark.parametrize("space,model", [(Space.KW, Model.KW), (Space.G, Model.KW_PLUS_NE)])
def test_cosine_score(benchmark, synth, space, model):
    sx = synth[1].spaces[space]
    bags = [rep.space_bags[space] for rep in query_reps(synth, model)]
    scores = benchmark(lambda: [cosine_score(bag, sx) for bag in bags])
    assert sum(map(len, scores)) > 0


def test_rank_documents_at_k_1000(benchmark, synth):
    cfg = ModelConfig(model=Model.KW_PLUS_NE)
    scores = [score_query(rep, synth[1], cfg) for rep in query_reps(synth, cfg.model)]
    ranked = benchmark(lambda: [rank_documents(s, K) for s in scores])
    assert max(map(len, ranked)) == K

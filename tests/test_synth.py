"""Structure and determinism of the synthetic test collection."""

from __future__ import annotations

import pytest

from ontosearch.annotate import annotate
from ontosearch.cli import parse_corpus, parse_queries
from ontosearch.evaluation import parse_qrels
from ontosearch.kb import parse_kb, super_classes
from ontosearch.synth import generate


@pytest.fixture(scope="module")
def collection():
    return generate(seed=7)


@pytest.fixture(scope="module")
def synth_kb(collection):
    return parse_kb(collection.kb_text)


def test_collection_meets_size_requirements(collection, synth_kb):
    docs = parse_corpus(collection.corpus_text)
    assert len(docs) >= 50
    assert len(synth_kb.entities) >= 10
    multi_alias = [e for e in synth_kb.entities.values() if len(e.aliases) >= 2]
    assert multi_alias, "at least one entity carries two or more aliases"
    assert len(parse_queries(collection.queries_text)) >= 20


def test_class_hierarchy_has_three_levels_below_top(synth_kb):
    depths = {
        class_id: len(super_classes(synth_kb, class_id))
        for class_id in synth_kb.classes
    }
    # a chain like Scientist -> Person -> Agent sits three levels down
    assert max(depths.values()) == 2
    assert {"Scientist", "City", "Country"} <= {
        c for c, d in depths.items() if d == 2
    }


def test_generation_is_deterministic(collection):
    again = generate(seed=7)
    assert again == collection


def test_alias_bias_changes_surfaces_only():
    canonical_only = generate(seed=7, alias_bias=0.0)
    alias_only = generate(seed=7, alias_bias=1.0)
    assert canonical_only.doc_entities == alias_only.doc_entities
    assert canonical_only.doc_topics == alias_only.doc_topics
    assert canonical_only.qrels_text == alias_only.qrels_text
    assert canonical_only.queries_text == alias_only.queries_text
    assert canonical_only.kb_text == alias_only.kb_text
    assert canonical_only.corpus_text != alias_only.corpus_text


def test_alias_bias_extremes_pick_the_expected_surfaces(synth_kb):
    canonical_only = generate(seed=7, alias_bias=0.0).corpus_text
    alias_only = generate(seed=7, alias_bias=1.0).corpus_text
    assert "Gleservia" not in canonical_only and "Ilvaria" in canonical_only
    assert "Ilvaria" not in alias_only and "Gleservia" in alias_only
    assert "HXI" not in canonical_only and "HXI" in alias_only


def test_tracked_mentions_match_the_recognizer(collection, synth_kb):
    docs = parse_corpus(collection.corpus_text)
    for doc_id, text in docs.items():
        annotated = annotate(text, synth_kb)
        recognized = {a.entity_id for a in annotated.entities}
        assert None not in recognized, f"{doc_id}: ambiguous surface in synthetic text"
        assert recognized == collection.doc_entities[doc_id], doc_id


def test_every_query_has_relevant_documents(collection):
    qrels = parse_qrels(collection.qrels_text)
    queries = parse_queries(collection.queries_text)
    assert set(qrels) == {q.query_id for q in queries}
    assert all(qrels[q.query_id] for q in queries)


def test_wh_queries_present_with_and_without_override(collection):
    queries = parse_queries(collection.queries_text)
    overrides = [q for q in queries if q.wh_override]
    interrogatives = [q for q in queries if q.text.split()[0].lower() in ("who", "where")]
    assert overrides and interrogatives


def test_small_collections_are_rejected():
    with pytest.raises(ValueError):
        generate(seed=7, n_docs=10)

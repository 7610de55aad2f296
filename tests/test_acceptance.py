"""Acceptance suite: the headline guarantees, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
PASS line per criterion with its runtime.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from ontosearch.cli import main, parse_corpus, parse_queries
from ontosearch.evaluation import (
    average_precision,
    interpolated_curve,
    map_score,
    parse_qrels,
    randomization_test,
    SigTestResult,
)
from ontosearch.expand import DocRepresentation, Space, Triple
from ontosearch.index import build_index
from ontosearch.kb import parse_kb
from ontosearch.rank import (
    Model,
    ModelConfig,
    represent_document,
    represent_query,
    score_query,
    search,
)
from ontosearch.synth import generate

import oracles
from conftest import DATA_DIR, FIGURE_QUERY

KB_PATH = str(DATA_DIR / "figure_kb.tsv")
SEED = 7          # frozen: the directional margins below were measured here
MIN_MARGIN = 0.05  # frozen MAP margin for the directional criterion


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"
    print(f"acceptance: {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


@pytest.fixture(scope="module")
def collection():
    return generate(seed=SEED)


@pytest.fixture(scope="module")
def synth_kb(collection):
    return parse_kb(collection.kb_text)


@pytest.fixture(scope="module")
def synth_docs(collection):
    return parse_corpus(collection.corpus_text)


@pytest.fixture(scope="module")
def synth_queries(collection):
    return parse_queries(collection.queries_text)


@pytest.fixture(scope="module")
def synth_reps(synth_docs, synth_kb):
    return [represent_document(text, synth_kb, doc_id) for doc_id, text in synth_docs.items()]


@pytest.fixture(scope="module")
def synth_index(synth_reps):
    return build_index(synth_reps)


def query_rep(query, kb, cfg):
    return represent_query(query.text, kb, cfg, wh_override=query.wh_override)


def ranked_ids(query, idx, kb, cfg):
    return [
        r.doc_id
        for r in search(query.text, idx, kb, cfg, wh_override=query.wh_override)
    ]


def test_golden_term_expansion(capsys):
    t0 = time.perf_counter()
    assert main(["dump-terms", "--kb", KB_PATH, "--model", "kw+ne+wh", FIGURE_QUERY]) == 0
    wh_terms = set(capsys.readouterr().out.splitlines())
    assert wh_terms == {"(*/Person/*)", "presid", "(*/*/University_T.52)"}

    assert main(["dump-terms", "--kb", KB_PATH, "--model", "kw+ne", FIGURE_QUERY]) == 0
    plain_terms = set(capsys.readouterr().out.splitlines())
    assert plain_terms == {"presid", "(*/*/University_T.52)"}

    assert main(["dump-terms", "--kb", KB_PATH, "--side", "document", "California"]) == 0
    doc_terms = set(capsys.readouterr().out.splitlines())
    assert doc_terms == {
        "(california/*/*)",
        "(*/Province/*)",
        "(*/PoliticalRegion/*)",
        "(*/Location/*)",
        "(california/Province/*)",
        "(california/PoliticalRegion/*)",
        "(california/Location/*)",
        "(*/*/Province_T.4198)",
    }
    with capsys.disabled():
        _report("golden term expansion", t0, budget=1.0)


def test_p_value_arithmetic_is_exact():
    t0 = time.perf_counter()
    cases = [
        (0, 5, 0.00005),
        (1, 12, 0.00013),
        (7977, 25059, 0.33036),
        (77, 52, 0.00129),
    ]
    for n_minus, n_plus, expected in cases:
        result = SigTestResult(delta=0.1, n_minus=n_minus, n_plus=n_plus,
                               n_perm=100000, seed=0)
        assert result.p_two_sided == expected  # exact float equality
    _report("p-value arithmetic", t0, budget=1.0)


def test_model_scores_match_dense_oracle(synth_kb, synth_queries, synth_reps, synth_index):
    t0 = time.perf_counter()
    assert len(synth_reps) >= 50
    assert len(synth_kb.entities) >= 10
    assert any(len(e.aliases) >= 2 for e in synth_kb.entities.values())
    assert len(synth_queries) >= 20

    space_bags = {
        rep.doc_id: {space.value: dict(bag) for space, bag in rep.space_bags.items()}
        for rep in synth_reps
    }
    kw_bags = {d: bags["KW"] for d, bags in space_bags.items()}
    g_bags = {d: bags["G"] for d, bags in space_bags.items()}
    weights = {"N": 0.25, "C": 0.25, "NC": 0.25, "I": 0.25}

    compared = 0
    for query in synth_queries:
        for model in Model:
            cfg = ModelConfig(model=model)
            rep = query_rep(query, synth_kb, cfg)
            got = score_query(rep, synth_index, cfg)
            q_bags = {space.value: dict(bag) for space, bag in rep.space_bags.items()}
            if model is Model.KW:
                expected = oracles.dense_cosine(kw_bags, q_bags["KW"])
            elif model is Model.NE:
                expected = oracles.dense_ne_scores(space_bags, q_bags, weights)
            elif model is Model.KW_UNION_NE:
                expected = oracles.dense_union_scores(
                    oracles.dense_ne_scores(space_bags, q_bags, weights),
                    oracles.dense_cosine(kw_bags, q_bags["KW"]),
                    alpha=0.5,
                )
            else:
                expected = oracles.dense_cosine(g_bags, q_bags["G"])
            assert got.keys() == expected.keys(), (query.query_id, model)
            for doc_id, value in expected.items():
                assert got[doc_id] == pytest.approx(value, abs=1e-9), (
                    query.query_id, model, doc_id,
                )
            compared += 1
    assert compared == len(synth_queries) * len(Model)
    _report("dense-oracle equivalence (all five models)", t0, budget=30.0)


def test_blend_and_kb_degeneracies(synth_kb, synth_docs, synth_queries, synth_index):
    t0 = time.perf_counter()
    for query in synth_queries:
        kw_list = search(query.text, synth_index, synth_kb, ModelConfig(model=Model.KW))
        ne_list = search(query.text, synth_index, synth_kb, ModelConfig(model=Model.NE))
        at_zero = search(query.text, synth_index, synth_kb,
                         ModelConfig(model=Model.KW_UNION_NE, alpha=0.0))
        at_one = search(query.text, synth_index, synth_kb,
                        ModelConfig(model=Model.KW_UNION_NE, alpha=1.0))
        assert at_zero == kw_list
        assert at_one == ne_list

    empty_kb = parse_kb("")
    empty_reps = [represent_document(t, empty_kb, d) for d, t in synth_docs.items()]
    empty_index = build_index(empty_reps)
    for query in synth_queries:
        kw_list = search(query.text, empty_index, empty_kb, ModelConfig(model=Model.KW))
        gen_list = search(query.text, empty_index, empty_kb, ModelConfig(model=Model.KW_PLUS_NE))
        assert gen_list == kw_list
    _report("alpha and empty-KB degeneracies", t0, budget=30.0)


def test_alias_invariance(synth_kb, synth_queries, synth_index):
    t0 = time.perf_counter()
    models = (Model.NE, Model.KW_PLUS_NE, Model.KW_PLUS_NE_WH)

    # query side: swap each canonical name for its alias inside the query text
    swaps = {
        entity.canonical_name: sorted(entity.aliases)[0]
        for entity in synth_kb.entities.values()
        if entity.aliases
    }
    swapped_queries = 0
    for query in synth_queries:
        swapped_text = query.text
        for canonical, alias in swaps.items():
            if canonical in swapped_text:
                swapped_text = swapped_text.replace(canonical, alias)
        if swapped_text == query.text:
            continue
        swapped_queries += 1
        for model in models:
            cfg = ModelConfig(model=model)
            original = search(query.text, synth_index, synth_kb, cfg,
                              wh_override=query.wh_override)
            swapped = search(swapped_text, synth_index, synth_kb, cfg,
                             wh_override=query.wh_override)
            assert swapped == original, (query.query_id, model)
    assert swapped_queries >= 8

    # document side: same construction with every mention forced to the
    # canonical name vs forced to the disjoint alias, re-indexed
    canonical_coll = generate(seed=SEED, alias_bias=0.0)
    alias_coll = generate(seed=SEED, alias_bias=1.0)
    kb = parse_kb(canonical_coll.kb_text)
    index_canonical = build_index([
        represent_document(t, kb, d)
        for d, t in parse_corpus(canonical_coll.corpus_text).items()
    ])
    index_alias = build_index([
        represent_document(t, kb, d)
        for d, t in parse_corpus(alias_coll.corpus_text).items()
    ])
    for query in parse_queries(canonical_coll.queries_text):
        for model in models:
            cfg = ModelConfig(model=model)
            assert (
                search(query.text, index_canonical, kb, cfg, wh_override=query.wh_override)
                == search(query.text, index_alias, kb, cfg, wh_override=query.wh_override)
            ), (query.query_id, model)
    _report("alias invariance (query and document side)", t0, budget=30.0)


def test_class_subsumption_retrieval(collection, synth_kb, synth_index):
    t0 = time.perf_counter()
    city_only_docs = {
        doc_id
        for doc_id, entities in collection.doc_entities.items()
        if entities
        and all(synth_kb.entities[e].class_id == "City" for e in entities)
    }
    assert city_only_docs, "construction should yield documents mentioning only cities"

    location_query = DocRepresentation(
        space_bags={
            **{space: Counter() for space in Space},
            Space.G: Counter({Triple(class_id="Location"): 1}),
        },
    )
    scores = score_query(location_query, synth_index, ModelConfig(model=Model.KW_PLUS_NE))
    for doc_id in city_only_docs:
        assert scores.get(doc_id, 0.0) > 0.0, doc_id

    # the same term issued through the query pipeline via a wh override
    results = search("", synth_index, synth_kb,
                     ModelConfig(model=Model.KW_PLUS_NE_WH), wh_override="Location")
    retrieved = {r.doc_id for r in results}
    assert city_only_docs <= retrieved
    _report("class subsumption retrieval", t0, budget=30.0)


def test_evaluation_invariants(synth_kb, synth_queries, synth_index, collection):
    t0 = time.perf_counter()

    rng = random.Random(99)
    pool = [f"d{i}" for i in range(40)]
    for _ in range(1000):
        ranking = rng.sample(pool, rng.randint(0, 25))
        relevant = set(rng.sample(pool, rng.randint(1, 12)))
        precisions = interpolated_curve(ranking, relevant).tolist()
        assert all(a >= b for a, b in zip(precisions, precisions[1:]))

    assert average_precision(["r1", "r2", "r3"], {"r1", "r2", "r3"}) == 1.0

    qrels = parse_qrels(collection.qrels_text)
    cfg = ModelConfig(model=Model.KW_PLUS_NE)
    aps = []
    for query in synth_queries:
        ranking = ranked_ids(query, synth_index, synth_kb, cfg)
        aps.append(average_precision(ranking, qrels[query.query_id]))
    total = 0.0
    for value in aps:
        total += value
    assert map_score(aps) == pytest.approx(total / len(aps), abs=1e-12)

    aps_b = aps[::-1]
    first = randomization_test(aps, aps_b, n_perm=2000, seed=5)
    second = randomization_test(aps, aps_b, n_perm=2000, seed=5)
    swapped = randomization_test(aps_b, aps, n_perm=2000, seed=5)
    assert first == second
    assert swapped.delta == first.delta
    assert swapped.p_two_sided == first.p_two_sided
    assert (swapped.n_minus, swapped.n_plus) == (first.n_plus, first.n_minus)
    _report("evaluation invariants", t0, budget=30.0)


def test_directional_model_ordering(synth_kb, synth_queries, synth_index, collection):
    t0 = time.perf_counter()
    qrels = parse_qrels(collection.qrels_text)

    def mean_ap(model):
        cfg = ModelConfig(model=model)
        aps = []
        for query in synth_queries:
            ranking = ranked_ids(query, synth_index, synth_kb, cfg)
            aps.append(average_precision(ranking, qrels[query.query_id]))
        return map_score(aps)

    map_kw = mean_ap(Model.KW)
    map_gen = mean_ap(Model.KW_PLUS_NE)
    map_wh = mean_ap(Model.KW_PLUS_NE_WH)

    assert map_gen > map_kw
    assert map_gen >= map_kw + MIN_MARGIN
    assert map_wh >= map_gen
    assert map_wh >= map_gen + MIN_MARGIN
    print(f"  MAP kw={map_kw:.4f} kw+ne={map_gen:.4f} kw+ne+wh={map_wh:.4f}")
    _report("directional model ordering", t0, budget=30.0)

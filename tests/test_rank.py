"""Scoring and ranking across the five retrieval models."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.annotate import AnnotationOptions, annotate
from ontosearch.expand import (
    DocRepresentation,
    ExpansionModel,
    Keyword,
    Space,
    Triple,
    expand_document,
    serialize_term,
)
from ontosearch.index import build_index, load_index, save_index
from ontosearch.kb import alias_set, load_kb, parse_kb
from ontosearch.rank import (
    Model,
    ModelConfig,
    ScoredDoc,
    cosine_score,
    format_run_lines,
    rank_documents,
    represent_document,
    represent_query,
    score_kw_union_ne,
    score_ne,
    score_query,
    search,
)

import oracles
from conftest import DATA_DIR, FIGURE_DOC, FIGURE_QUERY


CORPUS = {
    "d-georgia": "Georgia signed the wine accord last spring.",
    "d-moscow": "Moscow hosts the winter fair near the river.",
    "d-plain": "Wine exports grew strongly during winter.",
    "d-pres": FIGURE_DOC,
    "d-un": "The United Nations charter promotes lasting peace.",
}


@pytest.fixture(scope="module")
def corpus_reps(figure_kb):
    return [represent_document(text, figure_kb, doc_id) for doc_id, text in CORPUS.items()]


@pytest.fixture(scope="module")
def corpus_index(corpus_reps):
    return build_index(corpus_reps)


def oracle_space_bags(reps):
    return {
        rep.doc_id: {space.value: dict(bag) for space, bag in rep.space_bags.items()}
        for rep in reps
    }


# --- configuration -------------------------------------------------------------

def test_model_config_defaults_are_valid():
    cfg = ModelConfig()
    assert (cfg.w_n, cfg.w_c, cfg.w_nc, cfg.w_i) == (0.25, 0.25, 0.25, 0.25)
    assert cfg.alpha == 0.5
    assert cfg.k is None


@pytest.mark.parametrize("kwargs", [
    {"w_n": 0.5, "w_c": 0.5, "w_nc": 0.0, "w_i": 0.0},
    {"alpha": 0.0},
    {"alpha": 1.0},
    {"k": 1},
])
def test_model_config_accepts_valid_settings(kwargs):
    ModelConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"w_n": 0.5, "w_c": 0.5, "w_nc": 0.5, "w_i": 0.5},
    {"w_n": 0.3, "w_c": 0.3, "w_nc": 0.3, "w_i": 0.0},
    {"w_n": -0.25, "w_c": 0.75, "w_nc": 0.25, "w_i": 0.25},
    {"alpha": 1.5},
    {"alpha": -0.1},
    {"k": 0},
    {"k": -3},
])
def test_model_config_rejects_invalid_settings(kwargs):
    with pytest.raises(ValueError):
        ModelConfig(**kwargs)


# --- cosine over one space -----------------------------------------------------

def kw_rep(doc_id, **counts):
    bags = {space: Counter() for space in Space}
    bags[Space.KW] = Counter({Keyword(t): n for t, n in counts.items()})
    from ontosearch.expand import DocRepresentation
    return DocRepresentation(doc_id=doc_id, space_bags=bags)


def test_cosine_self_similarity_is_one():
    idx = build_index([kw_rep("d1", alpha=2, beta=1), kw_rep("d2", gamma=1)])
    scores = cosine_score(Counter({Keyword("alpha"): 2, Keyword("beta"): 1}), idx.spaces[Space.KW])
    assert scores["d1"] == pytest.approx(1.0, abs=1e-12)
    assert "d2" not in scores


def test_cosine_out_of_vocabulary_terms_are_ignored():
    idx = build_index([kw_rep("d1", alpha=1), kw_rep("d2", beta=1)])
    assert cosine_score(Counter({Keyword("zeta"): 3}), idx.spaces[Space.KW]) == {}
    with_both = cosine_score(
        Counter({Keyword("alpha"): 1, Keyword("zeta"): 3}), idx.spaces[Space.KW]
    )
    only_alpha = cosine_score(Counter({Keyword("alpha"): 1}), idx.spaces[Space.KW])
    assert with_both == only_alpha  # the unknown term affects neither dot nor norm


def test_cosine_matches_dense_oracle_on_three_docs():
    doc_bags = {
        "a": {Keyword("x"): 3, Keyword("y"): 1},
        "b": {Keyword("y"): 2, Keyword("z"): 2},
        "c": {Keyword("z"): 1, Keyword("w"): 4},
    }
    reps = [kw_rep(d, **{t.stem: n for t, n in bag.items()}) for d, bag in doc_bags.items()]
    idx = build_index(reps)
    query = {Keyword("y"): 1, Keyword("z"): 2}
    expected = oracles.dense_cosine(doc_bags, query)
    got = cosine_score(Counter(query), idx.spaces[Space.KW])
    assert got.keys() == expected.keys()
    assert got == pytest.approx(expected, abs=1e-9)


def test_cosine_ubiquitous_only_overlap_scores_zero():
    idx = build_index([
        kw_rep("d1", common=1, unique1=1),
        kw_rep("d2", common=2, unique2=1),
    ])
    scores = cosine_score(Counter({Keyword("common"): 1}), idx.spaces[Space.KW])
    assert scores == {"d1": 0.0, "d2": 0.0}
    assert rank_documents(scores) == []


# --- entity-space combination ---------------------------------------------------

def test_score_ne_reaches_one_when_all_spaces_match(figure_kb):
    match = represent_document("Georgia and Moscow met.", figure_kb, "match")
    other = represent_document("Stanford University grew.", figure_kb, "other")
    idx = build_index([match, other])
    query = match  # identical bags in every entity space
    for cfg in (ModelConfig(model=Model.NE),
                ModelConfig(model=Model.NE, w_n=0.4, w_c=0.3, w_nc=0.2, w_i=0.1)):
        scores = score_ne(query, idx, cfg)
        assert scores["match"] == pytest.approx(1.0, abs=1e-9)


def test_rank_clamps_a_weighted_sum_that_overshoots_one(figure_kb):
    match = represent_document("Georgia and Moscow met.", figure_kb, "match")
    other = represent_document("Stanford University grew.", figure_kb, "other")
    idx = build_index([match, other])
    # space weights may sum to 1 + 1e-9, so four perfect cosines sum past 1
    cfg = ModelConfig(model=Model.NE, w_n=0.25, w_c=0.25, w_nc=0.25, w_i=0.25 + 9e-10)
    scores = score_ne(match, idx, cfg)
    assert scores["match"] > 1.0
    assert rank_documents(scores)[0] == ScoredDoc("match", 1.0)


def test_score_ne_degenerate_class_weight(corpus_reps, corpus_index):
    query_bags = {space: Counter() for space in Space}
    query_bags[Space.C] = Counter({Triple(class_id="Country"): 1})
    from ontosearch.expand import DocRepresentation
    query = DocRepresentation(doc_id="", space_bags=query_bags)
    cfg = ModelConfig(model=Model.NE, w_n=0.0, w_c=1.0, w_nc=0.0, w_i=0.0)
    combined = rank_documents(score_ne(query, corpus_index, cfg))
    class_only = rank_documents(cosine_score(query_bags[Space.C], corpus_index.spaces[Space.C]))
    assert combined == class_only


def test_score_ne_matches_dense_oracle(figure_kb, corpus_reps, corpus_index):
    cfg = ModelConfig(model=Model.NE)
    query = represent_query(FIGURE_QUERY, figure_kb, cfg)
    expected = oracles.dense_ne_scores(
        oracle_space_bags(corpus_reps),
        {space.value: dict(bag) for space, bag in query.space_bags.items()},
        {"N": 0.25, "C": 0.25, "NC": 0.25, "I": 0.25},
    )
    got = score_ne(query, corpus_index, cfg)
    assert got.keys() == expected.keys()
    assert got == pytest.approx(expected, abs=1e-9)


# --- keyword/entity blend --------------------------------------------------------

def test_union_alpha_endpoints_reproduce_components(figure_kb, corpus_index):
    for alpha, reference_model in ((0.0, Model.KW), (1.0, Model.NE)):
        blend_cfg = ModelConfig(model=Model.KW_UNION_NE, alpha=alpha)
        reference_cfg = ModelConfig(model=reference_model)
        query = represent_query(FIGURE_QUERY, figure_kb, blend_cfg)
        blend = rank_documents(score_kw_union_ne(query, corpus_index, blend_cfg))
        reference = rank_documents(score_query(query, corpus_index, reference_cfg))
        assert blend == reference  # exact, scores included


def test_union_matches_dense_oracle(figure_kb, corpus_reps, corpus_index):
    cfg = ModelConfig(model=Model.KW_UNION_NE, alpha=0.5)
    query = represent_query(FIGURE_QUERY, figure_kb, cfg)
    bags = oracle_space_bags(corpus_reps)
    ne = oracles.dense_ne_scores(
        bags,
        {space.value: dict(bag) for space, bag in query.space_bags.items()},
        {"N": 0.25, "C": 0.25, "NC": 0.25, "I": 0.25},
    )
    kw = oracles.dense_cosine(
        {d: b["KW"] for d, b in bags.items()}, dict(query.space_bags[Space.KW])
    )
    expected = oracles.dense_union_scores(ne, kw, 0.5)
    got = score_kw_union_ne(query, corpus_index, cfg)
    assert got.keys() == expected.keys()
    assert got == pytest.approx(expected, abs=1e-9)


def test_union_score_is_affine_in_alpha(figure_kb, corpus_index):
    cfg_mid = ModelConfig(model=Model.KW_UNION_NE, alpha=0.3)
    query = represent_query(FIGURE_QUERY, figure_kb, cfg_mid)
    lo = score_kw_union_ne(query, corpus_index, ModelConfig(model=Model.KW_UNION_NE, alpha=0.0))
    hi = score_kw_union_ne(query, corpus_index, ModelConfig(model=Model.KW_UNION_NE, alpha=1.0))
    mid = score_kw_union_ne(query, corpus_index, cfg_mid)
    for doc_id in set(lo) | set(hi):
        expected = 0.3 * hi.get(doc_id, 0.0) + 0.7 * lo.get(doc_id, 0.0)
        assert mid.get(doc_id, 0.0) == pytest.approx(expected, abs=1e-12)


# --- generalized space ------------------------------------------------------------

def test_empty_kb_generalized_equals_kw_exactly():
    kb = parse_kb("")
    reps = [represent_document(text, kb, doc_id) for doc_id, text in CORPUS.items()]
    idx = build_index(reps)
    for rep in reps:
        assert rep.space_bags[Space.G] == rep.space_bags[Space.KW]
    for text in ("wine exports", FIGURE_QUERY):
        kw_list = search(text, idx, kb, ModelConfig(model=Model.KW))
        gen_list = search(text, idx, kb, ModelConfig(model=Model.KW_PLUS_NE))
        assert gen_list == kw_list


def test_generalized_unique_term_ranks_its_document_first(figure_kb, corpus_index):
    results = search("existence", corpus_index, figure_kb, ModelConfig(model=Model.KW_PLUS_NE))
    assert [r.doc_id for r in results] == ["d-pres"]
    assert results[0].score > 0.0


# --- full search pipeline ----------------------------------------------------------

@pytest.mark.parametrize("model", [Model.NE, Model.KW_PLUS_NE, Model.KW_PLUS_NE_WH])
def test_query_alias_invariance(figure_kb, corpus_index, model):
    cfg = ModelConfig(model=model)
    canonical = search("Georgia wine accord", corpus_index, figure_kb, cfg)
    alias = search("Gruzia wine accord", corpus_index, figure_kb, cfg)
    assert alias == canonical
    assert canonical  # the Georgia document is reachable


@pytest.mark.parametrize("model", [Model.NE, Model.KW_PLUS_NE])
def test_document_alias_invariance_through_reindex(figure_kb, model):
    swapped = dict(CORPUS)
    swapped["d-georgia"] = "Gruzia signed the wine accord last spring."
    original_idx = build_index(
        [represent_document(t, figure_kb, d) for d, t in CORPUS.items()]
    )
    swapped_idx = build_index(
        [represent_document(t, figure_kb, d) for d, t in swapped.items()]
    )
    cfg = ModelConfig(model=model)
    for query in ("Georgia wine", "Gruzia wine"):
        assert (
            search(query, original_idx, figure_kb, cfg)
            == search(query, swapped_idx, figure_kb, cfg)
        )


def test_wh_query_retrieves_documents_by_class_subsumption(figure_kb, corpus_index):
    cfg = ModelConfig(model=Model.KW_PLUS_NE_WH)
    results = search(
        "fair", corpus_index, figure_kb, cfg, wh_override="Location"
    )
    by_doc = {r.doc_id: r.score for r in results}
    # Moscow is a City and Georgia a Country; both are Locations transitively
    assert by_doc.get("d-moscow", 0.0) > 0.0
    assert "d-georgia" in by_doc


def test_wh_mapping_applies_only_to_wh_model(figure_kb, corpus_index):
    where_query = "Where is the winter fair?"
    with_wh = search(where_query, corpus_index, figure_kb, ModelConfig(model=Model.KW_PLUS_NE_WH))
    without_wh = search(where_query, corpus_index, figure_kb, ModelConfig(model=Model.KW_PLUS_NE))
    assert {r.doc_id for r in with_wh} >= {r.doc_id for r in without_wh}
    assert any(r.doc_id == "d-moscow" for r in with_wh)


@pytest.mark.parametrize("model", list(Model))
def test_empty_query_yields_empty_results(figure_kb, corpus_index, model):
    cfg = ModelConfig(model=model)
    assert search("", corpus_index, figure_kb, cfg) == []
    assert search("the of is been", corpus_index, figure_kb, cfg) == []


def test_entityless_query_under_ne_model_is_empty(figure_kb, corpus_index):
    results = search("wine exports winter", corpus_index, figure_kb, ModelConfig(model=Model.NE))
    assert results == []


def test_tie_break_ascending_doc_id_and_cutoff(figure_kb):
    twin_corpus = {
        "twin-b": "Wine exports grew.",
        "twin-a": "Wine exports grew.",
        "other": "Moscow hosts the fair.",
    }
    idx = build_index([represent_document(t, figure_kb, d) for d, t in twin_corpus.items()])
    cfg = ModelConfig(model=Model.KW)
    results = search("wine exports", idx, figure_kb, cfg)
    assert [r.doc_id for r in results] == ["twin-a", "twin-b"]
    assert results[0].score == results[1].score
    top1 = search("wine exports", idx, figure_kb, ModelConfig(model=Model.KW, k=1))
    assert top1 == results[:1]


def test_ranking_invariant_to_corpus_order_and_query_term_order(figure_kb, corpus_reps, corpus_index):
    reversed_idx = build_index(list(reversed(corpus_reps)))
    cfg = ModelConfig(model=Model.KW_PLUS_NE)
    assert (
        search("Georgia wine", corpus_index, figure_kb, cfg)
        == search("Georgia wine", reversed_idx, figure_kb, cfg)
    )
    assert (
        search("wine Georgia", corpus_index, figure_kb, cfg)
        == search("Georgia wine", corpus_index, figure_kb, cfg)
    )


@pytest.mark.parametrize("model", list(Model))
def test_scores_lie_in_unit_interval(figure_kb, corpus_index, model):
    cfg = ModelConfig(model=model)
    for text in (FIGURE_QUERY, "Georgia wine accord", "Moscow winter fair", "United Nations peace"):
        for res in search(text, corpus_index, figure_kb, cfg):
            assert 0.0 < res.score <= 1.0


def test_format_run_lines_golden():
    results = [ScoredDoc("doc-9", 0.75), ScoredDoc("doc-2", 0.123456789)]
    assert format_run_lines("q7", results, "ne-run") == [
        "q7 Q0 doc-9 1 0.750000 ne-run",
        "q7 Q0 doc-2 2 0.123457 ne-run",
    ]
    assert format_run_lines("q7", [], "ne-run") == []


# --- property: engine cosine equals the dense oracle everywhere --------------------

@settings(max_examples=50, deadline=None)
@given(
    doc_bags=st.dictionaries(
        st.sampled_from(["d1", "d2", "d3", "d4"]),
        st.dictionaries(
            st.sampled_from(list("pqrstuv")),
            st.integers(min_value=1, max_value=6),
            min_size=1, max_size=5,
        ),
        min_size=1, max_size=4,
    ),
    query=st.dictionaries(
        st.sampled_from(list("pqrstuvxy")),
        st.integers(min_value=1, max_value=4),
        min_size=1, max_size=5,
    ),
)
def test_cosine_agrees_with_dense_oracle_on_random_corpora(doc_bags, query):
    reps = [kw_rep(d, **bag) for d, bag in doc_bags.items()]
    idx = build_index(reps)
    keyword_docs = {d: {Keyword(t): n for t, n in bag.items()} for d, bag in doc_bags.items()}
    keyword_query = {Keyword(t): n for t, n in query.items()}
    expected = oracles.dense_cosine(keyword_docs, keyword_query)
    got = cosine_score(Counter(keyword_query), idx.spaces[Space.KW])
    assert got.keys() == expected.keys()
    assert got == pytest.approx(expected, abs=1e-9)


# --- property: engine scores equal the per-posting loop bit for bit ---------------------

ENTITY_TERMS = {
    "N": [Triple("x", None, None), Triple("y", None, None), Triple("z", None, None)],
    "C": [Triple(None, "City", None), Triple(None, "Country", None)],
    "NC": [Triple("x", "City", None), Triple("y", "Country", None)],
    "I": [Triple("x", "City", "City_1"), Triple("y", "Country", "Country_1")],
}
TERM_POOLS = {
    "KW": [Keyword(t) for t in "pqrstu"],
    **ENTITY_TERMS,
    "G": [Keyword(t) for t in "pqrs"] + [t for pool in ENTITY_TERMS.values() for t in pool],
}
UNSEEN = {"KW": [Keyword("zz")], "N": [Triple("zz", None, None)], "C": [], "NC": [], "I": [],
          "G": [Keyword("zz")]}


def space_bags(pools):
    return st.fixed_dictionaries({
        name: st.dictionaries(st.sampled_from(pool), st.integers(min_value=1, max_value=6), max_size=4)
        for name, pool in pools.items()
    })


def as_rep(doc_id, bags):
    return DocRepresentation(doc_id=doc_id, space_bags={Space[n]: Counter(b) for n, b in bags.items()})


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.dictionaries(st.sampled_from([f"d{i}" for i in range(7)]), space_bags(TERM_POOLS),
                           min_size=1, max_size=7),
    query=space_bags({name: pool + UNSEEN[name] for name, pool in TERM_POOLS.items()}),
    weights=st.sampled_from([(0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1), (0.0, 1.0, 0.0, 0.0)]),
    alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    k=st.integers(min_value=1, max_value=8),
)
def test_scores_equal_the_per_posting_loop_exactly(tmp_path_factory, corpus, query, weights, alpha, k):
    built = build_index([as_rep(doc_id, bags) for doc_id, bags in corpus.items()])
    directory = tmp_path_factory.mktemp("idx")
    save_index(built, directory)
    loaded = load_index(directory)

    def loop(name):
        return oracles.loop_cosine({d: bags[name] for d, bags in corpus.items()}, query[name], serialize_term)

    space_weights = dict(zip(("N", "C", "NC", "I"), weights))
    ne = oracles.loop_ne_scores(corpus, query, space_weights, serialize_term)
    expected = {
        Model.KW: loop("KW"),
        Model.NE: ne,
        Model.KW_UNION_NE: oracles.loop_union_scores(ne, loop("KW"), alpha),
        Model.KW_PLUS_NE: loop("G"),
        Model.KW_PLUS_NE_WH: loop("G"),
    }
    q = as_rep("", query)
    for idx in (built, loaded):
        for space in Space:
            assert dict(cosine_score(q.space_bags[space], idx.spaces[space])) == loop(space.value)
        for model in Model:
            cfg = ModelConfig(model, *weights, alpha=alpha, k=k)
            got = score_query(q, idx, cfg)
            assert len(got) == len(expected[model])
            assert dict(got) == expected[model]  # == on floats: bit-identical
            assert rank_documents(got, k) == [
                (doc_id, min(1.0, score)) for doc_id, score in oracles.rank_scores(expected[model], k)
            ]


def test_rank_documents_cuts_through_ties_like_rank_scores():
    templates = [{"p": 1, "q": 1}, {"p": 2}, {"q": 3, "r": 1}, {"s": 1}]
    doc_ids = [f"d{i:02d}" for i in range(32)]
    random.Random(3).shuffle(doc_ids)
    idx = build_index([kw_rep(d, **templates[i % 4]) for i, d in enumerate(doc_ids)])
    scores = cosine_score(Counter({Keyword("p"): 1, Keyword("q"): 1}), idx.spaces[Space.KW])
    assert len(scores) == 24 and len(set(scores.values())) == 3  # three ties of eight
    for k in [None, *range(1, 27)]:
        assert rank_documents(scores, k) == oracles.rank_scores(dict(scores), k)


# --- property: one analysis pass builds the bags two passes used to ------------------

def two_pass_bags(text, kb, doc_id):
    """The multi-vector spaces from a names-kept pass, G from a names-dropped pass."""
    def expanded(keep_names, model):
        opts = AnnotationOptions(treat_names_as_keywords=keep_names)
        return expand_document(annotate(text, kb, opts), kb, model, doc_id).space_bags

    bags = dict(expanded(True, ExpansionModel.MULTIVECTOR))
    bags[Space.G] = expanded(False, ExpansionModel.GENERALIZED)[Space.G]
    return bags


def _figure_surfaces():
    kb = load_kb(DATA_DIR / "figure_kb.tsv")
    surfaces = sorted({s for e in kb.entities for s in alias_set(kb, e)})
    return surfaces + [s.upper() for s in surfaces] + [s.replace(" ", "\n ") for s in surfaces]


TEXT_PIECES = (
    _figure_surfaces()
    + ["the", "of", "is", "by", "who", "and", "in"]
    + ["president", "group", "co-chaired", "wine", "Stanfordian", "UNs", "years", "42", "_"]
)


@settings(max_examples=200, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(TEXT_PIECES), max_size=14),
    separators=st.lists(st.sampled_from([" ", "  ", "\n", ", ", ". ", "-"]), min_size=14, max_size=14),
)
def test_one_pass_document_equals_two_pass_bags(figure_kb, pieces, separators):
    text = "".join(piece + sep for piece, sep in zip(pieces, separators))
    rep = represent_document(text, figure_kb, "d")
    assert rep.doc_id == "d"
    assert rep.space_bags == two_pass_bags(text, figure_kb, "d")

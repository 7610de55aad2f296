from __future__ import annotations

import gc
import weakref

import pytest

from ontosearch.annotate import (
    DEFAULT_STOPWORDS,
    DEFAULT_WH_MAPPING,
    EntityAnnotation,
    annotate,
    keywords_outside_entities,
    load_stopwords,
    load_wh_mapping,
    map_interrogative,
    recognize_entities,
    tokenize_keywords,
)
from ontosearch import kb as kb_module
from ontosearch.kb import parse_kb
from ontosearch.stem import stem

from conftest import FIGURE_DOC, FIGURE_QUERY


def stems(tokens):
    return [t.stem for t in tokens]


def test_query_tokenization_drops_stopwords_and_wh_words():
    tokens = tokenize_keywords(FIGURE_QUERY, DEFAULT_STOPWORDS)
    assert stems(tokens) == [stem("president"), stem("stanford"), stem("university")]
    assert stems(tokens) == ["presid", "stanford", "univers"]


def test_empty_text():
    assert tokenize_keywords("", DEFAULT_STOPWORDS) == []


def test_all_stopword_text():
    assert tokenize_keywords("the of and", {"the", "of", "and"}) == []


def test_hyphenated_token_survives():
    tokens = tokenize_keywords("co-chaired by", DEFAULT_STOPWORDS)
    assert stems(tokens) == ["co-chair"]


def test_token_spans_are_ordered_and_disjoint():
    tokens = tokenize_keywords(FIGURE_DOC, DEFAULT_STOPWORDS)
    for earlier, later in zip(tokens, tokens[1:]):
        assert earlier.char_span[1] <= later.char_span[0]


def test_recognize_full_identification(figure_kb):
    found = recognize_entities("Stanford University President Don Kennedy", figure_kb)
    assert found[0].name == "Stanford University"
    assert found[0].class_id == "University"
    assert found[0].entity_id == "University_T.52"
    assert [a.entity_id for a in found] == ["University_T.52", "Man_T.300"]


def test_recognize_prefers_longest_match(figure_kb):
    found = recognize_entities("The California Compact meets today", figure_kb)
    assert len(found) == 1
    assert found[0].entity_id == "Organization_T.77"


def test_recognize_no_matches(figure_kb):
    assert recognize_entities("nothing to see here", figure_kb) == []


def test_recognize_same_class_ambiguity(figure_kb):
    found = recognize_entities("We flew to Moscow yesterday", figure_kb)
    assert len(found) == 1
    ann = found[0]
    assert ann.class_id == "City"
    assert ann.entity_id is None
    assert ann.name == "Moscow"


def test_recognize_mixed_class_ambiguity_falls_back_to_name():
    kb = parse_kb(
        "CLASS\tCountry\t-\t-\n"
        "CLASS\tProvince\t-\t-\n"
        "ENTITY\tC1\tCountry\tGeorgia\t-\n"
        "ENTITY\tP1\tProvince\tGeorgia\t-\n"
    )
    found = recognize_entities("Georgia exports wine", kb)
    assert len(found) == 1
    assert found[0].name == "Georgia"
    assert found[0].class_id is None and found[0].entity_id is None


def test_recognize_alias_resolves_to_same_entity(figure_kb):
    by_canonical = recognize_entities("Georgia joined", figure_kb)
    by_alias = recognize_entities("Gruzia joined", figure_kb)
    assert by_canonical[0].entity_id == by_alias[0].entity_id == "Country_T.88"
    assert by_alias[0].name == "Georgia"


def test_recognize_ignores_substrings_of_words(figure_kb):
    # "UN" is an alias but must not fire inside "UNESCO" or "undone"
    assert recognize_entities("UNESCO undone", figure_kb) == []


def test_recognize_collapses_whitespace_and_case(figure_kb):
    found = recognize_entities("we toured stanford    university today", figure_kb)
    assert len(found) == 1
    assert found[0].entity_id == "University_T.52"


def test_recognize_multiword_surface_containing_stopword(figure_kb):
    found = recognize_entities("the United Nations charter", figure_kb)
    assert [a.entity_id for a in found] == ["InternationalOrganization_T.17"]


TWO_CITY_KB = (
    "CLASS\tPlace\t-\tTOP\n"
    "CLASS\tCity\tPlace\t-\n"
    "ENTITY\tc1\tCity\tOslo\tChristiania\n"
    "ENTITY\tc2\tCity\tBergen\t-\n"
)


def test_gazetteer_is_built_once_per_kb(monkeypatch):
    builds = []
    compile_gazetteer = kb_module._compile_gazetteer

    def counting(surfaces):
        builds.append(1)
        return compile_gazetteer(surfaces)

    monkeypatch.setattr(kb_module, "_compile_gazetteer", counting)
    kb = parse_kb(TWO_CITY_KB)
    assert builds == []  # loading does not pay for the gazetteer
    for _ in range(50):
        assert [a.entity_id for a in recognize_entities("Oslo and Bergen", kb)] == ["c1", "c2"]
    assert len(builds) == 1
    recognize_entities("Bergen", parse_kb(TWO_CITY_KB))
    assert len(builds) == 2


def test_dropped_kb_is_garbage_collected():
    kb = parse_kb(TWO_CITY_KB)
    assert recognize_entities("Christiania", kb)
    ref = weakref.ref(kb)
    del kb
    gc.collect()
    assert ref() is None


def test_kbs_never_share_a_gazetteer():
    oslo = parse_kb(TWO_CITY_KB.replace("ENTITY\tc2\tCity\tBergen\t-\n", ""))
    bergen = parse_kb(TWO_CITY_KB.replace("ENTITY\tc1\tCity\tOslo\tChristiania\n", ""))
    text = "Oslo, Bergen, Christiania"
    for _ in range(2):  # interleaved calls, each KB after the other has compiled
        assert [a.entity_id for a in recognize_entities(text, oslo)] == ["c1", "c1"]
        assert [a.entity_id for a in recognize_entities(text, bergen)] == ["c2"]
    assert oslo.gazetteer is not bergen.gazetteer


def test_map_interrogative():
    assert map_interrogative("Who", DEFAULT_WH_MAPPING) == "Person"
    assert map_interrogative("Where", DEFAULT_WH_MAPPING) == "Location"
    assert map_interrogative("Zorp", DEFAULT_WH_MAPPING) is None


def test_annotate_generalized_keywords(figure_kb):
    at = annotate(FIGURE_DOC, figure_kb)
    assert sorted(stems(keywords_outside_entities(at.keywords, at.entities))) == sorted(
        [stem(w) for w in ("existence", "years", "group", "co-chaired", "President")]
    )
    assert len(at.entities) == 4


def test_annotate_multivector_keeps_name_tokens(figure_kb):
    at = annotate(FIGURE_DOC, figure_kb)
    extra = {stem(w) for w in ("California", "Compact", "Stanford", "University", "Don", "Kennedy")}
    assert extra <= set(stems(at.keywords))
    assert len(at.entities) == 4


def test_annotate_entity_only_text(figure_kb):
    at = annotate("Stanford University", figure_kb)
    assert keywords_outside_entities(at.keywords, at.entities) == []
    assert len(at.entities) == 1


def test_annotate_is_deterministic(figure_kb):
    wh_mapping = dict(DEFAULT_WH_MAPPING)
    assert annotate(FIGURE_QUERY, figure_kb, wh_mapping=wh_mapping) == annotate(
        FIGURE_QUERY, figure_kb, wh_mapping=wh_mapping
    )


def test_annotate_wh_classes(figure_kb):
    enabled = dict(DEFAULT_WH_MAPPING)
    assert annotate(FIGURE_QUERY, figure_kb, wh_mapping=enabled).wh_classes == ["Person"]

    assert annotate(FIGURE_QUERY, figure_kb, wh_mapping=None).wh_classes == []

    overridden = annotate(FIGURE_QUERY, figure_kb, wh_mapping=enabled, wh_override="Location")
    assert overridden.wh_classes == ["Location"]


def test_wh_only_considers_leading_token(figure_kb):
    at = annotate("Tell me where Moscow is", figure_kb, wh_mapping=dict(DEFAULT_WH_MAPPING))
    assert at.wh_classes == []


def test_annotation_invariants_enforced():
    with pytest.raises(ValueError):
        EntityAnnotation(char_span=(0, 1), surface="x")
    with pytest.raises(ValueError):
        EntityAnnotation(char_span=(0, 1), surface="x", entity_id="E1")


def test_stopword_and_wh_mapping_files(tmp_path):
    sw = tmp_path / "stop.txt"
    sw.write_text("The\nof\n\nAND\n", encoding="utf-8")
    assert load_stopwords(sw) == {"the", "of", "and"}

    wh = tmp_path / "wh.tsv"
    wh.write_text("Who\tPerson\nwhere\tLocation\n", encoding="utf-8")
    assert load_wh_mapping(wh) == {"who": "Person", "where": "Location"}

    bad = tmp_path / "bad.tsv"
    bad.write_text("Who Person\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_wh_mapping(bad)

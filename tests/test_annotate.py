from __future__ import annotations

import gc
import re
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.annotate import (
    DEFAULT_STOPWORDS,
    DEFAULT_WH_MAPPING,
    EntityAnnotation,
    annotate,
    keywords_outside_entities,
    load_stopwords,
    load_wh_mapping,
    recognize_entities,
    tokenize_keywords,
    wh_class,
)
from ontosearch.expand import Space, triple_slots
from ontosearch.rank import Model, ModelConfig, represent_query
from ontosearch import kb as kb_module
from ontosearch.kb import KnowledgeBase, normalize_name, parse_kb
from ontosearch.stem import stem

from conftest import FIGURE_DOC, FIGURE_QUERY
from oracles import keywords_outside_entities_any, recognize_regex, recognize_scan, tokenize_walk


def stems(text):
    """The stems `tokenize_keywords` keeps from `text` under the default stop words."""
    return tokenize_keywords(text, DEFAULT_STOPWORDS)[0]


def test_query_tokenization_drops_stopwords_and_wh_words():
    assert stems(FIGURE_QUERY) == [stem("president"), stem("stanford"), stem("university")]
    assert stems(FIGURE_QUERY) == ["presid", "stanford", "univers"]


def test_empty_text():
    assert tokenize_keywords("", DEFAULT_STOPWORDS) == ([], [])


def test_all_stopword_text():
    assert tokenize_keywords("the of and", {"the", "of", "and"}) == ([], [])


def test_hyphenated_token_survives():
    assert tokenize_keywords("co-chaired by", DEFAULT_STOPWORDS) == (["co-chair"], [(0, 10)])


def test_token_spans_are_ordered_and_disjoint():
    words, spans = tokenize_keywords(FIGURE_DOC, DEFAULT_STOPWORDS)
    assert len(words) == len(spans) > 1
    for (start, end), (later_start, _) in zip(spans, spans[1:]):
        assert start < end <= later_start


TOKEN_PIECES = (
    "the", "The", "of", "who", "president", "co-chaired", "Stanfordian", "42", "x2", "²", "Ⅻ",
    "_", "snake_case", "_lead", "trail_", "Straße", "STRASSE", "ﬁle", "ſ", "İstanbul", "ǅemal",
    "ΣΊΣΥΦΟΣ", "日本語", "Zürich", "a\u0345b", "-lead", "trail-", "a--b", "--", "-", "a-b-c",
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOKEN_PIECES),
                          st.sampled_from(["", " ", "-", "--", "_", ", ", "\n", "'", "’"])),
                max_size=12))
def test_tokenize_keywords_equals_the_character_walk(pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    assert tokenize_keywords(text, DEFAULT_STOPWORDS) == tokenize_walk(text, DEFAULT_STOPWORDS)


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


def test_recognize_finds_a_name_in_its_own_casefold_spelling():
    # "Straße" casefolds to "strasse", so the surface is "strasse nord"
    kb = parse_kb("CLASS\tPlace\t-\t-\nENTITY\ts1\tPlace\tStraße Nord\t-\n")
    assert list(kb.name_index) == ["strasse nord"]
    for text in ("Straße Nord", "STRASSE  nord", "an der Straße\nNord."):
        found = recognize_entities(text, kb)
        assert [a.entity_id for a in found] == ["s1"], text
        assert normalize_name(found[0].surface) == "strasse nord"


PUNCTUATED_KB = (
    "CLASS\tOrg\t-\t-\n"
    "ENTITY\to1\tOrg\tSt. Louis\t-\n"
    "ENTITY\to2\tOrg\tAT&T\t-\n"
    "ENTITY\to3\tOrg\tfoo_bar\t-\n"
    "ENTITY\to4\tOrg\t.NET\t-\n"
    "ENTITY\to5\tOrg\tAcme Inc.\tAcme\n"
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("in St.\n\tLouis today", [("St.\n\tLouis", "o1")]),
        ("St.Louis", []),  # the surface has a space there
        ("AT&T, .NET and foo_bar", [("AT&T", "o2"), (".NET", "o4"), ("foo_bar", "o3")]),
        ("ASP.NET x_foo_bar", [("foo_bar", "o3")]),  # '.' follows a letter, '_' does not count
        ("Acme Inc. rose", [("Acme Inc.", "o5")]),
        ("Acme Inc.com", [("Acme", "o5")]),  # the longer span would end inside a word
        ("AT&Tx", []),
    ],
)
def test_recognize_surfaces_with_punctuation(text, expected):
    kb = parse_kb(PUNCTUATED_KB)
    found = recognize_entities(text, kb)
    assert [(a.surface, a.entity_id) for a in found] == expected
    assert [a.char_span for a in found] == recognize_scan(text, kb)


# KB surfaces that end or begin in punctuation, hold '_', or change under
# casefold (ß -> ss, ﬁ -> fi, final sigma -> σ, İ -> i + U+0307, U+0345 -> ι)
ODD_SURFACES = ["St. Louis", "AT&T", "foo_bar", ".NET", "Acme Inc.", "ß", "ﬁ", "ﬁle",
                "λόγος", "İzmir", "Straße Nord", "Louis", "foo", "AT", "ιb", "&", "."]
ODD_WORDS = ["St", "ST", "Louis", "louis", "AT", "at", "T", "t", "foo", "FOO", "bar", "NET", "net",
             "Acme", "Inc", "ß", "SS", "ss", "ẞ", "ﬁ", "FI", "fi", "ﬁle", "FILE", "λόγος", "ΛΌΓΟΣ",
             "λόγοσ", "İzmir", "izmir", "i̇zmir", "İ", "Straße", "STRASSE", "Nord", "x", "b"]
PUNCTUATION = list(".-_&',") + ["\u0345"]
WHITESPACE = [" ", "  ", "\n", "\t", " \n\t ", "\u00a0", "\x1c"]


def kb_of(surfaces) -> str:
    return "CLASS\tA\t-\t-\n" + "".join(
        f"ENTITY\te{i}\tA\t{surface}\t-\n" for i, surface in enumerate(surfaces))


@st.composite
def kb_and_text(draw, surfaces, words):
    chosen = draw(st.lists(st.sampled_from(surfaces), min_size=1, max_size=6, unique=True))
    pieces = draw(st.lists(st.one_of(st.sampled_from(words), st.sampled_from(PUNCTUATION),
                                     st.sampled_from(WHITESPACE)), max_size=14))
    return parse_kb(kb_of(chosen)), "".join(pieces)


@settings(max_examples=400, deadline=None)
@given(kb_and_text(ODD_SURFACES, ODD_WORDS))
def test_recognize_equals_the_span_scan(case):
    kb, text = case
    found = recognize_entities(text, kb)
    assert [a.char_span for a in found] == recognize_scan(text, kb)
    assert all(a.surface == text[slice(*a.char_span)] for a in found)


ASCII_SURFACES = [s for s in ODD_SURFACES if s.isascii()]
ASCII_WORDS = [w for w in ODD_WORDS if w.isascii()]


@settings(max_examples=300, deadline=None)
@given(kb_and_text(ASCII_SURFACES, ASCII_WORDS))
def test_recognize_equals_the_regex_gazetteer_on_ascii(case):
    kb, text = case
    spans = [a.char_span for a in recognize_entities(text, kb)]
    assert spans == recognize_regex(text, kb) == recognize_scan(text, kb)


def test_blank_alias_matches_nothing():
    # parse_kb rejects an alias of only spaces; a KB built around it may
    # still hold its normal form "", which no mention can spell
    parsed = parse_kb("CLASS\tA\t-\t-\nENTITY\te1\tA\tOslo\t-\n")
    kb = KnowledgeBase(parsed.classes, parsed.entities, {**parsed.name_index, "": frozenset({"e1"})})
    assert "" in kb.name_index
    assert [a.char_span for a in recognize_entities("Oslo, then Bergen.", kb)] == [(0, 4)]


def test_recognize_through_a_character_that_folds_into_a_word():
    # U+0345 is no letter, but casefolds to the letter ι
    kb = parse_kb(kb_of(["aιb", "ιc"]))
    for text in ("a\u0345b", "x \u0345c", "a\u0345b\u0345c"):
        spans = [a.char_span for a in recognize_entities(text, kb)]
        assert spans == recognize_scan(text, kb), text
    assert [a.char_span for a in recognize_entities("a\u0345b", kb)] == [(0, 3)]


def test_casefold_changes_letterhood_only_where_the_gazetteer_expects():
    """kb._compile_gazetteer cuts surfaces beside every ι; this pins why that is enough.

    No character's casefold turns whitespace into non-whitespace or back,
    and the only character that is not alphanumeric but folds to an
    alphanumeric one is U+0345, which folds to ι.
    """
    into_runs = set()
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        folded = ch.casefold()
        if folded == ch:
            continue
        assert all(f.isspace() == ch.isspace() for f in folded), hex(code)
        if not ch.isalnum():
            into_runs.update(f for f in folded if f.isalnum())
    assert into_runs == {"\u03b9"}


def test_gazetteer_builds_no_regular_expression(monkeypatch):
    compiled = []

    def recording(original):
        def compile_(pattern, *args, **kwargs):
            compiled.append(pattern)
            return original(pattern, *args, **kwargs)
        return compile_

    monkeypatch.setattr(re, "compile", recording(re.compile))
    monkeypatch.setattr(re, "_compile", recording(re._compile))
    kb = parse_kb(PUNCTUATED_KB)
    assert recognize_entities("St. Louis, AT&T and Acme Inc.", kb)
    assert compiled == []
    ref = weakref.ref(kb)
    del kb
    gc.collect()
    assert ref() is None


def test_map_interrogative():
    assert wh_class("Who", DEFAULT_WH_MAPPING) == "Person"
    assert wh_class("Where", DEFAULT_WH_MAPPING) == "Location"
    assert wh_class("Zorp", DEFAULT_WH_MAPPING) is None


def test_annotate_generalized_keywords(figure_kb):
    at = annotate(FIGURE_DOC, figure_kb)
    assert sorted(keywords_outside_entities(at.stems, at.spans, at.entities)) == sorted(
        [stem(w) for w in ("existence", "years", "group", "co-chaired", "President")]
    )
    assert len(at.entities) == 4


def test_annotate_multivector_keeps_name_tokens(figure_kb):
    at = annotate(FIGURE_DOC, figure_kb)
    extra = {stem(w) for w in ("California", "Compact", "Stanford", "University", "Don", "Kennedy")}
    assert extra <= set(at.stems)
    assert len(at.entities) == 4


def test_annotate_entity_only_text(figure_kb):
    at = annotate("Stanford University", figure_kb)
    assert keywords_outside_entities(at.stems, at.spans, at.entities) == []
    assert len(at.entities) == 1


def test_annotate_is_deterministic(figure_kb):
    assert annotate(FIGURE_QUERY, figure_kb) == annotate(FIGURE_QUERY, figure_kb)


def test_annotate_wh_classes(figure_kb):
    enabled = dict(DEFAULT_WH_MAPPING)

    def wh_classes(model, **kwargs):
        """The class-only G terms of the query's representation under `model`."""
        bag = represent_query(FIGURE_QUERY, figure_kb, ModelConfig(model=model),
                              wh_mapping=enabled, **kwargs).space_bags[Space.G]
        return [triple_slots(t)[1] for t in bag if t.startswith("t:*/") and t.endswith("/*")]

    assert wh_class(FIGURE_QUERY, enabled) == "Person"
    assert wh_classes(Model.KW_PLUS_NE_WH) == ["Person"]

    assert wh_classes(Model.KW_PLUS_NE) == []

    assert wh_classes(Model.KW_PLUS_NE_WH, wh_override="Location") == ["Location"]


def test_wh_only_considers_leading_token():
    assert wh_class("Tell me where Moscow is", dict(DEFAULT_WH_MAPPING)) is None


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


@pytest.mark.parametrize("load", [load_stopwords, load_wh_mapping])
def test_a_word_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, load):
    path = tmp_path / "words.tsv"
    path.write_bytes(b"who\tPerson\nwh\xffere\tLocation\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: not valid UTF-8")):
        load(path)


def test_wh_mapping_file_maps_each_word_once(tmp_path):
    wh = tmp_path / "wh.tsv"
    wh.write_text("who\tPerson\n# again\nWHO\tLocation\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc_info:
        load_wh_mapping(wh)
    assert str(exc_info.value) == f"{wh}:3: word 'who' is mapped again; line 1 mapped it first"


def ordered_spans(min_gap: int):
    """Disjoint non-empty spans in text order, from (gap, length) steps."""
    steps = st.lists(st.tuples(st.integers(min_gap, 4), st.integers(1, 6)), max_size=12)

    def lay(pairs):
        spans, pos = [], 0
        for gap, length in pairs:
            spans.append((pos + gap, pos + gap + length))
            pos += gap + length
        return spans

    return steps.map(lay)


@settings(max_examples=300)
@given(ordered_spans(min_gap=0), ordered_spans(min_gap=0))
def test_keywords_outside_entities_equals_the_any_definition(token_spans, entity_spans):
    words = [f"w{i}" for i in range(len(token_spans))]
    entities = [EntityAnnotation(char_span=span, surface="x", name="x") for span in entity_spans]
    assert keywords_outside_entities(words, token_spans, entities) == keywords_outside_entities_any(
        words, token_spans, entities
    )

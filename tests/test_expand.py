from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.annotate import (
    DEFAULT_STOPWORDS,
    DEFAULT_WH_MAPPING,
    AnnotatedText,
    EntityAnnotation,
    annotate,
    keywords_outside_entities,
    tokenize_keywords,
    wh_class,
)
from ontosearch import expand as expand_module
from ontosearch.expand import (
    Keyword,
    Space,
    Triple,
    display_term,
    expand_document,
    expand_query,
    triple_slots,
)
from ontosearch.index import build_index, load_index, save_index
from ontosearch.kb import normalize_name, parse_kb

from conftest import FIGURE_QUERY, counted_document
from oracles import closure_walk

def entity_only(ann: EntityAnnotation) -> AnnotatedText:
    return AnnotatedText(stems=[], spans=[], entities=[ann])


def generalized_from_other_spaces(at: AnnotatedText, rep) -> Counter:
    """G as the spaces it mixes: the keywords outside mentions plus N, C, NC and I."""
    bag = Counter(map(Keyword, keywords_outside_entities(at.stems, at.spans, at.entities)))
    for space in (Space.N, Space.C, Space.NC, Space.I):
        bag.update(rep.space_bags[space])
    return bag


def california_annotation() -> EntityAnnotation:
    return EntityAnnotation(
        char_span=(0, 10),
        surface="California",
        name="California",
        class_id="Province",
        entity_id="Province_T.4198",
    )


def test_california_generalized_block(figure_kb):
    at = entity_only(california_annotation())
    rep = expand_document(at, figure_kb)
    expected = {
        Triple(entity_id="Province_T.4198"),
        Triple(name="California"),
        Triple(class_id="Province"),
        Triple(name="California", class_id="Province"),
        Triple(class_id="PoliticalRegion"),
        Triple(class_id="Location"),
        Triple(name="California", class_id="PoliticalRegion"),
        Triple(name="California", class_id="Location"),
    }
    assert rep.space_bags[Space.G] == Counter({t: 1 for t in expected})
    assert not rep.space_bags[Space.KW]
    assert rep.space_bags[Space.G] == generalized_from_other_spaces(at, rep)


def test_name_only_annotation_expands_to_single_term(figure_kb):
    ann = EntityAnnotation(char_span=(0, 4), surface="Zork", name="Zork")
    rep = expand_document(entity_only(ann), figure_kb)
    assert rep.space_bags[Space.G] == Counter({Triple(name="Zork"): 1})


def test_class_only_annotation_expands_to_its_class_closure(figure_kb):
    ann = EntityAnnotation(char_span=(0, 3), surface="man", class_id="Man")
    rep = expand_document(entity_only(ann), figure_kb)
    closure = Counter({Triple(class_id=c): 1 for c in ("Man", "Person", "Agent")})
    assert rep.space_bags[Space.C] == closure
    assert not rep.space_bags[Space.N] and not rep.space_bags[Space.NC]
    assert not rep.space_bags[Space.I]
    assert rep.space_bags[Space.G] == closure


def test_stanford_block_has_18_distinct_terms(figure_kb):
    ann = EntityAnnotation(
        char_span=(0, 19),
        surface="Stanford University",
        name="Stanford University",
        class_id="University",
        entity_id="University_T.52",
    )
    rep = expand_document(entity_only(ann), figure_kb)
    bag = rep.space_bags[Space.G]
    names = {"Stanford University", "Stanford"}
    classes = {"University", "EducationalOrganization", "Organization", "Group", "Agent"}
    expected = (
        {Triple(entity_id="University_T.52")}
        | {Triple(name=n) for n in names}
        | {Triple(class_id=c) for c in classes}
        | {Triple(name=n, class_id=c) for n in names for c in classes}
    )
    assert len(expected) == 18
    assert bag == Counter({t: 1 for t in expected})


def test_stanford_multivector_spaces(figure_kb):
    ann = EntityAnnotation(
        char_span=(0, 19),
        surface="Stanford University",
        name="Stanford University",
        class_id="University",
        entity_id="University_T.52",
    )
    rep = expand_document(entity_only(ann), figure_kb)
    assert set(rep.space_bags[Space.N]) == {
        Triple(name="Stanford University"),
        Triple(name="Stanford"),
    }
    assert set(rep.space_bags[Space.C]) == {
        Triple(class_id=c)
        for c in ("University", "EducationalOrganization", "Organization", "Group", "Agent")
    }
    assert len(rep.space_bags[Space.NC]) == 10
    assert rep.space_bags[Space.I] == Counter({Triple(entity_id="University_T.52"): 1})
    assert rep.space_bags[Space.G] == generalized_from_other_spaces(entity_only(ann), rep)


def test_idless_annotation_emits_full_class_closure(figure_kb):
    # name + class but no identifier: no alias closure, full superclass closure
    ann = EntityAnnotation(
        char_span=(0, 11), surface="Don Kennedy", name="Don Kennedy", class_id="Man"
    )
    rep = expand_document(entity_only(ann), figure_kb)
    bag = rep.space_bags[Space.G]
    classes = {"Man", "Person", "Agent"}
    expected = (
        {Triple(name="Don Kennedy")}
        | {Triple(class_id=c) for c in classes}
        | {Triple(name="Don Kennedy", class_id=c) for c in classes}
    )
    assert bag == Counter({t: 1 for t in expected})
    assert Triple(class_id="Agent") in bag  # the closure is not abbreviated


def test_space_shape_invariants(figure_kb):
    text = "Stanford University and Moscow reports"
    at = annotate(text, figure_kb)
    rep = expand_document(at, figure_kb, doc_id="d1")
    assert all(t.startswith("k:") for t in rep.space_bags[Space.KW])
    # which of name, class and id each entity space's terms set
    shapes = {Space.N: (True, False, False), Space.C: (False, True, False),
              Space.NC: (True, True, False), Space.I: (False, False, True)}
    for space, shape in shapes.items():
        assert rep.space_bags[space]
        for t in rep.space_bags[space]:
            assert tuple(slot is not None for slot in triple_slots(t)) == shape, t


def test_query_golden_terms_with_and_without_wh(figure_kb):
    at = annotate(FIGURE_QUERY, figure_kb)
    with_wh = expand_query(at, figure_kb, wh_class=wh_class(FIGURE_QUERY, dict(DEFAULT_WH_MAPPING)))
    assert set(with_wh.space_bags[Space.G]) == {
        Triple(class_id="Person"),
        Keyword("presid"),
        Triple(entity_id="University_T.52"),
    }

    without_wh = expand_query(annotate(FIGURE_QUERY, figure_kb), figure_kb)
    assert set(without_wh.space_bags[Space.G]) == {
        Keyword("presid"),
        Triple(entity_id="University_T.52"),
    }


def test_query_multivector_space_placement(figure_kb):
    stems, spans = tokenize_keywords("newly joined", set())
    entities = [
        EntityAnnotation(char_span=(0, 9), surface="Countries", class_id="Country"),
        EntityAnnotation(
            char_span=(30, 48),
            surface="the United Nations",
            name="United Nations",
            class_id="InternationalOrganization",
            entity_id="InternationalOrganization_T.17",
        ),
    ]
    at = AnnotatedText(stems=stems, spans=spans, entities=entities)
    rep = expand_query(at, figure_kb)
    assert rep.space_bags[Space.C] == Counter({Triple(class_id="Country"): 1})
    assert rep.space_bags[Space.I] == Counter(
        {Triple(entity_id="InternationalOrganization_T.17"): 1}
    )
    assert set(rep.space_bags[Space.KW]) == {Keyword("newli"), Keyword("join")}
    assert not rep.space_bags[Space.N] and not rep.space_bags[Space.NC]


def test_query_most_specific_ladder(figure_kb):
    nc = EntityAnnotation(char_span=(0, 6), surface="Moscow", name="Moscow", class_id="City")
    rep = expand_query(entity_only(nc), figure_kb)
    assert rep.space_bags[Space.NC] == Counter({Triple(name="Moscow", class_id="City"): 1})
    assert not rep.space_bags[Space.N] and not rep.space_bags[Space.C]

    name_only = EntityAnnotation(char_span=(0, 4), surface="Zork", name="Zork")
    rep = expand_query(entity_only(name_only), figure_kb)
    assert rep.space_bags[Space.N] == Counter({Triple(name="Zork"): 1})

    class_only = EntityAnnotation(char_span=(0, 9), surface="Countries", class_id="Country")
    rep = expand_query(entity_only(class_only), figure_kb)
    assert rep.space_bags[Space.C] == Counter({Triple(class_id="Country"): 1})


def test_query_singleness(figure_kb):
    at = annotate("Stanford University", figure_kb)
    rep = expand_query(at, figure_kb)
    non_keyword = [t for t in rep.space_bags[Space.G] if t.startswith("t:")]
    assert len(non_keyword) == 1


@pytest.mark.parametrize("k", [1, 2, 5])
def test_per_occurrence_counting(figure_kb, k):
    text = ", ".join(["Moscow"] * k)
    at = annotate(text, figure_kb)
    assert len(at.entities) == k
    rep = expand_document(at, figure_kb)
    assert set(rep.space_bags[Space.G].values()) == {k}
    assert rep.space_bags[Space.G][Triple(class_id="City")] == k


def test_document_alias_substitution_is_invisible(figure_kb):
    canonical = "Georgia exports fine wine"
    aliased = "Gruzia exports fine wine"

    rep_a = expand_document(annotate(canonical, figure_kb), figure_kb)
    rep_b = expand_document(annotate(aliased, figure_kb), figure_kb)
    for space in (Space.N, Space.C, Space.NC, Space.I, Space.G):
        assert rep_a.space_bags[space] == rep_b.space_bags[space]
    assert rep_a.space_bags[Space.KW] != rep_b.space_bags[Space.KW]


def test_empty_kb_degenerates_to_keywords():
    kb = parse_kb("")
    text = "Stanford University research on retrieval"
    at = annotate(text, kb)
    rep = expand_document(at, kb, doc_id="d")
    plain = Counter(map(Keyword, tokenize_keywords(text, DEFAULT_STOPWORDS)[0]))
    assert rep.space_bags[Space.G] == plain
    assert rep.space_bags[Space.KW] == plain
    for space in (Space.N, Space.C, Space.NC, Space.I):
        assert not rep.space_bags[space]


def test_subsumption_soundness_against_graph_walk(figure_kb):
    parents = {c: set(d.parent_ids) for c, d in figure_kb.classes.items()}
    top = {c for c, d in figure_kb.classes.items() if d.is_top_level}
    for class_id in figure_kb.classes:
        if class_id in top:
            continue
        ann = EntityAnnotation(char_span=(0, 1), surface="x", name="x", class_id=class_id)
        rep = expand_document(entity_only(ann), figure_kb)
        bag = rep.space_bags[Space.G]
        for ancestor in closure_walk(parents, top, class_id):
            assert bag[Triple(class_id=ancestor)] == 1


def test_unknown_ids_rejected(figure_kb):
    bad_entity = EntityAnnotation(
        char_span=(0, 1), surface="x", name="x", class_id="Province", entity_id="Nope"
    )
    with pytest.raises(ValueError, match="unknown entity"):
        expand_document(entity_only(bad_entity), figure_kb)
    bad_class = EntityAnnotation(char_span=(0, 1), surface="x", name="x", class_id="Nope")
    with pytest.raises(ValueError, match="unknown class"):
        expand_document(entity_only(bad_class), figure_kb)
    with pytest.raises(ValueError, match="unknown class"):
        expand_query(entity_only(bad_class), figure_kb)


def test_unknown_ids_rejected_on_every_call(figure_kb):
    bad_entity = EntityAnnotation(
        char_span=(0, 1), surface="x", name="x", class_id="Province", entity_id="Nope"
    )
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown entity"):
            expand_document(entity_only(bad_entity), figure_kb)
    assert ("x", "Province", "Nope") not in figure_kb.expansions


def counting_expansion_sets(monkeypatch) -> list:
    calls = []
    original = expand_module._expansion_sets

    def counting(ann, kb):
        calls.append((ann.name, ann.class_id, ann.entity_id))
        return original(ann, kb)

    monkeypatch.setattr(expand_module, "_expansion_sets", counting)
    return calls


FIGURE_TEXT = "Georgia and Gruzia; Stanford University, Moscow and Georgia"


def test_each_annotation_key_is_expanded_once_per_kb(figure_kb_path, monkeypatch):
    calls = counting_expansion_sets(monkeypatch)
    kb = parse_kb(figure_kb_path.read_text(encoding="utf-8"))
    at = annotate(FIGURE_TEXT, kb)
    first = expand_document(at, kb, "d")
    for _ in range(5):
        assert expand_document(annotate(FIGURE_TEXT, kb), kb, "d") == first
    keys = {(a.name, a.class_id, a.entity_id) for a in at.entities}
    assert len(at.entities) == 5 and len(keys) == 3  # Georgia x3 (one via its alias)
    assert sorted(calls) == sorted(keys)
    assert first.space_bags[Space.I][Triple(entity_id="Country_T.88")] == 3


def test_spellings_of_one_unidentified_name_share_an_expansion(monkeypatch):
    calls = counting_expansion_sets(monkeypatch)
    kb = parse_kb(
        "CLASS\tCountry\t-\t-\n"
        "CLASS\tProvince\t-\t-\n"
        "CLASS\tCity\t-\t-\n"
        "ENTITY\tC1\tCountry\tGeorgia\t-\n"
        "ENTITY\tP1\tProvince\tGeorgia\t-\n"
        "ENTITY\tS1\tCity\tSt. Louis\t-\n"
        "ENTITY\tS2\tCity\tSt. Louis\t-\n"
    )
    text = "Georgia, GEORGIA and georgia; St. Louis and ST.\n\tLOUIS"
    at = annotate(text, kb)
    assert [a.entity_id for a in at.entities] == [None] * 5
    rep = expand_document(at, kb, "d")
    assert sorted(kb.expansions) == [("georgia", None, None), ("st. louis", "City", None)]
    assert len(calls) == 2
    assert rep.space_bags[Space.N] == Counter({Triple(name="Georgia"): 3, Triple(name="St. Louis"): 2})


def test_kbs_never_share_expansions(figure_kb_path, monkeypatch):
    calls = counting_expansion_sets(monkeypatch)
    text = figure_kb_path.read_text(encoding="utf-8")
    one, other = parse_kb(text), parse_kb(text)
    assert one.expansions is not other.expansions
    for kb in (one, other, one, other):
        expand_document(annotate(FIGURE_TEXT, kb), kb, "d")
    assert len(calls) == 2 * 3
    assert one.expansions.keys() == other.expansions.keys()


def test_triple_requires_a_slot():
    with pytest.raises(ValueError):
        Triple()
    with pytest.raises(ValueError, match="at least one specified slot"):
        Triple(None, None, None)


def test_triple_names_are_normalized():
    assert Triple(name="Stanford  UNIVERSITY") == Triple(name="stanford university")
    spaced, folded = Triple(name="A  B"), Triple(name="a b")
    assert spaced == folded == "t:a b/*/*"
    assert triple_slots(spaced) == ("a b", None, None)
    assert Counter([spaced, folded]) == Counter({folded: 2})


def test_serialization_goldens():
    assert Keyword("presid") == "k:presid"
    assert Triple(entity_id="University_T.52") == "t:*/*/University_T.52"
    assert Triple(name="a/b", class_id="x%y") == "t:a%2Fb/x%25y/*"
    assert Triple(class_id="*", entity_id="\t\n") == "t:*/%2A/%09%0A"
    assert display_term(Triple(class_id="Person")) == "(*/Person/*)"
    assert display_term(Triple(name="a/b", class_id="x%y")) == "(a/b/x%y/*)"
    assert display_term(Keyword("presid")) == "presid"
    assert triple_slots("t:a%2Fb/x%25y/*") == ("a/b", "x%y", None)
    for text, message in (("t:*/City", "malformed triple term"), ("q:City", "unknown term serialization")):
        with pytest.raises(ValueError, match=message):
            triple_slots(text)


# slot values that escaping and name normalization must both handle
slot_text = st.lists(
    st.one_of(st.sampled_from(["%", "/", "*", "\t", "\n", " ", "  ", "a", "B", "ß", "%2F", "%2a", "%25"]),
              st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")),
    min_size=1,
    max_size=8,
).map("".join)
optional_slot = st.one_of(st.none(), slot_text)
slots = st.tuples(optional_slot, optional_slot, optional_slot).filter(lambda s: any(x is not None for x in s))

terms = st.one_of(
    st.builds(Keyword, st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10)),
    slots.map(lambda s: Triple(*s)),
)


@given(terms)
def test_serialization_round_trip(term):
    assert "\t" not in term and "\n" not in term
    if term.startswith("t:"):
        assert Triple(*triple_slots(term)) == term


@given(slots)
def test_display_term_prints_the_slots_as_given(given_slots):
    name, class_id, entity_id = given_slots
    expected = "({}/{}/{})".format(normalize_name(name) if name is not None else "*",
                                   class_id if class_id is not None else "*",
                                   entity_id if entity_id is not None else "*")
    assert display_term(Triple(*given_slots)) == expected


@settings(deadline=None)
@given(terms)
def test_parsed_term_finds_its_index_entry(tmp_path_factory, term):
    # a term read back from `index.tsv` is the very string analysis makes
    if term.startswith("k:"):
        space, bags = Space.KW, {"KW": {term: 2, Keyword("other"): 1}}
    else:  # G composes its N terms too
        space, bags = Space.N, {"N": {term: 2, Triple(name="other"): 1}}
    built = build_index([counted_document("d", bags)])
    directory = tmp_path_factory.mktemp("idx")
    save_index(built, directory)
    sx = load_index(directory).spaces[space]
    assert sx.rows[term] == built.spaces[space].rows[term]
    assert sx.df[term] == 1


@given(st.text(min_size=1, max_size=6))
def test_keyword_never_equals_triple(text):
    keyword = Keyword(text)
    for triple in (Triple(name=text), Triple(class_id=text), Triple(entity_id=text),
                   Triple(text, text, text)):
        assert keyword != triple and triple != keyword
        assert len({keyword: 1, triple: 1}) == 2

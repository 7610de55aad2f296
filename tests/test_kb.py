from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontosearch.kb import (
    KBError,
    alias_set,
    load_kb,
    normalize_name,
    parse_kb,
    super_classes,
)

import oracles
from oracles import closure_walk


def kb_text(*lines: str) -> str:
    return "\n".join(lines) + "\n"


def test_university_chain(figure_kb):
    assert super_classes(figure_kb, "University") == {
        "EducationalOrganization",
        "Organization",
        "Group",
        "Agent",
    }


def test_province_closure(figure_kb):
    assert super_classes(figure_kb, "Province") == {"PoliticalRegion", "Location"}


def test_man_closure(figure_kb):
    assert super_classes(figure_kb, "Man") == {"Person", "Agent"}


def test_empty_kb_is_valid():
    kb = parse_kb("")
    assert kb.classes == {} and kb.entities == {} and kb.name_index == {}


def test_two_node_cycle_rejected():
    text = kb_text("CLASS\tA\tB\t-", "CLASS\tB\tA\t-")
    with pytest.raises(KBError, match="cycle"):
        parse_kb(text)


def test_self_parent_is_a_cycle():
    text = kb_text("CLASS\tTop\t-\tTOP", "CLASS\tA\tTop,A\t-")
    with pytest.raises(KBError, match=r"^kb\.tsv: cycle in class hierarchy .*: 'A' -> 'A'$"):
        parse_kb(text, origin="kb.tsv")


def test_three_class_cycle_names_its_classes_child_first():
    # A's parent is C, C's is B, B's is A; D hangs off the cycle and is not named
    text = kb_text("CLASS\tA\tC\t-", "CLASS\tB\tA\t-", "CLASS\tC\tB\t-",
                   "CLASS\tD\tA\t-")
    with pytest.raises(KBError, match=r"^kb\.tsv: cycle in class hierarchy "
                                      r"\(class -> parent\): 'A' -> 'C' -> 'B' -> 'A'$"):
        parse_kb(text, origin="kb.tsv")


def test_rootless_class_has_empty_closure():
    kb = parse_kb(kb_text("CLASS\tSolo\t-\t-"))
    assert super_classes(kb, "Solo") == frozenset()


def test_chain_closure_matches_graph_walk():
    text = kb_text(
        "CLASS\tTopLevel\t-\tTOP",
        "CLASS\tC\tTopLevel\t-",
        "CLASS\tB\tC\t-",
        "CLASS\tA\tB\t-",
    )
    kb = parse_kb(text)
    parents = {c: set(d.parent_ids) for c, d in kb.classes.items()}
    expected = closure_walk(parents, {"TopLevel"}, "A")
    assert expected == {"B", "C"}
    assert super_classes(kb, "A") == expected


def test_alias_sets(figure_kb):
    assert alias_set(figure_kb, "Country_T.88") == {"Georgia", "Gruzia"}
    assert alias_set(figure_kb, "University_T.52") == {"Stanford University", "Stanford"}
    assert alias_set(figure_kb, "Province_T.4198") == {"California"}


def test_closures_never_contain_self_or_top_level(figure_kb):
    for c in figure_kb.classes:
        closure = super_classes(figure_kb, c)
        assert c not in closure
        assert not any(figure_kb.classes[s].is_top_level for s in closure)


def test_name_index_covers_exactly_all_surfaces(figure_kb):
    expected = {}
    for e in figure_kb.entities.values():
        for surface in {e.canonical_name, *e.aliases}:
            expected.setdefault(normalize_name(surface), set()).add(e.entity_id)
    assert {k: set(v) for k, v in figure_kb.name_index.items()} == expected


def test_name_index_ambiguity(figure_kb):
    assert figure_kb.name_index[normalize_name("Moscow")] == {"City_T.501", "City_T.502"}


def test_normalization_collapses_case_and_whitespace():
    assert normalize_name("  Stanford \t  UNIVERSITY ") == "stanford university"


WHITESPACE = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


def test_normalization_cuts_at_every_character_the_regex_calls_whitespace():
    assert WHITESPACE == "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if re.fullmatch(r"\s", ch))
    for ch in WHITESPACE:
        text = f"{ch}A{ch}{ch}b{ch}"
        assert normalize_name(text) == oracles.normalize_name_regex(text) == "a b"


@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(WHITESPACE)), max_size=12))
def test_normalization_equals_the_regex_form(text):
    assert normalize_name(text) == oracles.normalize_name_regex(text)


def test_unknown_ids_raise(figure_kb):
    with pytest.raises(KeyError):
        super_classes(figure_kb, "Nope")
    with pytest.raises(KeyError):
        alias_set(figure_kb, "Nope")


@pytest.mark.parametrize(
    "text,fragment",
    [
        (kb_text("CLASS\tA\tMissing\t-"), "undeclared parent"),
        (kb_text("ENTITY\tE1\tMissing\tName\t-"), "undeclared class"),
        (kb_text("CLASS\tA\t-\t-", "CLASS\tA\t-\t-"), "duplicate class"),
        (
            kb_text("CLASS\tA\t-\t-", "ENTITY\tE1\tA\tX\t-", "ENTITY\tE1\tA\tY\t-"),
            "duplicate entity",
        ),
        (kb_text("CLASS\tRoot\t-\tTOP", "CLASS\tBad\tRoot\tTOP"), "must not have parents"),
        (kb_text("WHAT\tis\tthis"), "unknown record tag"),
        (kb_text("CLASS\tA\t-"), "4 fields"),
        (kb_text("CLASS\t\t-\t-"), "empty class id"),
        (kb_text("CLASS\tA\t-\ttop"), "top-level flag must be TOP or -, got 'top'"),
        (kb_text("CLASS\tA\t-\t-", "ENTITY\tE1\tA"), "ENTITY line needs 4 or 5 fields, got 3"),
        (kb_text("CLASS\tA\t-\t-", "ENTITY\tE1\tA\tX\t-\textra"),
         "ENTITY line needs 4 or 5 fields, got 6"),
        (kb_text("CLASS\tA\t-\t-", "ENTITY\t\tA\tX\t-"), "empty entity id"),
    ],
)
def test_malformed_files_rejected(text, fragment):
    with pytest.raises(KBError, match=fragment):
        parse_kb(text)


def test_parse_errors_carry_line_numbers():
    text = kb_text("CLASS\tA\t-\t-", "JUNK LINE")
    with pytest.raises(KBError, match=":2:"):
        parse_kb(text)


@pytest.mark.parametrize("name", [" ", "  \u00a0 ", "\x1c"])
def test_whitespace_only_canonical_name_rejected(name):
    text = kb_text("CLASS\tA\t-\t-", f"ENTITY\tE1\tA\t{name}\tOslo")
    with pytest.raises(KBError, match=r"<string>:2: empty canonical name for 'E1'"):
        parse_kb(text)


@pytest.mark.parametrize("aliases", ["  ", "Oslo| ", " \u00a0|Oslo"])
def test_whitespace_only_alias_rejected(aliases):
    text = kb_text("CLASS\tA\t-\t-", "# comment", f"ENTITY\tE1\tA\tOslo\t{aliases}")
    with pytest.raises(KBError, match=r"kb\.tsv:3: blank alias '.*' for 'E1'"):
        parse_kb(text, origin="kb.tsv")


def test_load_kb_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, figure_kb_path):
    text = figure_kb_path.read_bytes()
    line = len(text.splitlines()) + 1
    path = tmp_path / "kb.tsv"
    path.write_bytes(text + b"# caf\xe9\n")  # Latin-1, not UTF-8
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: not valid UTF-8")):
        load_kb(path)


def test_empty_alias_slots_are_still_skipped():
    kb = parse_kb(kb_text("CLASS\tA\t-\t-", "ENTITY\tE1\tA\tOslo\t|Christiania||-"))
    assert kb.entities["E1"].aliases == {"Christiania"}
    assert "" not in kb.name_index


def test_canonical_name_not_duplicated_into_aliases():
    kb = parse_kb(kb_text("CLASS\tA\t-\t-", "ENTITY\tE1\tA\tSame\tSame|Other"))
    assert kb.entities["E1"].aliases == {"Other"}


@st.composite
def layered_dag(draw):
    """Random acyclic hierarchy: parents only point at earlier classes."""
    n = draw(st.integers(min_value=2, max_value=8))
    names = [f"K{i}" for i in range(n)]
    parents = {}
    for i, name in enumerate(names):
        pool = names[:i]
        chosen = draw(st.sets(st.sampled_from(pool), max_size=min(2, len(pool))) if pool else st.just(set()))
        parents[name] = set(chosen)
    return names, parents


@given(layered_dag(), st.data())
def test_closure_monotone_under_edge_addition(dag, data):
    names, parents = dag
    # candidate new edge from a later class to an earlier one keeps the DAG acyclic
    child = data.draw(st.sampled_from(names[1:]))
    parent = data.draw(st.sampled_from(names[: names.index(child)]))
    extended = {c: set(ps) for c, ps in parents.items()}
    extended[child].add(parent)

    def build(pmap):
        lines = [f"CLASS\t{c}\t{','.join(sorted(pmap[c])) or '-'}\t-" for c in names]
        return parse_kb(kb_text(*lines))

    before, after = build(parents), build(extended)
    for c in names:
        assert super_classes(before, c) <= super_classes(after, c)
        walk = closure_walk(extended, set(), c)
        assert super_classes(after, c) == frozenset(walk)

"""Per-space term bags: every text is expanded into all six spaces.

A text's expansion does not depend on the retrieval model, and its analysis
(`annotate`) is the same for every text: its keywords as two parallel lists,
`AnnotatedText.stems` and `AnnotatedText.spans`, and its entity annotations.
The keyword space KW holds every stem; the name, class, name-class and
identifier spaces N, C, NC and I hold the entity terms; the generalized space
G holds the stems whose spans lie outside entity mentions plus the same
entity terms. A model only chooses which spaces it scores; under kw+ne+wh,
`rank.represent_query` also passes the query's wh class to `expand_query`,
which adds it to G as one class-only term. A wh class is configuration, not
an annotation, so it is not validated against the KB (an unknown class
simply never matches a posting).

Documents are expanded aggressively: each entity occurrence contributes its
name plus every alias, its class plus every non-top-level superclass, all
name-class pairs, and its identifier (when known), with one count per
occurrence. Queries stay minimal: each annotation contributes exactly one
term, the most specific available (id, then name+class, then class or name
alone), with no alias or superclass closure; the document side of the match
carries the burden.

A term is its canonical string, the very form `index.tsv` stores: `k:<stem>`
or `t:<name>/<class>/<id>` (see `Triple`). A query is expanded in one pass
into six plain dicts (`DocRepresentation.space_bags`, in `Space` order), G
already composed: its kept keywords, the wh term and each annotation's one
term, counts added. A document is only counted (`DocumentCounts`): its
stems, its own G part as the stems that `keywords_outside_entities` keeps
(the rule queries use), and its annotations by key (name, class, id). A
key's N, C, NC and I terms are built once per KB, in `kb.expansions`, and
the document keeps that table beside its key counts, so
`index.build_index` inverts the counts without a term bag per document. As
in `index.tsv`, a document stores of G only its own terms; its `space_bags`
are filled from the counts in one pass on first read, as a query's are, each
key's terms counted in their space and in G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .annotate import AnnotatedText, EntityAnnotation, keywords_outside_entities
from .kb import KnowledgeBase, alias_set, normalize_name, super_classes


class Space(str, Enum):
    KW = "KW"
    N = "N"
    C = "C"
    NC = "NC"
    I = "I"
    G = "G"


# the members read once: each read of `Space.X` costs about four str hashes
_KW, _N, _C, _NC, _I, _G = Space
_ENTITY_SPACES = (_N, _C, _NC, _I)


GeneralizedTerm = str  # `k:<stem>` or `t:<name>/<class>/<id>`: see `Keyword` and `Triple`


def Keyword(stem: str) -> GeneralizedTerm:
    """The keyword term of a stem: `k:<stem>`."""
    return "k:" + stem


def Triple(name: str | None = None, class_id: str | None = None,
           entity_id: str | None = None) -> GeneralizedTerm:
    """The entity term with optional name/class/id slots, at least one set:
    `t:<name>/<class>/<id>`, with `*` for an unset slot.

    The name is normalized like the KB name index, so two casings of one
    surface form are a single term. In each set slot `%`, `/`, tab and
    newline are escaped as `%25`, `%2F`, `%09` and `%0A`, and a slot that is
    `*` itself as `%2A`; `triple_slots` reads the slots back.
    """
    if name is None and class_id is None and entity_id is None:
        raise ValueError("a Triple needs at least one specified slot")
    if name is not None:
        name = normalize_name(name)
    return f"t:{_encode_slot(name)}/{_encode_slot(class_id)}/{_encode_slot(entity_id)}"


TermBag = dict  # GeneralizedTerm -> positive count; a Counter is one


class DocRepresentation(NamedTuple):
    """A query's six bags, in `Space` order, G composed."""

    space_bags: dict[Space, TermBag]


# an annotation key: (name, class_id, entity_id), the name normalized unless the id is known
AnnotationKey = tuple


@dataclass
class DocumentCounts:
    """A document counted, not bagged: stem -> n for KW (`stems`) and for G's own
    part (`own`), and annotation key -> n (`keys`), read through `expansions`,
    the table of each key's N, C, NC and I terms that the keys were counted
    against. `index.build_index` inverts these counts; `space_bags` makes the
    term bags on first read."""

    doc_id: str
    stems: dict[str, int]
    own: dict[str, int]
    keys: dict[AnnotationKey, int]
    expansions: dict[AnnotationKey, tuple[tuple[GeneralizedTerm, ...], ...]] = field(repr=False)

    @cached_property
    def space_bags(self) -> dict[Space, TermBag]:
        """All six bags, in `Space` order, filled in one pass: G starts from its own
        keywords, and a key seen n times adds n to each of its terms, in its space and in G."""
        g = {Keyword(stem): n for stem, n in self.own.items()}
        entity_bags: list[TermBag] = [{} for _ in _ENTITY_SPACES]
        for key, n in self.keys.items():
            for bag, space_terms in zip(entity_bags, self.expansions[key]):
                for term in space_terms:
                    bag[term] = bag.get(term, 0) + n
                    g[term] = g.get(term, 0) + n
        return {_KW: {Keyword(stem): n for stem, n in self.stems.items()},
                **dict(zip(_ENTITY_SPACES, entity_bags)), _G: g}


def _check_ids(ann: EntityAnnotation, kb: KnowledgeBase) -> None:
    """Reject an annotation naming an entity or class the KB lacks."""
    if ann.entity_id is not None and ann.entity_id not in kb.entities:
        raise ValueError(f"annotation references unknown entity id {ann.entity_id!r}")
    if ann.class_id is not None and ann.class_id not in kb.classes:
        raise ValueError(f"annotation references unknown class id {ann.class_id!r}")


def _expansion_sets(ann: EntityAnnotation, kb: KnowledgeBase) -> tuple[set[str], set[str]]:
    """Document-side closure for one annotation: (normalized names, class ids)."""
    _check_ids(ann, kb)
    if ann.entity_id is not None:
        names = {normalize_name(s) for s in alias_set(kb, ann.entity_id)}
        names.add(normalize_name(ann.name))
    elif ann.name is not None:
        names = {normalize_name(ann.name)}
    else:
        names = set()
    if ann.class_id is not None:
        classes = {ann.class_id, *super_classes(kb, ann.class_id)}
    else:
        classes = set()
    return names, classes


def _document_terms(ann: EntityAnnotation, kb: KnowledgeBase) -> tuple[tuple[GeneralizedTerm, ...], ...]:
    """One annotation's N, C, NC and I terms."""
    names, classes = _expansion_sets(ann, kb)
    return (
        tuple(Triple(name=n) for n in names),
        tuple(Triple(class_id=c) for c in classes),
        tuple(Triple(name=n, class_id=c) for n in names for c in classes),
        (Triple(entity_id=ann.entity_id),) if ann.entity_id is not None else (),
    )


def _count(stems: list[str]) -> dict[str, int]:
    """stem -> n, as a plain dict: a `Counter` costs more to make, and the GC tracks it."""
    counts: dict[str, int] = {}
    get = counts.get
    for stem in stems:
        counts[stem] = get(stem, 0) + 1
    return counts


def expand_document(at: AnnotatedText, kb: KnowledgeBase, doc_id: str = "") -> DocumentCounts:
    """Document-side expansion, counted; see the module docstring for the closure rules.

    Each annotation key's terms are kept in `kb.expansions`; a key that
    fails to expand is not kept, so its error is raised on every call.
    """
    stems = _count(at.stems)
    own = stems
    keys: dict[AnnotationKey, int] = {}
    if at.entities:
        own = _count(keywords_outside_entities(at.stems, at.spans, at.entities))
        memo = kb.expansions
        for ann in at.entities:
            name = ann.name
            # a name without an id is the text as written: key it by its normal
            # form, so the memo grows with the KB, not with the spellings
            if ann.entity_id is None and name is not None:
                name = normalize_name(name)
            key = name, ann.class_id, ann.entity_id
            if key in keys:
                keys[key] += 1
            else:
                keys[key] = 1
                if key not in memo:
                    memo[key] = _document_terms(ann, kb)
    return DocumentCounts(doc_id, stems, own, keys, kb.expansions)


def _most_specific_term(ann: EntityAnnotation, kb: KnowledgeBase) -> tuple[Space, GeneralizedTerm]:
    _check_ids(ann, kb)
    if ann.entity_id is not None:
        return _I, Triple(entity_id=ann.entity_id)
    if ann.name is not None and ann.class_id is not None:
        return _NC, Triple(name=ann.name, class_id=ann.class_id)
    if ann.class_id is not None:
        return _C, Triple(class_id=ann.class_id)
    return _N, Triple(name=ann.name)


def expand_query(at: AnnotatedText, kb: KnowledgeBase,
                 wh_class: str | None = None) -> DocRepresentation:
    """Query-side expansion: one most-specific term per annotation, no closure,
    and `wh_class`, when given, as one class-only term of G. All six bags are
    plain dicts filled in one pass; each annotation's term is counted in its
    own space and in G, so G is composed as it is filled.
    """
    kw: TermBag = {}
    for stem in at.stems:
        term = "k:" + stem
        kw[term] = kw.get(term, 0) + 1
    bags = {_KW: kw, _N: {}, _C: {}, _NC: {}, _I: {}}
    if at.entities:
        g: TermBag = {}
        for stem in keywords_outside_entities(at.stems, at.spans, at.entities):
            term = "k:" + stem
            g[term] = g.get(term, 0) + 1
        for ann in at.entities:
            space, term = _most_specific_term(ann, kb)
            bag = bags[space]
            bag[term] = bag.get(term, 0) + 1
            g[term] = g.get(term, 0) + 1
    else:  # every keyword is kept
        g = kw.copy()
    if wh_class is not None:
        term = Triple(class_id=wh_class)
        g[term] = g.get(term, 0) + 1
    bags[_G] = g
    return DocRepresentation(bags)


# --- term slots -------------------------------------------------------------

_ENCODE = (("%", "%25"), ("/", "%2F"), ("\t", "%09"), ("\n", "%0A"))


def _encode_slot(value: str | None) -> str:
    if value is None:
        return "*"
    for raw, escaped in _ENCODE:
        value = value.replace(raw, escaped)
    if value == "*":
        return "%2A"
    return value


def _decode_slot(value: str) -> str | None:
    if value == "*":
        return None
    if "%" not in value:  # only a slot holding `%` holds an escape
        return value
    for raw, escaped in (("/", "%2F"), ("\t", "%09"), ("\n", "%0A"), ("*", "%2A")):
        value = value.replace(escaped, raw)
    return value.replace("%25", "%")


def triple_slots(text: str) -> tuple[str | None, str | None, str | None]:
    """A `t:` term's name, class and id, decoded; None for a `*` slot."""
    if not text.startswith("t:"):
        raise ValueError(f"unknown term serialization {text!r}")
    slots = text[2:].split("/")
    if len(slots) != 3:
        raise ValueError(f"malformed triple term {text!r}")
    return tuple(map(_decode_slot, slots))


def display_term(term: GeneralizedTerm) -> str:
    """Debug notation: bare stem for keywords, (name/class/id) for triples."""
    if term.startswith("k:"):
        return term[2:]
    return "({}/{}/{})".format(*("*" if slot is None else slot for slot in triple_slots(term)))

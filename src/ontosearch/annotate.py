"""Text analysis: a text's keywords as two parallel lists, each kept word's
stem and its character span; gazetteer entity annotations; and
interrogative-word mapping.

`annotate` analyses every text, document or query, the same way under
every model; only `rank.represent_query` reads a query's interrogative
word, with `wh_class`, and only under kw+ne+wh.

Entity recognition runs on the raw text, before stop-word removal, so
multiword surface forms that contain stop-words still match. Recognition is
a deterministic leftmost-longest dictionary match against the KB's
normalized surface forms: a span matches when `normalize_name` of it (case
folded, whitespace runs collapsed) is a surface, so "Straße" matches
"strasse" and a name's words may be split by any whitespace, newlines
included. The spans, and what each denotes, come from
`KnowledgeBase.find_mentions`, which looks the text up in a dict of surface
prefixes built once per KB and kept on it; no pattern is compiled from the
KB. `ontosearch.kb` says which slots a surface fills.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .kb import KnowledgeBase
from .stem import stem
from .textfile import read_text

# alphanumeric runs, keeping internal hyphens ("co-chaired" stays one token)
_TOKEN = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)

DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by did do does doing down during
    each few for from further had has have having he her here hers herself him
    himself his how i if in into is it its itself just me more most my myself
    no nor not of off on once only or other our ours ourselves out over own
    s same several she should so some such t than that the their theirs them
    themselves then there these they this those through to too under until up
    very was we were what when where which while who whom why will with you
    your yours yourself
    """.split()
)

# most-general class per interrogative; "what" and "how" stay unmapped
DEFAULT_WH_MAPPING = {
    "who": "Person",
    "which": "Person",
    "where": "Location",
    "when": "DayTime",
}


class _EntityAnnotationSlots(NamedTuple):
    char_span: tuple[int, int]
    surface: str
    name: str | None = None
    class_id: str | None = None
    entity_id: str | None = None


class EntityAnnotation(_EntityAnnotationSlots):
    """A recognized mention; unspecified slots are None.

    At least one slot must be specified, and a known identifier implies the
    name and class are known too (they are derivable from it). A tuple;
    build one by calling the class, since the tuple helpers `_make`
    and `_replace` skip these checks.
    """

    __slots__ = ()

    def __new__(cls, char_span: tuple[int, int], surface: str, name: str | None = None,
                class_id: str | None = None, entity_id: str | None = None) -> EntityAnnotation:
        if name is None and class_id is None and entity_id is None:
            raise ValueError("annotation must specify at least one of name/class/id")
        if entity_id is not None and (name is None or class_id is None):
            raise ValueError("an identified annotation must carry name and class")
        return tuple.__new__(cls, (char_span, surface, name, class_id, entity_id))


@dataclass(frozen=True)
class AnnotatedText:
    """The keywords as parallel lists, each kept word's stem and its span, and the entities."""

    stems: list[str]
    spans: list[tuple[int, int]]
    entities: list[EntityAnnotation]


def tokenize_keywords(text: str, stopwords: frozenset[str] | set[str]
                      ) -> tuple[list[str], list[tuple[int, int]]]:
    """Split on non-alphanumeric boundaries, case-fold, drop stop-words, stem:
    (stems, spans), each kept word's stem and its character span, in text order."""
    stems, spans = [], []
    for m in _TOKEN.finditer(text):
        folded = m.group().casefold()
        if folded not in stopwords:
            stems.append(stem(folded))
            spans.append(m.span())
    return stems, spans


def recognize_entities(text: str, kb: KnowledgeBase) -> list[EntityAnnotation]:
    """Leftmost-longest non-overlapping gazetteer matches, in text order: the
    spans and slots of `kb.find_mentions(text)`, which `ontosearch.kb` explains."""
    return [
        EntityAnnotation((start, end), surface := text[start:end], name or surface, class_id, entity_id)
        for start, end, (name, class_id, entity_id) in kb.find_mentions(text)
    ]


def keywords_outside_entities(
    stems: list[str], spans: list[tuple[int, int]], entities: list[EntityAnnotation]
) -> list[str]:
    """The stems whose spans lie wholly inside no entity mention (`stems` itself if no mention).

    The keyword spans and the mentions are in text order and neither overlaps
    itself, as `annotate` makes them, so one merge walk finds each keyword's
    only candidate mention: the first one that ends after the keyword starts.
    """
    if not entities:
        return stems
    mentions = [e.char_span for e in entities]
    outside = []
    i, n = 0, len(mentions)
    for word, (start, end) in zip(stems, spans):
        while i < n and mentions[i][1] <= start:
            i += 1
        if i == n or start < mentions[i][0] or mentions[i][1] < end:
            outside.append(word)
    return outside


def wh_class(text: str, mapping: dict[str, str]) -> str | None:
    """The configured class of the text's leading word, or None if it is unmapped."""
    lead = _TOKEN.search(text)
    return mapping.get(lead.group().casefold()) if lead else None


def annotate(
    text: str, kb: KnowledgeBase, *, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> AnnotatedText:
    """Full analysis of one text: every keyword and the entity annotations.

    Keywords inside entity mentions are kept; `keywords_outside_entities`
    drops them.
    """
    return AnnotatedText(*tokenize_keywords(text, stopwords), recognize_entities(text, kb))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One word per line, case-folded; blank lines ignored."""
    words = set()
    for line in read_text(path).splitlines():
        word = line.strip()
        if word:
            words.add(word.casefold())
    return frozenset(words)


def load_wh_mapping(path: str | Path) -> dict[str, str]:
    """TSV `word<TAB>class_id`; word keys are case-folded, and each is mapped once."""
    mapping: dict[str, str] = {}
    mapped_at: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ValueError(f"{path}:{lineno}: expected `word<TAB>class_id`")
        word = fields[0].casefold()
        if word in mapped_at:
            raise ValueError(f"{path}:{lineno}: word {word!r} is mapped again; "
                             f"line {mapped_at[word]} mapped it first")
        mapped_at[word] = lineno
        mapping[word] = fields[1]
    return mapping

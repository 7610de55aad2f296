"""Knowledge base: class hierarchy plus entity catalog with alias lookup.

The KB is loaded once from a line-oriented TSV file, and its classes,
entities and name index never change afterwards. Two derived structures
are built lazily and cached on the KB object itself, never in a
module-level table, so they go when the KB goes: the gazetteer that
`find_mentions` looks text up in, built on first use; and `expansions`,
`expand`'s memo of each annotation key's N, C, NC and I terms, which
`expand.expand_document` fills in on a key's first use. Two users of one KB
can at worst build the same entry twice, with equal values.

The gazetteer is a plain dict keyed by prefixes of the normalized surface
forms (see `normalize_name`). A unit of text is an alphanumeric run or any
other single non-whitespace character, and a step is a unit with the
whitespace before it. Each surface is cut after each of its steps; a key
maps to None unless it is a whole surface, which maps to the annotation
slots (name, class_id, entity_id) that the surface denotes.
`find_mentions` scans the text for where mentions may start, and from
each whose first unit's casefold is a key it walks the text step by step,
appending each step's casefold (its whitespace as one space), while the
string is still a key. So most words cost one dict lookup, and the cost
follows the text, not the KB. Because matching compares casefolded text,
"Straße" in a text finds the surface "strasse", as `normalize_name` says
they are one name.

File format (UTF-8, ``#`` starts a comment line):

    CLASS<TAB>class_id<TAB>parent_id,parent_id,...<TAB>TOP|-
    ENTITY<TAB>entity_id<TAB>class_id<TAB>canonical_name<TAB>alias|alias|...

A ``-`` stands for "no parents" / "not top-level"; the alias field may be
empty or omitted. A canonical name or alias of only whitespace is
rejected: its normal form is "", which no text can spell. Top-level
classes (``TOP``) act as hierarchy roots and are excluded from every
superclass closure.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from .textfile import read_text


class KBError(ValueError):
    """Malformed or internally inconsistent KB file."""


def normalize_name(surface: str) -> str:
    """Canonical surface form: case-folded, internal whitespace collapsed.

    `str.split` cuts at the characters `\\s` matches (`str.isspace`), so this is
    `re.sub(r"\\s+", " ", surface.casefold()).strip()` at a fraction of its cost.
    """
    return " ".join(surface.casefold().split())


# one step of a walk over text: any whitespace, then one unit (an alphanumeric
# run, or any other single non-whitespace character)
_TEXT_STEP = re.compile(r"\s*(?:[^\W_]+|\S)")

# where a mention may begin: an alphanumeric run, or any other
# non-whitespace character that does not follow one
_MENTION_START = re.compile(r"[^\W_]+|(?<![^\W_])(?:[^\w\s]|_)")

# what a whole surface denotes: (name, class_id, entity_id)
Slots = tuple[str | None, str | None, str | None]


def _compile_gazetteer(kb: KnowledgeBase) -> dict[str, Slots | None]:
    """Surface prefix -> the whole surface's slots, or None for a prefix
    that is no surface.

    A normalized surface is cut after each step and beside each ι; every
    cut is a key. No pattern is compiled from the surfaces. The whole
    surface maps to what it denotes, by one rule: a surface held by one
    entity gives that entity's canonical name, class and id; one held by
    several entities of one class gives the name and the class; one whose
    entities differ in class gives the name only. A shared surface's name
    is None, which stands for the mention as written.
    """
    gazetteer: dict[str, Slots | None] = {}
    for surface, entity_ids in kb.name_index.items():
        head = ""
        # one alphanumeric run is one step
        for step in [] if surface.isalnum() else _TEXT_STEP.findall(surface)[:-1]:
            head += step
            gazetteer.setdefault(head, None)
        # U+0345 is the one character that is not alphanumeric but casefolds
        # to a letter, this ι: where a text holds it, a step ends beside a ι
        # that the folded surface runs on through
        if "\u03b9" in surface:
            for i, ch in enumerate(surface):
                if ch == "\u03b9":
                    gazetteer.setdefault(surface[: i + 1], None)
                    if i:
                        gazetteer.setdefault(surface[:i], None)
        if len(entity_ids) == 1:
            entity = kb.entities[next(iter(entity_ids))]
            gazetteer[surface] = entity.canonical_name, entity.class_id, entity.entity_id
        else:
            classes = {kb.entities[e].class_id for e in entity_ids}
            gazetteer[surface] = None, classes.pop() if len(classes) == 1 else None, None
    return gazetteer


def _longest_mention(
    text: str, pos: int, folded: str, gazetteer: dict[str, Slots | None]
) -> tuple[int, Slots] | None:
    """(end, slots) of the longest mention whose first unit ends at `pos`
    and casefolds to `folded`, a gazetteer key; else None."""
    best = None
    while True:
        slots = gazetteer[folded]
        if slots is not None and (pos == len(text) or not text[pos].isalnum()):
            best = pos, slots
        m = _TEXT_STEP.match(text, pos)
        if m is None:
            return best
        step = m.group()
        if step[0].isspace():
            folded += " " + step.lstrip().casefold()
        else:
            folded += step.casefold()
        if folded not in gazetteer:
            return best
        pos = m.end()


@dataclass(frozen=True)
class ClassDef:
    class_id: str
    parent_ids: frozenset[str]
    is_top_level: bool


@dataclass(frozen=True)
class EntityDef:
    entity_id: str
    class_id: str
    canonical_name: str
    aliases: frozenset[str]


@dataclass(frozen=True)
class KnowledgeBase:
    """Validated ontology: declared classes, entities, and a surface-form index.

    ``name_index`` maps every normalized canonical name and alias to the set
    of entity ids carrying that surface form; the recognizer's gazetteer is
    built from it, so annotation and KB share one normalization.
    """

    classes: dict[str, ClassDef]
    entities: dict[str, EntityDef]
    name_index: dict[str, frozenset[str]]

    @cached_property
    def gazetteer(self) -> dict[str, Slots | None]:
        """Prefix dict over ``name_index`` (see the module docstring), built
        on first use and cached on this instance."""
        return _compile_gazetteer(self)

    def find_mentions(self, text: str) -> Iterator[tuple[int, int, Slots]]:
        """(start, end, slots) of each leftmost-longest mention in `text`.

        A mention is a span that neither begins nor ends inside an
        alphanumeric run, whose first and last characters are not
        whitespace, and whose `normalize_name` is a surface. From the first
        position where a mention begins, the longest one is taken, and the
        scan goes on after it. `slots` is (name, class_id, entity_id) by the
        rule of `_compile_gazetteer`; None for name means ``text[start:end]``.
        """
        gazetteer = self.gazetteer
        resume = 0
        for m in _MENTION_START.finditer(text):
            start = m.start()
            if start < resume:
                continue
            folded = m.group().casefold()
            if folded not in gazetteer:
                continue
            found = _longest_mention(text, m.end(), folded, gazetteer)
            if found is not None:
                resume, slots = found
                yield start, resume, slots

    @cached_property
    def expansions(self) -> dict:
        """Annotation key (name, class_id, entity_id) -> its document-side terms,
        as four tuples of term strings: its N, C, NC and I terms. This is `expand`'s memo:
        `expand.expand_document` writes each key in on its first use, and the
        `DocumentCounts` it returns count the entry itself, not the key. G is
        not kept: each entry's terms are counted into G too."""
        return {}


def parse_kb(text: str, origin: str = "<string>") -> KnowledgeBase:
    """Parse and validate KB TSV content; see the module docstring for format."""
    classes: dict[str, ClassDef] = {}
    entities: dict[str, EntityDef] = {}
    name_index: dict[str, set[str]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "CLASS":
            if len(fields) != 4:
                raise KBError(f"{origin}:{lineno}: CLASS line needs 4 fields, got {len(fields)}")
            _, class_id, parents_field, top_field = fields
            if not class_id:
                raise KBError(f"{origin}:{lineno}: empty class id")
            if class_id in classes:
                raise KBError(f"{origin}:{lineno}: duplicate class id {class_id!r}")
            if top_field not in ("TOP", "-"):
                raise KBError(f"{origin}:{lineno}: top-level flag must be TOP or -, got {top_field!r}")
            parents = frozenset(p for p in parents_field.split(",") if p and p != "-")
            is_top = top_field == "TOP"
            if is_top and parents:
                raise KBError(f"{origin}:{lineno}: top-level class {class_id!r} must not have parents")
            classes[class_id] = ClassDef(class_id, parents, is_top)
        elif tag == "ENTITY":
            if len(fields) not in (4, 5):
                raise KBError(f"{origin}:{lineno}: ENTITY line needs 4 or 5 fields, got {len(fields)}")
            entity_id, class_id, canonical = fields[1], fields[2], fields[3]
            if not entity_id:
                raise KBError(f"{origin}:{lineno}: empty entity id")
            name = normalize_name(canonical)
            if not name:
                raise KBError(f"{origin}:{lineno}: empty canonical name for {entity_id!r}")
            if entity_id in entities:
                raise KBError(f"{origin}:{lineno}: duplicate entity id {entity_id!r}")
            # each surface is normalized once, to reject a blank one and to index it
            name_index.setdefault(name, set()).add(entity_id)
            aliases = set()
            for alias in (fields[4] if len(fields) == 5 else "").split("|"):
                if alias in ("", "-", canonical):  # no alias, or the name indexed above
                    continue
                surface = normalize_name(alias)
                if not surface:
                    raise KBError(f"{origin}:{lineno}: blank alias {alias!r} for {entity_id!r}")
                aliases.add(alias)
                name_index.setdefault(surface, set()).add(entity_id)
            entities[entity_id] = EntityDef(entity_id, class_id, canonical, frozenset(aliases))
        else:
            raise KBError(f"{origin}:{lineno}: unknown record tag {tag!r}")

    # referential checks after the whole file is read, so declaration order is free
    for cdef in classes.values():
        for parent in cdef.parent_ids:
            if parent not in classes:
                raise KBError(f"{origin}: class {cdef.class_id!r} references undeclared parent {parent!r}")
    for edef in entities.values():
        if edef.class_id not in classes:
            raise KBError(f"{origin}: entity {edef.entity_id!r} references undeclared class {edef.class_id!r}")

    _check_acyclic(classes, origin)

    return KnowledgeBase(
        classes=classes,
        entities=entities,
        name_index={k: frozenset(v) for k, v in name_index.items()},
    )


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load and validate a KB file."""
    p = Path(path)
    return parse_kb(read_text(p), origin=str(p))


def _check_acyclic(classes: dict[str, ClassDef], origin: str) -> None:
    # parents sorted, so the cycle named does not depend on string hashing
    graph = {class_id: sorted(cdef.parent_ids) for class_id, cdef in classes.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        # the nodes come each before its child; list them child first
        cycle = " -> ".join(map(repr, reversed(exc.args[1])))
        raise KBError(f"{origin}: cycle in class hierarchy (class -> parent): {cycle}") from None


def super_classes(kb: KnowledgeBase, class_id: str) -> frozenset[str]:
    """Transitive parent closure of ``class_id``, minus top-level classes and itself."""
    seen: set[str] = set()
    stack = list(kb.classes[class_id].parent_ids)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(kb.classes[current].parent_ids)
    seen.discard(class_id)
    return frozenset(c for c in seen if not kb.classes[c].is_top_level)


def alias_set(kb: KnowledgeBase, entity_id: str) -> frozenset[str]:
    """All surface forms of the entity, canonical name included."""
    edef = kb.entities[entity_id]
    return frozenset({edef.canonical_name, *edef.aliases})


"""Seeded generator for a small synthetic test collection.

Produces a knowledge base (three class levels below the root), a corpus
of sixty-odd documents over disjoint topic vocabularies, two dozen
queries, and relevance judgments derived from the construction itself:
a document is relevant to an entity query iff it mentions the entity
(under any surface form), to a who/where query iff it also mentions a
person or location, and to a topic query iff it was drawn from that
topic's word pool.

Everything is a pure function of the seed. Several entities carry an
alias that shares no token with the canonical name (an exonym or an
acronym), and the `alias_bias` knob picks how often documents use it:
0.0 writes canonical names everywhere, 1.0 writes the disjoint alias
everywhere, and the default 0.5 mixes; a bias outside [0, 1], or nan, is
an error. The random stream is consumed identically for every bias
value, so two collections generated from the same seed differ only in
those surface choices — document structure, topics, and judgments stay
fixed. Queries always use the canonical name unless the query list says
otherwise, so keyword-only retrieval degrades as alias_bias grows while
entity-aware retrieval does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# class_id, parent_ids, top_level
_CLASSES = [
    ("Entity", (), True),
    ("Agent", ("Entity",), False),
    ("Location", ("Entity",), False),
    ("Happening", ("Entity",), False),
    ("Person", ("Agent",), False),
    ("Organization", ("Agent",), False),
    ("Region", ("Location",), False),
    ("Festival", ("Happening",), False),
    ("Scientist", ("Person",), False),
    ("City", ("Region",), False),
    ("Country", ("Region",), False),
]

# entity_id, class_id, canonical, aliases (first alias is the disjoint one
# where the entity participates in alias/canonical mismatch)
_ENTITIES = [
    ("Scientist_S.1", "Scientist", "Ada Marlowe", ("Marlowe", "Doctor Marlowe")),
    ("Scientist_S.2", "Scientist", "Benedikt Oru", ("Oru",)),
    ("Person_P.3", "Person", "Cyra Voss", ("Voss",)),
    ("Person_P.4", "Person", "Dorian Ashe", ("Ashe",)),
    ("Organization_O.1", "Organization", "Helix Institute", ("HXI",)),
    ("Organization_O.2", "Organization", "Quorum Labs", ("Quvena",)),
    ("City_C.1", "City", "Veltro", ("Kamenport",)),
    ("City_C.2", "City", "Brinmar", ("Seltennor",)),
    ("Country_K.1", "Country", "Ilvaria", ("Gleservia",)),
    ("Country_K.2", "Country", "Massor", ("Vontrask",)),
    ("Festival_F.1", "Festival", "Glasswake", ("Lumenalia",)),
    ("Festival_F.2", "Festival", "Emberfall", ("Ashtide",)),
]

# entities whose documents alternate between canonical name and alias
_MISMATCH_IDS = {
    "Organization_O.1", "Organization_O.2", "City_C.1", "City_C.2",
    "Country_K.1", "Country_K.2", "Festival_F.1", "Festival_F.2",
}

_PERSON_CLASSES = {"Person", "Scientist"}
_LOCATION_CLASSES = {"City", "Country"}

_POOLS = {
    "research": ["glass", "tides", "crystal", "resonance", "archive",
                 "manuscript", "theory", "lattice"],
    "trade": ["trade", "accord", "tariff", "harbor", "cargo",
              "merchant", "export", "ledger"],
    "civic": ["council", "charter", "census", "aqueduct", "granary",
              "tax", "assembly", "ward"],
    "festival": ["lantern", "procession", "bonfire", "masque", "parade",
                 "drums", "feast", "pageant"],
    "filler": ["autumn", "rain", "valley", "road", "bridge",
               "mill", "orchard", "quarry"],
}

# query_id, text, wh_override (or None), kind, target entity/topic
_QUERIES = [
    ("q01", "Helix Institute manuscript archive", None, "entity", "Organization_O.1"),
    ("q02", "Quorum Labs lattice theory", None, "entity", "Organization_O.2"),
    ("q03", "Ilvaria trade accord", None, "entity", "Country_K.1"),
    ("q04", "Massor cargo tariff", None, "entity", "Country_K.2"),
    ("q05", "Veltro council charter", None, "entity", "City_C.1"),
    ("q06", "Brinmar aqueduct census", None, "entity", "City_C.2"),
    ("q07", "Glasswake lantern procession", None, "entity", "Festival_F.1"),
    ("q08", "Emberfall bonfire masque", None, "entity", "Festival_F.2"),
    ("q09", "HXI archive manuscript", None, "entity", "Organization_O.1"),
    ("q10", "Gleservia merchant ledger", None, "entity", "Country_K.1"),
    ("q11", "Kamenport granary tax", None, "entity", "City_C.1"),
    ("q12", "Ashtide drums feast", None, "entity", "Festival_F.2"),
    ("q13", "Who directs the Helix Institute", None, "entity+person", "Organization_O.1"),
    ("q14", "Who audits Quorum Labs", None, "entity+person", "Organization_O.2"),
    ("q15", "Who administers Ilvaria", None, "entity+person", "Country_K.1"),
    ("q16", "Where is Glasswake held", None, "entity+location", "Festival_F.1"),
    ("q17", "Where is Emberfall observed", None, "entity+location", "Festival_F.2"),
    ("q18", "Who chronicled the Glasswake", None, "entity+person", "Festival_F.1"),
    ("q19", "Marlowe resonance crystal", "Person", "entity", "Scientist_S.1"),
    ("q20", "Veltro harbor cargo", "Location", "entity", "City_C.1"),
    ("q21", "orchard quarry bridge", None, "topic", "filler"),
    ("q22", "census aqueduct ward", None, "topic", "civic"),
    ("q23", "tariff export ledger", None, "topic", "trade"),
    ("q24", "bonfire parade pageant", None, "topic", "festival"),
]


@dataclass(frozen=True)
class SyntheticCollection:
    kb_text: str
    corpus_text: str
    queries_text: str
    qrels_text: str
    doc_entities: dict[str, set[str]]
    doc_topics: dict[str, str]


def _kb_text() -> str:
    lines = ["# synthetic knowledge base"]
    for class_id, parents, top in _CLASSES:
        parent_field = ",".join(parents) if parents else "-"
        lines.append(f"CLASS\t{class_id}\t{parent_field}\t{'TOP' if top else '-'}")
    for entity_id, class_id, canonical, aliases in _ENTITIES:
        alias_field = "|".join(aliases) if aliases else "-"
        lines.append(f"ENTITY\t{entity_id}\t{class_id}\t{canonical}\t{alias_field}")
    return "\n".join(lines) + "\n"


def _surface(entity_id: str, rng: random.Random, alias_bias: float) -> str:
    """Canonical or disjoint-alias surface; always burns one random draw."""
    use_alias = rng.random() < alias_bias
    entity = next(e for e in _ENTITIES if e[0] == entity_id)
    if entity_id in _MISMATCH_IDS and use_alias:
        return entity[3][0]
    return entity[2]


def generate(seed: int = 7, n_docs: int = 60, alias_bias: float = 0.5) -> SyntheticCollection:
    if n_docs < 50:
        raise ValueError("collection is designed for at least 50 documents")
    if not 0.0 <= alias_bias <= 1.0:  # nan too: it compares false with everything
        raise ValueError(f"alias_bias {alias_bias!r} must be in [0, 1]")
    rng = random.Random(seed)
    orgs = ["Organization_O.1", "Organization_O.2"]
    cities = ["City_C.1", "City_C.2"]
    countries = ["Country_K.1", "Country_K.2"]
    festivals = ["Festival_F.1", "Festival_F.2"]
    persons = ["Scientist_S.1", "Scientist_S.2", "Person_P.3", "Person_P.4"]

    corpus_lines: list[str] = []
    doc_entities: dict[str, set[str]] = {}
    doc_topics: dict[str, str] = {}

    for i in range(n_docs):
        doc_id = f"syn-{i + 1:03d}"
        mentioned: set[str] = set()
        lines: list[str] = []

        def mention(entity_id: str) -> str:
            mentioned.add(entity_id)
            return _surface(entity_id, rng, alias_bias)

        kind = i % 5
        if kind == 0:
            topic = "research"
            words = rng.sample(_POOLS[topic], 4)
            org = mention(orgs[(i // 5) % 2])
            lines.append(f"The {org} published a {words[0]} {words[1]} manuscript.")
            if rng.random() < 0.5:
                person_entity = persons[rng.randrange(len(persons))]
                canonical = next(e for e in _ENTITIES if e[0] == person_entity)[2]
                mentioned.add(person_entity)
                lines.append(f"{canonical} presented the {words[2]} findings.")
            else:
                rng.randrange(len(persons))  # keep the stream aligned
                lines.append(f"The {words[2]} findings were presented.")
            lines.append(f"Notes on {words[3]} followed.")
        elif kind == 1:
            topic = "trade"
            words = rng.sample(_POOLS[topic], 4)
            country = mention(countries[(i // 5) % 2])
            lines.append(f"{country} signed a {words[0]} {words[1]} this season.")
            if rng.random() < 0.5:
                person_entity = persons[rng.randrange(len(persons))]
                canonical = next(e for e in _ENTITIES if e[0] == person_entity)[2]
                mentioned.add(person_entity)
                lines.append(f"{canonical} reviewed the {words[2]} terms.")
            else:
                rng.randrange(len(persons))
                lines.append(f"The {words[2]} terms were reviewed.")
            lines.append(f"A {words[3]} registry was opened.")
        elif kind == 2:
            topic = "civic"
            words = rng.sample(_POOLS[topic], 4)
            city = mention(cities[(i // 5) % 2])
            lines.append(f"The {city} {words[0]} approved a {words[1]} plan.")
            lines.append(f"A new {words[2]} and {words[3]} followed.")
        elif kind == 3:
            topic = "festival"
            words = rng.sample(_POOLS[topic], 4)
            festival = mention(festivals[(i // 5) % 2])
            lines.append(f"The {festival} opened with a {words[0]} {words[1]}.")
            if rng.random() < 0.5:
                city = mention(cities[rng.randrange(2)])
                lines.append(f"Crowds filled {city} for the {words[2]}.")
            else:
                rng.randrange(2)
                lines.append(f"Crowds gathered for the {words[2]}.")
            if rng.random() < 0.4:
                person_entity = persons[rng.randrange(len(persons))]
                canonical = next(e for e in _ENTITIES if e[0] == person_entity)[2]
                mentioned.add(person_entity)
                lines.append(f"{canonical} recorded the {words[3]}.")
            else:
                rng.randrange(len(persons))
                lines.append(f"The {words[3]} lasted all night.")
        else:
            topic = "filler"
            words = rng.sample(_POOLS[topic], 5)
            lines.append(f"The {words[0]} {words[1]} crossed the {words[2]}.")
            lines.append(f"After the {words[3]}, the {words[4]} stood quiet.")

        corpus_lines.append(f"DOC\t{doc_id}")
        corpus_lines.extend(lines)
        doc_entities[doc_id] = mentioned
        doc_topics[doc_id] = topic

    queries_lines = []
    qrels_lines = []
    entity_class = {e[0]: e[1] for e in _ENTITIES}
    for query_id, text, wh_override, kind, target in _QUERIES:
        column = f"\tWH={wh_override}" if wh_override else ""
        queries_lines.append(f"{query_id}\t{text}{column}")
        relevant = []
        for doc_id in sorted(doc_entities):
            ents = doc_entities[doc_id]
            if kind == "entity":
                hit = target in ents
            elif kind == "entity+person":
                hit = target in ents and any(entity_class[e] in _PERSON_CLASSES for e in ents)
            elif kind == "entity+location":
                hit = target in ents and any(entity_class[e] in _LOCATION_CLASSES for e in ents)
            else:  # topic
                hit = doc_topics[doc_id] == target
            if hit:
                relevant.append(doc_id)
        if not relevant:
            raise ValueError(f"seed {seed} produced no relevant docs for {query_id}")
        qrels_lines.extend(f"{query_id} 0 {doc_id} 1" for doc_id in relevant)

    return SyntheticCollection(
        kb_text=_kb_text(),
        corpus_text="\n".join(corpus_lines) + "\n",
        queries_text="\n".join(queries_lines) + "\n",
        qrels_text="\n".join(qrels_lines) + "\n",
        doc_entities=doc_entities,
        doc_topics=doc_topics,
    )

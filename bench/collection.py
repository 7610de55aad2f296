"""Benchmark set-up: a seeded collection, query stream and judgments.

Run as a script, it writes one workload's input files into a directory
and prints one JSON line with the set-up time (as measured, and scaled to
the reference machine speed of calibration.py) and a digest of the files:

    python3 bench/collection.py --workload bigkb --seed 7 --out DIR

The collection is `ontosearch.synth.generate(seed, n_docs)`. For a
workload with extra entities, the knowledge base grows by that many
generated entities under the existing classes, each with a two-word
canonical name and a one-word alias that share no token with each other,
with any other surface form, with the synthetic text, or with the stop
list; a seeded share of the documents gains one sentence naming one of
them. The query stream mixes four kinds (entity name, alias, who/where,
topic words) and its judgments follow from how the collection was built,
the way `synth` derives its own: a document is relevant to an entity or
alias query iff it mentions the entity, to a who/where query iff it also
mentions a person/location, and to a topic query iff it was drawn from
that topic.

`synth` is imported here and nowhere else in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from calibration import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    n_docs: int
    extra_entities: int
    n_queries: int  # judged stream; every query is searched under all five models
    rounds: int     # the stream is split into this many slices, one per round


WORKLOADS = {
    "bigkb": Workload(n_docs=600, extra_entities=1000, n_queries=200, rounds=3),
    "experiment": Workload(n_docs=6000, extra_entities=0, n_queries=200, rounds=3),
}

MENTION_SHARE = 0.5  # share of documents that gain an extra-entity sentence
EXTRA_CLASSES = ("Scientist", "Person", "Organization", "City", "Country", "Festival")
FILES = ("kb.tsv", "corpus.tsv", "queries.tsv", "qrels.txt", "mentions.json",
         "judged/kb.tsv", "judged/corpus.tsv", "judged/queries.tsv")

_WORD = re.compile(r"[^\W_]+", re.UNICODE)
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "vr", "zh")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "io", "ou")
_CODAS = ("", "", "n", "r", "s", "th", "x", "k", "l")


def parse_kb_text(text: str) -> tuple[dict, dict]:
    """(class_id -> parent ids, entity_id -> (class_id, canonical, aliases))."""
    classes: dict[str, tuple[str, ...]] = {}
    entities: dict[str, tuple[str, str, tuple[str, ...]]] = {}
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "CLASS":
            classes[fields[1]] = tuple(p for p in fields[2].split(",") if p not in ("", "-"))
        elif fields[0] == "ENTITY":
            aliases = tuple(a for a in fields[4].split("|") if a not in ("", "-")) if len(fields) > 4 else ()
            entities[fields[1]] = (fields[2], fields[3], aliases)
    return classes, entities


def parse_corpus_text(text: str) -> dict[str, list[str]]:
    docs: dict[str, list[str]] = {}
    lines: list[str] = []
    for raw in text.splitlines():
        if raw.startswith("DOC\t"):
            lines = docs.setdefault(raw[4:].strip(), [])
        elif raw.strip():
            lines.append(raw)
    return docs


def _ancestors(classes: dict, class_id: str) -> set[str]:
    seen, stack = {class_id}, [class_id]
    while stack:
        for parent in classes[stack.pop()]:
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def _fresh_word(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))
        word += rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            return word.capitalize()


def _extra_entities(rng: random.Random, n: int, taken: set[str]) -> dict:
    extra = {}
    for i in range(n):
        class_id = EXTRA_CLASSES[i % len(EXTRA_CLASSES)]
        canonical = f"{_fresh_word(rng, taken)} {_fresh_word(rng, taken)}"
        extra[f"Extra_{class_id}.{i + 1:04d}"] = (class_id, canonical, (_fresh_word(rng, taken),))
    return extra


def _topic_words(docs: dict, topics: dict, taken: set[str]) -> dict[str, list[str]]:
    """Words that occur in one topic's documents only, minus names and stopwords."""
    seen_in: dict[str, set[str]] = {}
    for doc_id, lines in docs.items():
        for word in _WORD.findall(" ".join(lines).casefold()):
            seen_in.setdefault(word, set()).add(topics[doc_id])
    words: dict[str, list[str]] = {}
    for word, where in sorted(seen_in.items()):
        if len(where) == 1 and word not in taken:
            words.setdefault(next(iter(where)), []).append(word)
    return words


def _cycle(rng: random.Random, items: list):
    """Endless rounds over `items`, each round in a fresh shuffled order."""
    while True:
        yield from rng.sample(items, len(items))


def _stream(rng: random.Random, n_queries: int, classes: dict, entities: dict,
            extra_ids: list[str], mentions: dict, topics: dict, topic_words: dict):
    persons = {e for e, (c, _, _) in entities.items() if "Person" in _ancestors(classes, c)}
    places = {e for e, (c, _, _) in entities.items() if "Location" in _ancestors(classes, c)}
    docs_of: dict[str, list[str]] = {}
    for doc_id in sorted(mentions):
        for entity_id in mentions[doc_id]:
            docs_of.setdefault(entity_id, []).append(doc_id)
    # each seed gets the same mix: entities and topics are dealt from shuffled cycles
    extra = set(extra_ids)
    seed_cycle = _cycle(rng, [e for e in sorted(docs_of) if e not in extra])
    extra_cycle = _cycle(rng, [e for e in sorted(docs_of) if e in extra]) if extra else seed_cycle
    topic_cycle = _cycle(rng, sorted(topic_words))

    queries, qrels, texts = [], {}, set()
    for _ in range(100 * n_queries):
        i = len(queries)
        if i == n_queries:
            return queries, qrels
        kind = ("entity", "alias", "wh", "topic")[i % 4]
        entity_id = next(extra_cycle if i % 8 >= 4 else seed_cycle)
        _, canonical, aliases = entities[entity_id]
        words = rng.sample(topic_words[next(topic_cycle)], 2)
        if kind == "entity":
            text = f"{canonical} {words[0]} {words[1]}"
            relevant = docs_of[entity_id]
        elif kind == "alias":
            text = f"{(aliases or (canonical,))[0]} {words[0]} {words[1]}"
            relevant = docs_of[entity_id]
        elif kind == "wh":
            who = rng.random() < 0.5
            needed = persons if who else places
            text = (f"Who chronicled the {words[0]} of {canonical}" if who
                    else f"Where is the {words[0]} of {canonical} observed")
            relevant = [d for d in docs_of[entity_id] if mentions[d] & needed]
        else:
            topic = next(topic_cycle)
            text = " ".join(rng.sample(topic_words[topic], 3))
            relevant = [d for d in sorted(topics) if topics[d] == topic]
        if relevant and text not in texts:
            texts.add(text)
            query_id = f"s{i + 1:04d}"
            queries.append((query_id, text))
            qrels[query_id] = relevant
    raise ValueError(f"could not draw {n_queries} distinct judged queries")


def build(workload: str, seed: int, out: Path) -> None:
    from ontosearch.annotate import DEFAULT_STOPWORDS
    from ontosearch.synth import generate

    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    coll = generate(seed=seed, n_docs=spec.n_docs)
    classes, entities = parse_kb_text(coll.kb_text)
    docs = parse_corpus_text(coll.corpus_text)
    mentions = {d: set(ents) for d, ents in coll.doc_entities.items()}

    names = " ".join(f"{name} {' '.join(aliases)}" for _, name, aliases in entities.values())
    taken = set(DEFAULT_STOPWORDS) | set(_WORD.findall(names.casefold()))
    topic_words = _topic_words(docs, coll.doc_topics, taken)
    taken |= set(_WORD.findall(coll.corpus_text.casefold()))
    taken |= {"records", "mention", "chronicled", "observed"}

    kb_text = coll.kb_text
    extra = _extra_entities(rng, spec.extra_entities, taken)
    if extra:
        kb_text += "".join(f"ENTITY\t{e}\t{c}\t{name}\t{'|'.join(aliases)}\n"
                           for e, (c, name, aliases) in extra.items())
        entities.update(extra)
        extra_ids = list(extra)
        for doc_id in docs:
            if rng.random() < MENTION_SHARE:
                entity_id = rng.choice(extra_ids)
                _, canonical, aliases = extra[entity_id]
                surface = aliases[0] if rng.random() < 0.5 else canonical
                docs[doc_id].append(f"Records mention {surface}.")
                mentions[doc_id].add(entity_id)

    queries, qrels = _stream(rng, spec.n_queries, classes, entities, list(extra),
                             mentions, coll.doc_topics, topic_words)

    out.mkdir(parents=True, exist_ok=True)
    (out / "kb.tsv").write_text(kb_text, encoding="utf-8")
    (out / "corpus.tsv").write_text(
        "".join(f"DOC\t{d}\n" + "".join(f"{line}\n" for line in lines) for d, lines in docs.items()),
        encoding="utf-8")
    (out / "queries.tsv").write_text("".join(f"{q}\t{t}\n" for q, t in queries), encoding="utf-8")
    (out / "qrels.txt").write_text(
        "".join(f"{q} 0 {d} 1\n" for q, _ in queries for d in qrels[q]), encoding="utf-8")
    (out / "mentions.json").write_text(
        json.dumps({d: sorted(m) for d, m in mentions.items()}, indent=0), encoding="utf-8")

    # synth's own 24 judged queries, whose run files are pinned by digest
    judged = generate(seed=7)
    (out / "judged").mkdir(exist_ok=True)
    (out / "judged" / "kb.tsv").write_text(judged.kb_text, encoding="utf-8")
    (out / "judged" / "corpus.tsv").write_text(judged.corpus_text, encoding="utf-8")
    (out / "judged" / "queries.tsv").write_text(judged.queries_text, encoding="utf-8")


def files_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for name in FILES:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with SpeedSampler() as sampler:
        mark = sampler.mark()
        build(args.workload, args.seed, args.out)
        end, elapsed = sampler.elapsed(mark)
    print(json.dumps({"setup_s": elapsed * sampler.factor(mark[0], end), "setup_raw_s": elapsed,
                      "sha256": files_digest(args.out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

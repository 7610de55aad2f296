"""Brute-force reference implementations, independent of the package internals.

These recompute expected values the slow, obvious way: explicit graph walks,
dense term-document matrices, exhaustive prefix scans. Tests freeze their
outputs and hold the engine to them.
"""

from __future__ import annotations

import base64
import math
import re
from collections import Counter

import numpy as np

from ontosearch.expand import Keyword, Space, Triple, triple_slots
from ontosearch.index import IndexBundle, Roster, _space_index, _table
from ontosearch.kb import normalize_name
from ontosearch.rank import Model, Scores, cosine_score
from ontosearch.stem import stem

ENTITY_SPACES = (Space.N, Space.C, Space.NC, Space.I)


# --- ontology ---------------------------------------------------------------

def closure_walk(parents: dict[str, set[str]], top_level: set[str], class_id: str) -> set[str]:
    """Recursive ancestor walk; drops top-level classes and the class itself."""
    out: set[str] = set()

    def walk(c: str) -> None:
        for p in parents.get(c, set()):
            if p not in out:
                out.add(p)
                walk(p)

    walk(class_id)
    return {c for c in out if c not in top_level} - {class_id}


def normalize_name_regex(surface: str) -> str:
    """A name's normal form by regex: case-folded, each whitespace run one space, stripped."""
    return re.sub(r"\s+", " ", surface.casefold()).strip()


# --- analysis ---------------------------------------------------------------

def tokenize_walk(text: str, stopwords) -> tuple[list[str], list[tuple[int, int]]]:
    """A text's keywords by a character walk: (stems, spans).

    A word is a run of `str.isalnum` characters, extended across each single
    hyphen that has such a character on both sides. Each word is case-folded;
    a stop word is dropped, and any other is stemmed and kept with its span.
    """
    stems, spans = [], []
    i, n = 0, len(text)
    while i < n:
        if not text[i].isalnum():
            i += 1
            continue
        start = i
        while i < n and text[i].isalnum():
            i += 1
            if i + 1 < n and text[i] == "-" and text[i + 1].isalnum():
                i += 1
        word = text[start:i].casefold()
        if word not in stopwords:
            stems.append(stem(word))
            spans.append((start, i))
    return stems, spans


def keywords_outside_entities_any(stems, spans, entities) -> list:
    """The stems whose spans lie wholly inside no entity span, tested span by span."""
    mentions = [e.char_span for e in entities]
    return [
        word
        for word, (start, end) in zip(stems, spans)
        if not any(s <= start and end <= e for s, e in mentions)
    ]


def generalized_bag(at, kb) -> Counter:
    """The generalized space G of one annotated document, from the rules.

    Each keyword not lying wholly inside a mention counts once. Each
    mention adds, once each: its names (the annotated name, plus the
    canonical name and aliases when identified), its classes (the annotated
    class plus every ancestor `closure_walk` keeps), every name-class pair,
    and its identifier when known.
    """
    parents = {c: set(d.parent_ids) for c, d in kb.classes.items()}
    top = {c for c, d in kb.classes.items() if d.is_top_level}
    bag: Counter = Counter()
    for word in keywords_outside_entities_any(at.stems, at.spans, at.entities):
        bag[Keyword(word)] += 1
    for ann in at.entities:
        names = {ann.name} if ann.name is not None else set()
        if ann.entity_id is not None:
            entity = kb.entities[ann.entity_id]
            names |= {entity.canonical_name, *entity.aliases}
        classes = set()
        if ann.class_id is not None:
            classes = {ann.class_id} | closure_walk(parents, top, ann.class_id)
        terms = (
            {Triple(name=n) for n in names}
            | {Triple(class_id=c) for c in classes}
            | {Triple(name=n, class_id=c) for n in names for c in classes}
        )
        if ann.entity_id is not None:
            terms.add(Triple(entity_id=ann.entity_id))
        bag.update(terms)
    return bag


def most_specific_term(ann, kb) -> tuple:
    """A mention's (space, term) on the query side: its id, else name and class, else
    class, else name. A mention naming an unknown entity or class raises ValueError."""
    if ann.entity_id is not None:
        if ann.entity_id not in kb.entities:
            raise ValueError(f"annotation references unknown entity id {ann.entity_id!r}")
        return Space.I, Triple(entity_id=ann.entity_id)
    if ann.class_id is not None and ann.class_id not in kb.classes:
        raise ValueError(f"annotation references unknown class id {ann.class_id!r}")
    if ann.name is not None and ann.class_id is not None:
        return Space.NC, Triple(name=ann.name, class_id=ann.class_id)
    if ann.class_id is not None:
        return Space.C, Triple(class_id=ann.class_id)
    return Space.N, Triple(name=ann.name)


def expand_query_counters(at, kb, wh_class=None) -> dict:
    """A query's six bags, filled one `Counter` increment per term.

    Each keyword counts once in KW; each keyword not wholly inside a
    mention counts once in G. Each mention's most specific term counts
    once in its own space and once in G, and `wh_class`, when given, once
    in G as a class-only term.
    """
    bags = {space: Counter() for space in Space}
    for word in at.stems:
        bags[Space.KW][Keyword(word)] += 1
    for word in keywords_outside_entities_any(at.stems, at.spans, at.entities):
        bags[Space.G][Keyword(word)] += 1
    for ann in at.entities:
        space, term = most_specific_term(ann, kb)
        bags[space][term] += 1
        bags[Space.G][term] += 1
    if wh_class is not None:
        bags[Space.G][Triple(class_id=wh_class)] += 1
    return bags


def expand_query_two_steps(at, kb, wh_class=None) -> dict:
    """A query's six bags as a two-step path composes them: first the parts, KW and
    G's own part (its kept keywords, then the wh term) as `Counter`s and each
    mention's most specific term in its space's bag; then G, composed into a new
    `Counter` by adding every entity bag to its own part, counts added."""
    entity = {space: {} for space in ENTITY_SPACES}
    for ann in at.entities:
        space, term = most_specific_term(ann, kb)
        entity[space][term] = entity[space].get(term, 0) + 1
    own = Counter(map(Keyword, keywords_outside_entities_any(at.stems, at.spans, at.entities)))
    if wh_class is not None:
        own[Triple(class_id=wh_class)] += 1
    parts = {Space.KW: Counter(map(Keyword, at.stems)), **entity, Space.G: own}
    generalized = Counter()
    dict.update(generalized, parts[Space.G])
    for space in ENTITY_SPACES:
        for term, n in parts[space].items():
            generalized[term] = generalized.get(term, 0) + n
    return {**parts, Space.G: generalized}


# --- entity recognition -------------------------------------------------------

def recognize_scan(text: str, kb) -> list[tuple[int, int]]:
    """Mention spans by trying every span, longest first, from each start.

    A span [s, e) is a mention when text[s - 1] (if any) and text[e] (if
    any) are not alphanumeric, text[s] and text[e - 1] are not whitespace,
    and normalize_name(text[s:e]) is a key of kb.name_index. From the first
    start with a mention the longest is taken, and the scan goes on at e.
    """
    spans = []
    n = len(text)
    s = 0
    while s < n:
        if (s == 0 or not text[s - 1].isalnum()) and not text[s].isspace():
            for e in range(n, s, -1):
                if ((e == n or not text[e].isalnum()) and not text[e - 1].isspace()
                        and normalize_name(text[s:e]) in kb.name_index):
                    spans.append((s, e))
                    s = e
                    break
            else:
                s += 1
        else:
            s += 1
    return spans


def gazetteer_regex(surfaces) -> re.Pattern | None:
    """The regex gazetteer: one case-insensitive alternation, longest first.

    Words may be separated by any whitespace run, and a match must not
    begin or end inside an alphanumeric run. On ASCII text it finds the
    spans recognize_scan finds.
    """
    ordered = sorted(surfaces, key=lambda s: (-len(s), s))
    if not ordered:
        return None
    body = "|".join(r"\s+".join(re.escape(w) for w in s.split(" ")) for s in ordered)
    return re.compile(rf"(?<![^\W_])(?:{body})(?![^\W_])", re.IGNORECASE | re.UNICODE)


def recognize_regex(text: str, kb) -> list[tuple[int, int]]:
    """Spans of the regex gazetteer's matches whose normal form is a surface."""
    pattern = gazetteer_regex(kb.name_index)
    if pattern is None:
        return []
    return [m.span() for m in pattern.finditer(text) if normalize_name(m.group()) in kb.name_index]


# --- index build ----------------------------------------------------------------

def build_index_dicts(reps) -> IndexBundle:
    """build_index by per-term lists: each term's (roster position, tf)
    postings gathered in a dict, the terms then sorted.
    G is each document's composed `space_bags[G]`, whole: its own keywords
    and its N, C, NC and I terms, inverted as one space.

    Each space gets a table of its own, row i holding its i-th sorted term,
    so no space reads the rows of another. It groups postings independently
    of the engine and shares only the engine's array assembly,
    `index._table` and `index._space_index`.
    """
    by_doc: dict = {}
    for rep in reps:
        if rep.doc_id in by_doc:
            raise ValueError(f"duplicate doc_id {rep.doc_id!r}")
        by_doc[rep.doc_id] = rep.space_bags
    roster = Roster(sorted(by_doc))

    spaces = {}
    for space in Space:
        term_docs: dict = {}
        for position, doc_id in enumerate(roster):
            for term, tf in by_doc[doc_id].get(space, {}).items():
                term_docs.setdefault(term, []).append((position, tf))
        terms = sorted(term_docs)
        postings = [posting for term in terms for posting in term_docs[term]]
        table = _table(
            [len(term_docs[term]) for term in terms],
            [position for position, _ in postings],
            [tf for _, tf in postings],
            len(roster),
        )
        spaces[space] = _space_index(dict(zip(terms, range(len(terms)))), table, roster)
    return IndexBundle(spaces=spaces, doc_ids=roster)


def check_terms_walk(terms: list[str], path, first: int) -> None:
    """`index._check_terms` term by term: each adjacent pair compared, then each
    triple's slots read back and spelt again; the first failure names its line."""
    # term ids are file order, so it must be the canonical accumulation order
    for i, (a, b) in enumerate(zip(terms, terms[1:])):
        if a >= b:
            raise ValueError(f"{path}:{first + i + 1}: terms are not in strictly ascending serialized order")
    for i, text in enumerate(terms):
        if text.startswith("k:"):
            continue
        try:
            slots = triple_slots(text)
            name = slots[0]
            # a field without `%` is spelt as `Triple` spells it but for the name's case and
            # spaces (a term field holds no tab or newline), so the usual term needs no re-encoding
            if "%" not in text and any(slots) and (name is None or normalize_name(name) == name):
                continue
            canonical = Triple(*slots)
        except ValueError as exc:
            raise ValueError(f"{path}:{first + i}: {exc}") from None
        if canonical != text:
            raise ValueError(f"{path}:{first + i}: term {text!r} is not in canonical form, {canonical!r}")


BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

# the ways `posting_field` can spoil a field, each refused by `load_index`
MALFORMED_FIELDS = ("truncated", "over-9-bytes", "non-minimal", "not-base64", "inner-padding",
                    "padding-bits", "empty")


def posting_field(values, malformed: str | None = None) -> str:
    """An `index.tsv` gaps or tfs field: the padded base64 of the values'
    unsigned LEB128 varints, 7 bits a byte, low bits first, the high bit set
    on every byte but a varint's last; written value by value.

    `malformed` spoils it one way of `MALFORMED_FIELDS`: the last varint cut
    short, a 10-byte varint appended, the last varint given a needless zero
    byte, a `-` for the first character, an `=` for the second, nonzero bits
    under the padding, or no field at all.
    """
    if malformed not in (None, *MALFORMED_FIELDS):
        raise ValueError(f"unknown malformation {malformed!r}")
    data = bytearray()
    for value in values:
        while value > 0x7F:
            data.append(0x80 | value & 0x7F)
            value >>= 7
        data.append(value)
    if malformed == "truncated":
        data[-1] |= 0x80
    elif malformed == "over-9-bytes":
        data += b"\x80" * 9 + b"\x01"
    elif malformed == "non-minimal":
        data[-1] |= 0x80
        data.append(0)
    text = base64.b64encode(bytes(data)).decode("ascii")
    if malformed == "not-base64":
        text = "-" + text[1:]
    elif malformed == "inner-padding":
        text = text[0] + "=" + text[2:]
    elif malformed == "padding-bits":  # the lowest bit before padding is always spare
        if not text.endswith("="):
            raise ValueError("nonzero padding bits need a byte count that is not a multiple of 3")
        i = len(text.rstrip("=")) - 1
        text = text[:i] + BASE64_ALPHABET[BASE64_ALPHABET.index(text[i]) + 1] + text[i + 1:]
    elif malformed == "empty":
        text = ""
    return text


# --- dense tf-idf cosine -----------------------------------------------------

def dense_cosine(doc_bags: dict[str, dict], query_bag: dict) -> dict[str, float]:
    """Cosine scores from a dense tf-idf matrix over the corpus vocabulary.

    Weight is tf * ln(n_docs / df). Query terms outside the corpus vocabulary
    have no column and therefore no effect. A document enters the result map
    iff it shares at least one in-vocabulary term with the query (even at
    weight zero); a zero norm on either side pins the score to 0.0.
    """
    n_docs = len(doc_bags)
    vocab = sorted({t for bag in doc_bags.values() for t in bag}, key=repr)
    df = {t: sum(1 for bag in doc_bags.values() if t in bag) for t in vocab}

    def weight(tf: int, term) -> float:
        return tf * math.log(n_docs / df[term])

    q_vec = [weight(query_bag.get(t, 0), t) for t in vocab]
    q_norm = math.sqrt(sum(w * w for w in q_vec))

    scores: dict[str, float] = {}
    for doc_id, bag in doc_bags.items():
        if not any(t in bag for t in query_bag):
            continue
        d_vec = [weight(bag.get(t, 0), t) for t in vocab]
        d_norm = math.sqrt(sum(w * w for w in d_vec))
        if q_norm == 0.0 or d_norm == 0.0:
            scores[doc_id] = 0.0
        else:
            dot = sum(qw * dw for qw, dw in zip(q_vec, d_vec))
            scores[doc_id] = dot / (q_norm * d_norm)
    return scores


def loop_cosine(doc_bags: dict[str, dict], query_bag: dict) -> dict[str, float]:
    """Cosine scores summed by a per-posting loop, the reference for exact equality.

    Terms are visited in sorted order and each term's postings in doc-id
    order: a document's dot product starts at 0.0 and adds w_q * w_d term
    by term, and its norm sums w * w in the same term order. Keys and zero
    handling are those of dense_cosine; cosines are clamped to <= 1.0.
    """
    n_docs = len(doc_bags)
    df: dict = {}
    for bag in doc_bags.values():
        for term in bag:
            df[term] = df.get(term, 0) + 1

    def weight(tf: int, term) -> float:
        return tf * math.log(n_docs / df[term])

    def norm(bag: dict) -> float:
        acc = 0.0
        for term in sorted(bag):
            w = weight(bag[term], term)
            acc += w * w
        return math.sqrt(acc)

    dot: dict[str, float] = {}
    q_sq = 0.0
    for term in sorted(query_bag):
        if term not in df:
            continue
        w_q = weight(query_bag[term], term)
        q_sq += w_q * w_q
        for doc_id in sorted(doc_bags):
            if term in doc_bags[doc_id]:
                w_d = weight(doc_bags[doc_id][term], term)
                dot[doc_id] = dot.get(doc_id, 0.0) + w_q * w_d
    q_norm = math.sqrt(q_sq)
    scores: dict[str, float] = {}
    for doc_id, numerator in dot.items():
        d_norm = norm(doc_bags[doc_id])
        if q_norm > 0.0 and d_norm > 0.0:
            scores[doc_id] = min(1.0, numerator / (q_norm * d_norm))
        else:
            scores[doc_id] = 0.0
    return scores


def four_cosine_scores(bags: dict, idx, cfg) -> Scores:
    """`ne` or `kw-union-ne` scores summed over all four entity-space cosines, each
    taken whether the query reaches its space or not: weight * cosine added onto
    zeros in order (N, C, NC, I), then alpha * NE and (1 - alpha) * KW onto zeros."""
    def weighted_sum(weighted):
        first = weighted[0][1]
        combined = np.zeros(len(first.array))
        touched = np.zeros(len(first.array), dtype=bool)
        for weight, scores in weighted:
            combined += weight * scores.array
            touched |= scores.touched
        return Scores(first.roster, combined, touched)

    weights = dict(zip(ENTITY_SPACES, (cfg.w_n, cfg.w_c, cfg.w_nc, cfg.w_i)))
    ne = weighted_sum([(weights[s], cosine_score(bags[s], idx.spaces[s])) for s in ENTITY_SPACES])
    if cfg.model is Model.NE:
        return ne
    kw = cosine_score(bags[Space.KW], idx.spaces[Space.KW])
    return weighted_sum([(cfg.alpha, ne), (1.0 - cfg.alpha, kw)])


def loop_ne_scores(
    doc_space_bags: dict[str, dict[str, dict]],
    query_space_bags: dict[str, dict],
    weights: dict[str, float],
) -> dict[str, float]:
    """Weighted sum of per-space loop cosines, added space by space (N, C, NC, I)."""
    combined: dict[str, float] = {}
    for space in ("N", "C", "NC", "I"):
        docs = {d: bags.get(space, {}) for d, bags in doc_space_bags.items()}
        for doc_id, value in loop_cosine(docs, query_space_bags.get(space, {})).items():
            combined[doc_id] = combined.get(doc_id, 0.0) + weights[space] * value
    return combined


def loop_union_scores(ne_scores: dict[str, float], kw_scores: dict[str, float], alpha: float) -> dict[str, float]:
    """alpha * NE, then (1 - alpha) * KW added onto it."""
    combined = {d: alpha * value for d, value in ne_scores.items()}
    for doc_id, value in kw_scores.items():
        combined[doc_id] = combined.get(doc_id, 0.0) + (1.0 - alpha) * value
    return combined


def dense_ne_scores(
    doc_space_bags: dict[str, dict[str, dict]],
    query_space_bags: dict[str, dict],
    weights: dict[str, float],
) -> dict[str, float]:
    """Weighted sum of per-space dense cosines (spaces N, C, NC, I)."""
    per_space = {}
    for space in ("N", "C", "NC", "I"):
        docs = {d: bags.get(space, {}) for d, bags in doc_space_bags.items()}
        per_space[space] = dense_cosine(docs, query_space_bags.get(space, {}))
    doc_ids = set().union(*(m.keys() for m in per_space.values()))
    return {
        d: sum(weights[s] * per_space[s].get(d, 0.0) for s in ("N", "C", "NC", "I"))
        for d in doc_ids
    }


def dense_union_scores(ne_scores: dict[str, float], kw_scores: dict[str, float], alpha: float) -> dict[str, float]:
    doc_ids = set(ne_scores) | set(kw_scores)
    return {d: alpha * ne_scores.get(d, 0.0) + (1.0 - alpha) * kw_scores.get(d, 0.0) for d in doc_ids}


def rank_scores(scores: dict[str, float], k: int | None = None) -> list[tuple[str, float]]:
    """Positive scores only, descending, ties by ascending doc id."""
    ranked = sorted(
        ((d, s) for d, s in scores.items() if s > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked if k is None else ranked[:k]


# --- evaluation ---------------------------------------------------------------

def ap_scan(ranking: list[str], relevant: set[str]) -> float:
    """Average precision by direct prefix scan; unretrieved relevant docs add 0."""
    hits = 0
    total = 0.0
    for i, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def interpolated_curve_scan(ranking: list[str], relevant: set[str]) -> list[tuple[float, float]]:
    """(recall level, interpolated precision) at the 11 standard levels.

    Interpolated precision at level r is the maximum precision over every
    ranking prefix whose recall is >= r; the max over an empty set is 0.
    """
    n_rel = len(relevant)
    points = []
    hits = 0
    for i, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
        points.append((hits / n_rel, hits / i))
    levels = [round(0.1 * j, 1) for j in range(11)]
    return [
        (level, max((p for r, p in points if r >= level), default=0.0))
        for level in levels
    ]


def mean_curve_scan(curves: list[list[tuple[float, float]]]) -> list[tuple[float, float, float]]:
    """(recall level, mean precision, mean F) over `interpolated_curve_scan`
    curves, each mean a sequential sum over the curves in order.

    A curve's F at level r pairs its precision p with r: 2pr / (p + r), or 0
    where p and r are both 0.
    """
    means = []
    for i, (level, _) in enumerate(curves[0]):
        precision_total = f_total = 0.0
        for curve in curves:
            _, precision = curve[i]
            precision_total += precision
            f_total += 0.0 if precision == level == 0.0 else 2.0 * precision * level / (precision + level)
        means.append((level, precision_total / len(curves), f_total / len(curves)))
    return means


def parse_qrels_walk(text: str, origin: str = "<qrels>") -> dict[str, set[str]]:
    """TREC qrels lines `query_id 0 doc_id rel`; rel > 0 marks relevance."""
    relevant: dict[str, set[str]] = {}
    current_id = docs = None  # the last query with a relevant doc, and its set
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()  # [] for a blank line
        if len(fields) != 4:
            if not fields:
                continue
            raise ValueError(f"{origin}:{lineno}: expected 4 fields, got {len(fields)}")
        query_id, _, doc_id, rel = fields
        try:
            relevance = int(rel)
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: relevance {rel!r} is not an integer") from None
        if relevance > 0:
            if query_id != current_id:
                current_id, docs = query_id, relevant.setdefault(query_id, set())
            docs.add(doc_id)
    return relevant


def parse_run_walk(text: str, origin: str = "<run>") -> dict[str, list[str]]:
    """TREC run lines `query_id Q0 doc_id rank score tag` -> rankings per query."""
    rows: dict[str, dict[str, int]] = {}  # query_id -> doc_id -> rank
    current_id = ranks = None  # the previous line's query, and its ranks
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()  # [] for a blank line
        if len(fields) != 6:
            if not fields:
                continue
            raise ValueError(f"{origin}:{lineno}: expected 6 fields, got {len(fields)}")
        query_id, _, doc_id, rank, _score, _tag = fields
        try:
            position = int(rank)
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: rank {rank!r} is not an integer") from None
        if query_id != current_id:
            current_id, ranks = query_id, rows.setdefault(query_id, {})
        if doc_id in ranks:
            raise ValueError(
                f"{origin}:{lineno}: duplicate doc {doc_id!r} in ranking for query {query_id!r}"
            )
        ranks[doc_id] = position
    # ordered by rank, ties by doc_id
    return {
        query_id: [doc_id for _, doc_id in sorted(zip(ranks.values(), ranks))]
        for query_id, ranks in rows.items()
    }


def exact_randomization_counts(diffs) -> tuple[int, int, int]:
    """(n_minus, n_plus, 2**n) over every one of the 2**n sign vectors.

    The exact randomization distribution of the paired mean difference
    (Smucker, Allan & Carterette, CIKM 2007): a sign vector counts toward
    n_minus when its mean is <= -|mean(diffs)| and toward n_plus when it is
    >= +|mean(diffs)|. Each vector's mean is a row mean of the same
    elementwise products a sampled permutation sums, so ties are judged
    alike. Enumeration is exponential, hence n <= 16.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    n = diffs.size
    if not 1 <= n <= 16:
        raise ValueError(f"exact enumeration needs 1 <= n <= 16, got {n}")
    delta = abs(float(diffs.mean()))
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # row v = binary digits of v
    means = (diffs * np.where(bits == 1, -1.0, 1.0)).mean(axis=1)
    return int(np.count_nonzero(means <= -delta)), int(np.count_nonzero(means >= delta)), 2**n


def permutation_uniforms(seed: int, perm_index: int, n_queries: int) -> np.ndarray:
    """The uniform draws behind one permutation's swap decisions: `n_queries`
    doubles from a Philox keyed by the seed, its counter started at
    `perm_index * ceil(n_queries / 4)`, the first of the four draws per
    counter that a permutation spans. A query's pair is swapped when its
    draw is below one half."""
    bit_gen = np.random.Philox(key=seed, counter=perm_index * -(-n_queries // 4))
    return np.random.Generator(bit_gen).random(n_queries)

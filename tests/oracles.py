"""Brute-force reference implementations, independent of the package internals.

These recompute expected values the slow, obvious way: explicit graph walks,
dense term-document matrices, exhaustive prefix scans. Tests freeze their
outputs and hold the engine to them.
"""

from __future__ import annotations

import math


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


def loop_cosine(doc_bags: dict[str, dict], query_bag: dict, term_key) -> dict[str, float]:
    """Cosine scores summed by a per-posting loop, the reference for exact equality.

    Terms are visited in `term_key` order and each term's postings in doc-id
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
        for term in sorted(bag, key=term_key):
            w = weight(bag[term], term)
            acc += w * w
        return math.sqrt(acc)

    dot: dict[str, float] = {}
    q_sq = 0.0
    for term in sorted(query_bag, key=term_key):
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


def loop_ne_scores(
    doc_space_bags: dict[str, dict[str, dict]],
    query_space_bags: dict[str, dict],
    weights: dict[str, float],
    term_key,
) -> dict[str, float]:
    """Weighted sum of per-space loop cosines, added space by space (N, C, NC, I)."""
    combined: dict[str, float] = {}
    for space in ("N", "C", "NC", "I"):
        docs = {d: bags.get(space, {}) for d, bags in doc_space_bags.items()}
        for doc_id, value in loop_cosine(docs, query_space_bags.get(space, {}), term_key).items():
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

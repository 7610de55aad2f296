"""Query-time scoring and ranking under the five retrieval models.

Model names follow the CLI spelling: `kw` scores over the keyword space
alone; `ne` is the weighted sum of the four entity-space cosines
(w_N + w_C + w_NC + w_I = 1); `kw-union-ne` blends the two with
alpha * NE + (1 - alpha) * KW; `kw+ne` and `kw+ne+wh` are single cosines
over the generalized term space. Every query and document is analysed the
same way and expanded into all six spaces whatever the model; a model only
picks the spaces it scores. The one exception is kw+ne+wh, under which
`represent_query` adds the class of the query's interrogative word (or the
query's override) to G as one class term. A query's six bags are plain
dicts, G composed when the query is expanded, and `score_query` reads one
bag per space it scores.

Under `ne` and `kw-union-ne` an entity space is scored only when the
query's bag in it is non-empty; the weighted sums leave the others out. Such
a space's cosine would only add w * 0.0 to each document's sum, and since
every score is >= 0 and every weight finite and >= 0, x + 0.0 == x keeps the
sum's bits. A bag that shares no term with its space's vocabulary costs no
array work either: its cosine returns the roster's shared read-only zeros
(`Roster.untouched`), touching nothing, and the sum adds w * 0.0. A query
that reaches no entity space scores nothing under `ne`.

Scoring conventions, applied uniformly:
  * a query term missing from a space's vocabulary has no document
    frequency, so it contributes to neither the dot product nor the query
    norm;
  * documents sharing at least one in-vocabulary term stay in the score
    map even when every shared term is ubiquitous (weight 0);
  * a zero query or document norm yields score 0;
  * cosines are clamped to <= 1.0 to absorb last-ulp float overshoot;
  * final rankings keep strictly positive scores only, sorted by
    descending score with ties broken by ascending doc_id.

A cosine sorts the query's in-vocabulary terms by term string, the order
of G inverted whole even where G's rows lie in its parts' sections, and
sums each document's products w_q * w_d with `np.bincount` over their rows'
postings concatenated in that order. bincount adds posting by posting,
starting from 0.0, so every score is bit-reproducible regardless of input
ordering. A row's posting range and idf are read from Python lists that the
bundle's table caches on first use (`offset_list`, `idf_list`), so a query
term makes no numpy scalar; they hold the same integers and doubles as the
arrays, so the scores are the same bits. Scorers return a read-only
`Scores` mapping: a view over a roster-long score array, holding the
bundle's `Roster`, whose keys are the documents that share an in-vocabulary
term with the query. A weighted sum starts from its first product rather
than from zeros, the same bits.

`rank_documents` sorts fewer than `QUICKSORT_MIN_CANDIDATES` positive
scores with a stable argsort over ascending roster positions, and more with
numpy's faster, unstable default argsort followed by an exact repair that
puts each tie back in ascending position. Both give the same order: by
descending score, each tie in ascending doc_id.

`rank_documents`, and so `search`, returns a `Ranking`: two flat lists,
`doc_ids` and clamped `scores`, in rank order. The kept roster positions
become doc ids by one take from the roster's object array (`Roster.array`),
built once per bundle, which holds the roster's own strings. A `Ranking` is
a read-only sequence of `ScoredDoc`, but builds a `ScoredDoc` only for an
item that is indexed or iterated; `format_run_lines` reads the two lists
directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .annotate import DEFAULT_STOPWORDS, DEFAULT_WH_MAPPING, annotate, wh_class
from .expand import (
    _C, _G, _I, _KW, _N, _NC, DocRepresentation, DocumentCounts, TermBag, expand_document, expand_query,
)
from .index import IndexBundle, Roster, SpaceIndex
from .kb import KnowledgeBase


class Model(str, Enum):
    KW = "kw"
    NE = "ne"
    KW_UNION_NE = "kw-union-ne"
    KW_PLUS_NE = "kw+ne"
    KW_PLUS_NE_WH = "kw+ne+wh"


# read once: each read of a member such as `Model.NE` costs about four str hashes
_NE, _WH = Model.NE, Model.KW_PLUS_NE_WH
_ONE_SPACE = {Model.KW: _KW, Model.KW_PLUS_NE: _G, _WH: _G}  # the models that score one space

# From this many positive scores on, `rank_documents` sorts with numpy's default argsort
# and repairs the ties; below it, with the stable argsort. The crossover, measured on the
# `experiment` benchmark's score arrays at k = 1000 (numpy 2.4, AVX-512, 2 cores): at
# 900-999 candidates the stable sort was faster on 26 of 34 queries, at 1000-1099 the
# quicksort on 33 of 40. The stable sort (timsort) is fast on heavily tied scores, so
# `ne`'s 600-900 candidates of 3-6 distinct scores stay on its side.
QUICKSORT_MIN_CANDIDATES = 1000


@dataclass(frozen=True)
class ModelConfig:
    """Scoring knobs; defaults weight the four entity spaces equally and
    split keyword/entity evidence down the middle."""

    model: Model = Model.KW_PLUS_NE
    w_n: float = 0.25
    w_c: float = 0.25
    w_nc: float = 0.25
    w_i: float = 0.25
    alpha: float = 0.5
    k: int | None = None  # result cutoff; None means unlimited

    def __post_init__(self) -> None:
        weights = (self.w_n, self.w_c, self.w_nc, self.w_i)
        if any(w < 0 for w in weights):
            raise ValueError(f"space weights must be non-negative, got {weights}")
        if not abs(sum(weights) - 1.0) <= 1e-9:  # also rejects a nan weight
            raise ValueError(f"space weights must sum to 1, got {sum(weights)!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be a positive cutoff or None, got {self.k!r}")


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


class Ranking(Sequence):
    """Read-only ranked results: parallel `doc_ids` and `scores` lists.

    Indexing and iteration give `ScoredDoc`s, made on demand; a slice is a
    `Ranking`. Two rankings are equal when both lists are.
    """

    __slots__ = ("doc_ids", "scores")

    def __init__(self, doc_ids: list[str], scores: list[float]) -> None:
        self.doc_ids = doc_ids
        self.scores = scores

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(self.doc_ids[index], self.scores[index])
        return ScoredDoc(self.doc_ids[index], self.scores[index])

    def __iter__(self) -> Iterator[ScoredDoc]:
        return map(ScoredDoc, self.doc_ids, self.scores)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.doc_ids == other.doc_ids and self.scores == other.scores

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"


class Scores(Mapping):
    """Read-only doc_id -> score view over the score array of a bundle's roster.

    `array` holds a score for every roster position, 0.0 for documents
    outside the view; the keys are the documents flagged in `touched`, in
    roster order.
    """

    __slots__ = ("roster", "array", "touched")

    def __init__(self, roster: Roster, array: np.ndarray, touched: np.ndarray) -> None:
        self.roster = roster
        self.array = array
        self.touched = touched

    def __getitem__(self, doc_id: str) -> float:
        position = self.roster.positions.get(doc_id)
        if position is None or not self.touched[position]:
            raise KeyError(doc_id)
        return self.array[position].item()

    def __iter__(self) -> Iterator[str]:
        roster = self.roster
        return (roster[i] for i in np.flatnonzero(self.touched).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.touched))


def cosine_score(query_bag: TermBag, space: SpaceIndex) -> Scores:
    """Cosine between the query bag and every document sharing a term with it."""
    get = space.rows.get
    # the terms are distinct, so the triples sort by term alone
    found = sorted([(term, row, tf) for term, tf in query_bag.items() if (row := get(term)) is not None])
    roster = space.doc_ids
    if not found:
        return Scores(roster, *roster.untouched)
    n = len(roster)
    touched = np.zeros(n, dtype=bool)
    values = np.zeros(n)
    table = space.table
    offsets, idf = table.offset_list, table.idf_list
    doc_idx, weights = table.doc_idx, table.weights
    q_sq = 0.0
    docs, products = [], []
    for _, row, tf in found:
        w_q = tf * idf[row]
        q_sq += w_q * w_q
        lo, hi = offsets[row], offsets[row + 1]
        docs.append(doc_idx[lo:hi])
        products.append(weights[lo:hi] * w_q)
    # as numpy's index type: an int32 index is cast in each fancy assignment and bincount
    docs = np.concatenate(docs, dtype=np.intp)
    touched[docs] = True
    q_norm = math.sqrt(q_sq)
    if q_norm > 0.0:
        dot = np.bincount(docs, weights=np.concatenate(products), minlength=n)
        np.divide(dot, q_norm * space.norms, out=values, where=space.has_norm)
        np.minimum(values, 1.0, out=values)
    return Scores(roster, values, touched)


def _weighted_sum(weighted: list[tuple[float, Scores]], roster: Roster) -> Scores:
    """Sum of weight * scores in order, over every touched document of `roster`; an empty
    list gives zeros, none touched. Starting from the first product gives the bits of
    adding onto zeros, since 0.0 + x == x for x >= 0."""
    if not weighted:
        return Scores(roster, *roster.untouched)
    (weight, first), *rest = weighted
    combined = weight * first.array
    touched = first.touched.copy()
    for weight, scores in rest:
        # outside a view its score is 0.0, and x + 0.0 == x for x >= 0
        combined += weight * scores.array
        touched |= scores.touched
    return Scores(roster, combined, touched)


def represent_query(
    query_text: str,
    kb: KnowledgeBase,
    cfg: ModelConfig,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    wh_mapping: dict[str, str] = DEFAULT_WH_MAPPING,
    wh_override: str | None = None,
) -> DocRepresentation:
    """Annotate a query and expand it into all six spaces.

    The model changes only whether the interrogative word is read: under
    kw+ne+wh, `wh_override` or else the leading word's class in `wh_mapping`
    becomes a G term; an empty `wh_mapping` maps no word.
    """
    wh = None
    if cfg.model is _WH:
        wh = wh_override if wh_override is not None else wh_class(query_text, wh_mapping)
    return expand_query(annotate(query_text, kb, stopwords=stopwords), kb, wh_class=wh)


def represent_document(
    text: str,
    kb: KnowledgeBase,
    doc_id: str,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> DocumentCounts:
    """Document-side twin of represent_query: one annotation pass, counted for all six spaces."""
    return expand_document(annotate(text, kb, stopwords=stopwords), kb, doc_id)


def score_query(q: DocRepresentation | DocumentCounts, idx: IndexBundle, cfg: ModelConfig) -> Scores:
    """The configured model's scores; `kw-union-ne` is exact at both ends of alpha.

    An entity space whose bag is empty is not scored: its cosine would be 0.0
    everywhere, and every weight is finite and >= 0, so it is left out of the sums.
    """
    bags, spaces, roster = q.space_bags, idx.spaces, idx.doc_ids
    one = _ONE_SPACE.get(cfg.model)
    if one is not None:
        return cosine_score(bags[one], spaces[one])
    entity = ((cfg.w_n, _N), (cfg.w_c, _C), (cfg.w_nc, _NC), (cfg.w_i, _I))
    ne = _weighted_sum([(w, cosine_score(bags[s], spaces[s])) for w, s in entity if bags[s]], roster)
    if cfg.model is _NE:
        return ne
    return _weighted_sum([(cfg.alpha, ne), (1.0 - cfg.alpha, cosine_score(bags[_KW], spaces[_KW]))], roster)


def rank_documents(scores: Scores, k: int | None = None) -> Ranking:
    """Positive scores only, descending, ties by ascending doc_id, cut at k.

    Fewer than `QUICKSORT_MIN_CANDIDATES` positive scores are ordered by a
    stable argsort over ascending roster positions, which keeps each tie in
    ascending doc_id. That many or more are ordered by numpy's default
    (vectorized, unstable) argsort, which leaves equal scores adjacent but in
    any order; each ranked position then gets the key
    `group * len(roster) + position`, where `group` counts the score changes
    before it. The keys are unique and sort by tie group first, so one sort
    of them, less `group` again, puts every tie in ascending roster position:
    the stable sort's order, whatever permutation the quicksort returned.

    The order is taken on the raw scores; only the kept ones are clamped
    to <= 1.0, which a weighted sum of cosines may overshoot. After the
    quicksort they are read from the ranked scores, whose bits within a tie
    are equal.
    """
    values = scores.array
    positive = np.flatnonzero(values > 0.0)
    neg = -values[positive]
    if len(positive) < QUICKSORT_MIN_CANDIDATES:
        kept = positive[np.argsort(neg, kind="stable")[:k]]
        top = values[kept]
    else:
        order = np.argsort(neg)
        ranked = neg[order]
        group = np.zeros(len(order), dtype=np.int64)
        # np.add.accumulate, not np.cumsum: the same sums without the wrapper's 2 µs
        np.add.accumulate(ranked[1:] != ranked[:-1], dtype=np.int64, out=group[1:])
        group *= len(values)
        kept = positive[order]
        kept += group
        kept.sort()
        kept -= group
        kept, top = kept[:k], -ranked[:k]
    return Ranking(scores.roster.array[kept].tolist(), np.minimum(top, 1.0).tolist())


def search(
    query_text: str,
    idx: IndexBundle,
    kb: KnowledgeBase,
    cfg: ModelConfig,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    wh_mapping: dict[str, str] = DEFAULT_WH_MAPPING,
    wh_override: str | None = None,
) -> Ranking:
    """Full query pipeline: annotate, expand, score, rank."""
    q = represent_query(
        query_text, kb, cfg,
        stopwords=stopwords, wh_mapping=wh_mapping, wh_override=wh_override,
    )
    return rank_documents(score_query(q, idx, cfg), cfg.k)


def format_run_lines(query_id: str, ranking: Ranking, run_tag: str) -> list[str]:
    """TREC run lines: `query_id Q0 doc_id rank score tag` with 6-decimal scores."""
    return [
        f"{query_id} Q0 {doc_id} {position} {score:.6f} {run_tag}"
        for position, (doc_id, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1)
    ]

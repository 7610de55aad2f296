"""Query-time scoring and ranking under the five retrieval models.

Model names follow the CLI spelling: `kw` scores over the keyword space
alone; `ne` is the weighted sum of the four entity-space cosines
(w_N + w_C + w_NC + w_I = 1); `kw-union-ne` blends the two with
alpha * NE + (1 - alpha) * KW; `kw+ne` and `kw+ne+wh` are single cosines
over the generalized term space, the latter adding class terms derived
from the query's interrogative word.

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

Accumulation visits terms in serialized order and postings in doc_id
order, so scores are bit-reproducible regardless of input ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .annotate import (
    DEFAULT_STOPWORDS,
    DEFAULT_WH_MAPPING,
    AnnotationOptions,
    annotate,
    keywords_outside_entities,
)
from .expand import (
    DocRepresentation,
    ExpansionModel,
    Keyword,
    Space,
    TermBag,
    expand_document,
    expand_query,
    serialize_term,
)
from .index import IndexBundle, SpaceIndex, tfidf_weight
from .kb import KnowledgeBase


class Model(str, Enum):
    KW = "kw"
    NE = "ne"
    KW_UNION_NE = "kw-union-ne"
    KW_PLUS_NE = "kw+ne"
    KW_PLUS_NE_WH = "kw+ne+wh"


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
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"space weights must sum to 1, got {sum(weights)!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be a positive cutoff or None, got {self.k!r}")


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


def cosine_score(query_bag: TermBag, space: SpaceIndex) -> dict[str, float]:
    """Cosine between the query bag and every document sharing a term with it."""
    dot: dict[str, float] = {}
    q_sq = 0.0
    for term in sorted(query_bag, key=serialize_term):
        df = space.df.get(term)
        if df is None:
            continue
        w_q = tfidf_weight(query_bag[term], df, space.n_docs)
        q_sq += w_q * w_q
        for posting in space.postings[term]:
            w_d = tfidf_weight(posting.tf, df, space.n_docs)
            dot[posting.doc_id] = dot.get(posting.doc_id, 0.0) + w_q * w_d
    q_norm = math.sqrt(q_sq)
    scores: dict[str, float] = {}
    for doc_id, numerator in dot.items():
        d_norm = space.doc_norms[doc_id]
        if q_norm > 0.0 and d_norm > 0.0:
            scores[doc_id] = min(1.0, numerator / (q_norm * d_norm))
        else:
            scores[doc_id] = 0.0
    return scores


def score_ne(q: DocRepresentation, idx: IndexBundle, cfg: ModelConfig) -> dict[str, float]:
    """Weighted sum of the name, class, name-class, and identifier cosines."""
    weighted = (
        (Space.N, cfg.w_n),
        (Space.C, cfg.w_c),
        (Space.NC, cfg.w_nc),
        (Space.I, cfg.w_i),
    )
    combined: dict[str, float] = {}
    for space, weight in weighted:
        for doc_id, value in cosine_score(q.space_bags[space], idx.spaces[space]).items():
            combined[doc_id] = combined.get(doc_id, 0.0) + weight * value
    return combined


def score_kw_union_ne(q: DocRepresentation, idx: IndexBundle, cfg: ModelConfig) -> dict[str, float]:
    """alpha * NE + (1 - alpha) * KW; exact at both endpoints of alpha."""
    combined = {doc_id: cfg.alpha * value for doc_id, value in score_ne(q, idx, cfg).items()}
    kw = cosine_score(q.space_bags[Space.KW], idx.spaces[Space.KW])
    for doc_id, value in kw.items():
        combined[doc_id] = combined.get(doc_id, 0.0) + (1.0 - cfg.alpha) * value
    return combined


def score_generalized(q: DocRepresentation, idx: IndexBundle, cfg: ModelConfig) -> dict[str, float]:
    """Single cosine over the generalized term space."""
    return cosine_score(q.space_bags[Space.G], idx.spaces[Space.G])


def represent_query(
    query_text: str,
    kb: KnowledgeBase,
    cfg: ModelConfig,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    wh_mapping: dict[str, str] | None = None,
    wh_override: str | None = None,
) -> DocRepresentation:
    """Annotate and expand a query as the configured model requires."""
    if cfg.model in (Model.KW, Model.NE, Model.KW_UNION_NE):
        opts = AnnotationOptions(stopwords=stopwords, treat_names_as_keywords=True)
        return expand_query(annotate(query_text, kb, opts), kb, ExpansionModel.MULTIVECTOR, wh=False)
    wh = cfg.model is Model.KW_PLUS_NE_WH
    opts = AnnotationOptions(
        stopwords=stopwords,
        treat_names_as_keywords=False,
        wh_mapping=(wh_mapping or DEFAULT_WH_MAPPING) if wh else None,
        wh_override=wh_override if wh else None,
    )
    return expand_query(annotate(query_text, kb, opts), kb, ExpansionModel.GENERALIZED, wh=wh)


def represent_document(
    text: str,
    kb: KnowledgeBase,
    doc_id: str,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> DocRepresentation:
    """Document-side twin of represent_query, filling all six spaces at once.

    One annotation pass, keeping entity names as keywords, yields the
    multi-vector spaces. The generalized space is derived from the same
    pass: the keywords outside entity spans, plus every entity term of the
    N, C, NC and I spaces, which are exactly the generalized expansion's
    entity terms.
    """
    at = annotate(text, kb, AnnotationOptions(stopwords=stopwords, treat_names_as_keywords=True))
    rep = expand_document(at, kb, ExpansionModel.MULTIVECTOR, doc_id)
    bags = rep.space_bags
    generalized = bags[Space.G]
    for token in keywords_outside_entities(at.keywords, at.entities):
        generalized[Keyword(token.stem)] += 1
    for space in (Space.N, Space.C, Space.NC, Space.I):
        generalized.update(bags[space])
    return rep


def score_query(q: DocRepresentation, idx: IndexBundle, cfg: ModelConfig) -> dict[str, float]:
    """Dispatch to the configured model's scorer."""
    if cfg.model is Model.KW:
        return cosine_score(q.space_bags[Space.KW], idx.spaces[Space.KW])
    if cfg.model is Model.NE:
        return score_ne(q, idx, cfg)
    if cfg.model is Model.KW_UNION_NE:
        return score_kw_union_ne(q, idx, cfg)
    return score_generalized(q, idx, cfg)


def rank_documents(scores: dict[str, float], k: int | None = None) -> list[ScoredDoc]:
    """Positive scores only, descending, ties by ascending doc_id, cut at k."""
    ordered = sorted(
        ((doc_id, score) for doc_id, score in scores.items() if score > 0.0),
        key=lambda item: (-item[1], item[0]),
    )
    if k is not None:
        ordered = ordered[:k]
    return [ScoredDoc(doc_id, min(1.0, score)) for doc_id, score in ordered]


def search(
    query_text: str,
    idx: IndexBundle,
    kb: KnowledgeBase,
    cfg: ModelConfig,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    wh_mapping: dict[str, str] | None = None,
    wh_override: str | None = None,
) -> list[ScoredDoc]:
    """Full query pipeline: annotate, expand, score, rank."""
    q = represent_query(
        query_text, kb, cfg,
        stopwords=stopwords, wh_mapping=wh_mapping, wh_override=wh_override,
    )
    return rank_documents(score_query(q, idx, cfg), cfg.k)


def format_run_lines(query_id: str, results: list[ScoredDoc], run_tag: str) -> list[str]:
    """TREC run lines: `query_id Q0 doc_id rank score tag` with 6-decimal scores."""
    return [
        f"{query_id} Q0 {res.doc_id} {position} {res.score:.6f} {run_tag}"
        for position, res in enumerate(results, start=1)
    ]

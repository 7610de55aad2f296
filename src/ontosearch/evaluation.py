"""Retrieval evaluation: average precision, MAP, interpolated
precision-recall-F curves at the 11 standard recall levels, and a paired
Fisher randomization test for comparing two systems.

The randomization test draws its per-permutation swap decisions from a
counter-based generator (Philox keyed by the seed, the permutation index
in a counter word that drawing never advances), so permutation blocks can
be evaluated in parallel or in any order and still reproduce the serial
result bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

RECALL_LEVELS = tuple(round(0.1 * j, 1) for j in range(11))


def average_precision(ranking: list[str], relevant: set[str]) -> float:
    """Mean of precision-at-rank over retrieved relevant docs; misses add 0."""
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = 0
    total = 0.0
    for position, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)


def map_score(per_query_ap: list[float]) -> float:
    if not per_query_ap:
        raise ValueError("no per-query values to average")
    return sum(per_query_ap) / len(per_query_ap)


@dataclass(frozen=True)
class CurvePoint:
    level: float
    precision: float
    f_measure: float


@dataclass(frozen=True)
class PRCurve:
    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(RECALL_LEVELS):
            raise ValueError(f"curve must have {len(RECALL_LEVELS)} points")
        precisions = [p.precision for p in self.points]
        if any(a < b for a, b in zip(precisions, precisions[1:])):
            raise ValueError("interpolated precision must be non-increasing")


def _f_measure(precision: float, recall: float) -> float:
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def interpolated_curve(ranking: list[str], relevant: set[str]) -> PRCurve:
    """Interpolated precision at each level: the max precision over every
    ranking prefix whose recall reaches the level; F pairs that precision
    with the level's recall value."""
    if not relevant:
        raise ValueError("relevant set is empty")
    n_rel = len(relevant)
    recalls: list[float] = []
    precisions: list[float] = []
    hits = 0
    for position, doc_id in enumerate(ranking, start=1):
        if doc_id in relevant:
            hits += 1
        recalls.append(hits / n_rel)
        precisions.append(hits / position)
    # recall never falls along the ranking, so the prefixes reaching a level
    # are those from the first one that does; best[i] is the max precision
    # of prefix i and every later one (0.0 past the last)
    best = list(accumulate(reversed(precisions), max, initial=0.0))[::-1]
    points = []
    first = 0
    for level in RECALL_LEVELS:
        while first < len(recalls) and recalls[first] < level:
            first += 1
        points.append(CurvePoint(level, best[first], _f_measure(best[first], level)))
    return PRCurve(tuple(points))


def mean_curve(curves: list[PRCurve]) -> PRCurve:
    """Per-level arithmetic mean of precision and F across queries.

    The mean of non-increasing sequences is non-increasing, so the result
    is itself a valid curve."""
    if not curves:
        raise ValueError("no curves to average")
    points = []
    for i, level in enumerate(RECALL_LEVELS):
        precision = sum(c.points[i].precision for c in curves) / len(curves)
        f_measure = sum(c.points[i].f_measure for c in curves) / len(curves)
        points.append(CurvePoint(level, precision, f_measure))
    return PRCurve(tuple(points))


# --- paired randomization test --------------------------------------------------

@dataclass(frozen=True)
class SigTestResult:
    delta: float
    n_minus: int
    n_plus: int
    n_perm: int
    seed: int
    p_two_sided: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n_perm < 1:
            raise ValueError("n_perm must be >= 1")
        p = min(1.0, (self.n_minus + self.n_plus) / self.n_perm)
        object.__setattr__(self, "p_two_sided", p)


def permutation_uniforms(seed: int, perm_index: int, n_queries: int) -> np.ndarray:
    """The uniform draws behind one permutation's swap decisions.

    Keyed by (seed, perm_index) through a counter-based generator, so any
    block of permutation indexes can be evaluated independently. The
    permutation index sits in the counter's second word, which drawing
    never advances (it only carries out of the first word after 2**64
    blocks), so the streams of distinct permutations never overlap.
    """
    bit_gen = np.random.Philox(key=seed, counter=[0, perm_index, 0, 0])
    return np.random.Generator(bit_gen).random(n_queries)


def permutation_signs(seed: int, perm_index: int, n_queries: int) -> np.ndarray:
    """Swap signs (+1/-1) for one permutation; -1 swaps the query's pair."""
    return np.where(permutation_uniforms(seed, perm_index, n_queries) < 0.5, -1.0, 1.0)


def per_query_diff(aps_a: list[float], aps_b: list[float]) -> list[float]:
    """Element-wise A - B in query order."""
    if len(aps_a) != len(aps_b):
        raise ValueError(f"paired lists differ in length: {len(aps_a)} vs {len(aps_b)}")
    return [a - b for a, b in zip(aps_a, aps_b)]


def randomization_test(
    aps_a: list[float],
    aps_b: list[float],
    n_perm: int,
    seed: int,
) -> SigTestResult:
    """Two-sided paired randomization test on per-query average precision.

    Each permutation swaps every query's (A, B) pair independently with
    probability one half and measures the signed MAP difference d; the
    two-sided p-value is the fraction of permutations with |d| >= the
    observed delta, clamped to 1.
    """
    if not aps_a or not aps_b:
        raise ValueError("per-query score lists must be non-empty")
    diffs = np.asarray(per_query_diff(aps_a, aps_b), dtype=np.float64)
    delta = abs(float(diffs.mean()))

    n_minus = 0
    n_plus = 0
    for perm_index in range(n_perm):
        signs = permutation_signs(seed, perm_index, diffs.size)
        d = float((diffs * signs).mean())
        if d <= -delta:
            n_minus += 1
        if d >= delta:
            n_plus += 1
    return SigTestResult(delta=delta, n_minus=n_minus, n_plus=n_plus, n_perm=n_perm, seed=seed)


# --- file formats ----------------------------------------------------------------

def parse_qrels(text: str, origin: str = "<qrels>") -> dict[str, set[str]]:
    """TREC qrels lines `query_id 0 doc_id rel`; rel > 0 marks relevance."""
    relevant: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"{origin}:{lineno}: expected 4 fields, got {len(fields)}")
        query_id, _, doc_id, rel = fields
        try:
            relevance = int(rel)
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: relevance {rel!r} is not an integer") from None
        if relevance > 0:
            relevant.setdefault(query_id, set()).add(doc_id)
    return relevant


def load_qrels(path: str | Path) -> dict[str, set[str]]:
    path = Path(path)
    return parse_qrels(path.read_text(encoding="utf-8"), str(path))


def parse_run(text: str, origin: str = "<run>") -> dict[str, list[str]]:
    """TREC run lines `query_id Q0 doc_id rank score tag` -> rankings per query."""
    rows: dict[str, dict[str, int]] = {}  # query_id -> doc_id -> rank
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"{origin}:{lineno}: expected 6 fields, got {len(fields)}")
        query_id, _, doc_id, rank, _score, _tag = fields
        try:
            position = int(rank)
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: rank {rank!r} is not an integer") from None
        ranks = rows.setdefault(query_id, {})
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


def load_run(path: str | Path) -> dict[str, list[str]]:
    path = Path(path)
    return parse_run(path.read_text(encoding="utf-8"), str(path))


def format_eval_report(
    per_query_ap: dict[str, float],
    curve: PRCurve,
) -> str:
    """TSV report: one `ap` line per query, a `map` line, 11 `curve` lines."""
    lines = [f"ap\t{query_id}\t{ap:.6f}" for query_id, ap in sorted(per_query_ap.items())]
    lines.append(f"map\t{map_score(list(per_query_ap.values())):.6f}")
    for point in curve.points:
        lines.append(f"curve\t{point.level:.1f}\t{point.precision:.6f}\t{point.f_measure:.6f}")
    return "\n".join(lines) + "\n"


def format_sigtest_report(result: SigTestResult) -> str:
    header = "delta\tn_minus\tn_plus\tp\tn_perm\tseed"
    row = (
        f"{result.delta:.6f}\t{result.n_minus}\t{result.n_plus}"
        f"\t{result.p_two_sided:.6f}\t{result.n_perm}\t{result.seed}"
    )
    return header + "\n" + row + "\n"
